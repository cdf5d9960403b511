(* Shared helpers for the test suites. *)

module IS = Set.Make (Int)

(* The operations of one concurrent-set implementation, as closures (same
   shape as Harness.ops but without depending on the harness). *)
type ops = {
  label : string;
  insert : int -> bool;
  delete : int -> bool;
  member : int -> bool;
  to_list : unit -> int list;
  size : unit -> int;
  check : unit -> (unit, string) result;
  replace : (remove:int -> add:int -> bool) option;
  scan_bits : (unit -> int) option;
      (* atomic multi-key read: the full key set as a bitmask, drawn
         from a frozen snapshot (in-process view or wire SCAN page);
         [None] for structures without the snapshot capability *)
}

(* [cache_bits] fixes PAT's level cache (see For_testing.set_cache_bits);
   [None] leaves it to size itself. *)
let pat_ops_with ~cache_bits ~universe () =
  let t = Core.Patricia.create ~universe () in
  Core.Patricia.For_testing.set_cache_bits t cache_bits;
  {
    label = "PAT";
    insert = Core.Patricia.insert t;
    delete = Core.Patricia.delete t;
    member = Core.Patricia.member t;
    to_list = (fun () -> Core.Patricia.to_list t);
    size = (fun () -> Core.Patricia.size t);
    check = (fun () -> Core.Patricia.check_invariants t);
    replace = Some (fun ~remove ~add -> Core.Patricia.replace t ~remove ~add);
    scan_bits =
      Some
        (fun () ->
          let v = Core.Patricia.snapshot t in
          Core.Patricia.View.fold v ~init:0 ~f:(fun acc k ->
              acc lor (1 lsl k)));
  }

let pat_ops ~universe () = pat_ops_with ~cache_bits:None ~universe ()

let bst_ops ~universe () =
  let t = Nbbst.create ~universe () in
  {
    label = "BST";
    insert = Nbbst.insert t;
    delete = Nbbst.delete t;
    member = Nbbst.member t;
    to_list = (fun () -> Nbbst.to_list t);
    size = (fun () -> Nbbst.size t);
    check = (fun () -> Nbbst.check_invariants t);
    replace = None;
    scan_bits = None;
  }

let kary_ops ~universe () =
  let t = Kary.create ~universe () in
  {
    label = "4-ST";
    insert = Kary.insert t;
    delete = Kary.delete t;
    member = Kary.member t;
    to_list = (fun () -> Kary.to_list t);
    size = (fun () -> Kary.size t);
    check = (fun () -> Kary.check_invariants t);
    replace = None;
    scan_bits = None;
  }

let sl_ops ~universe () =
  let t = Skiplist.create ~universe () in
  {
    label = "SL";
    insert = Skiplist.insert t;
    delete = Skiplist.delete t;
    member = Skiplist.member t;
    to_list = (fun () -> Skiplist.to_list t);
    size = (fun () -> Skiplist.size t);
    check = (fun () -> Skiplist.check_invariants t);
    replace = None;
    scan_bits = None;
  }

let avl_ops ~universe () =
  let t = Avl.create ~universe () in
  {
    label = "AVL";
    insert = Avl.insert t;
    delete = Avl.delete t;
    member = Avl.member t;
    to_list = (fun () -> Avl.to_list t);
    size = (fun () -> Avl.size t);
    check = (fun () -> Avl.check_invariants t);
    replace = None;
    scan_bits = None;
  }

let ctrie_ops ~universe () =
  let t = Ctrie.create ~universe () in
  {
    label = "Ctrie";
    insert = Ctrie.insert t;
    delete = Ctrie.delete t;
    member = Ctrie.member t;
    to_list = (fun () -> Ctrie.to_list t);
    size = (fun () -> Ctrie.size t);
    check = (fun () -> Ctrie.check_invariants t);
    replace = None;
    scan_bits = None;
  }

let all_makers =
  [ pat_ops; bst_ops; kary_ops; sl_ops; avl_ops; ctrie_ops ]

let baseline_makers = [ bst_ops; kary_ops; sl_ops; avl_ops; ctrie_ops ]

(* PAT-VLK over one-byte keys: key [k] is the byte [k * 256 / universe],
   so distinct keys differ in their leading bits, the bits a level cache
   indexes by.  [universe] must divide 256. *)
let vlk_ops ~cache_bits ~universe () =
  let module V = Core.Patricia_vlk in
  let t = V.create () in
  V.For_testing.set_cache_bits t cache_bits;
  let key k = String.make 1 (Char.chr (k * (256 / universe))) in
  let unkey s = Char.code s.[0] / (256 / universe) in
  {
    label = "PAT-VLK";
    insert = (fun k -> V.insert t (key k));
    delete = (fun k -> V.delete t (key k));
    member = (fun k -> V.member t (key k));
    to_list = (fun () -> List.map unkey (V.to_list t));
    size = (fun () -> V.size t);
    check = (fun () -> V.check_invariants t);
    replace = Some (fun ~remove ~add -> V.replace t ~remove:(key remove) ~add:(key add));
    scan_bits =
      Some
        (fun () ->
          V.View.fold (V.snapshot t) ~init:0 ~f:(fun acc s ->
              acc lor (1 lsl unkey s)));
  }

(* ------------------------------------------------------------------ *)

let check_ok label ops =
  match ops.check () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s invariants violated: %s" label e

(* Drive [ops] and a reference IntSet through [steps] random operations,
   failing on the first divergence; returns the final model. *)
let model_run ?(seed = 42) ~universe ~steps ops =
  let rng = Rng.of_int_seed seed in
  let model = ref IS.empty in
  for step = 1 to steps do
    let k = Rng.int rng universe in
    match Rng.int rng 3 with
    | 0 ->
        let expect = not (IS.mem k !model) in
        if ops.insert k <> expect then
          Alcotest.failf "%s: insert %d wrong at step %d" ops.label k step;
        model := IS.add k !model
    | 1 ->
        let expect = IS.mem k !model in
        if ops.delete k <> expect then
          Alcotest.failf "%s: delete %d wrong at step %d" ops.label k step;
        model := IS.remove k !model
    | _ ->
        if ops.member k <> IS.mem k !model then
          Alcotest.failf "%s: member %d wrong at step %d" ops.label k step
  done;
  !model

(* No ABA on a trie's info fields, through its For_testing hooks: a
   descriptor prepared from one info value of a node p must fail its
   flag CAS on p once p's children have changed, whatever values p's
   info went through in between.  Keys [k] and [s] share the parent p
   below a grandparent; [k2] splits [k]'s leaf and [s2] [s]'s, and [x]
   splits [s2]'s leaf below [s]'s parent.  [d] is the type of a
   descriptor. *)
type ('k, 'd) aba = {
  a_insert : 'k -> bool;
  a_delete : 'k -> bool;
  a_member : 'k -> bool;
  a_check : unit -> (unit, string) result;
  a_prepare_insert : 'k -> 'd option;
  a_prepare_delete : 'k -> 'd option;
  a_flag_only : 'd -> bool;
  a_help : 'd -> bool;
}

type aba_case = Clean_first | Fresh_unflags | Installed_child

let aba_cases ~fresh (k, s, k2, s2, x) case =
  let o = fresh () in
  let yes what b = Alcotest.(check bool) what true b in
  let get what = function
    | Some d -> d
    | None -> Alcotest.failf "%s unexpectedly conflicted" what
  in
  (* Back p's flag out to a fresh Unflag: a delete of [s] flags p and
     then [s]'s parent, which [stall] holds flagged first. *)
  let backtrack_p what stall =
    let dd = get "prepare_delete s" (o.a_prepare_delete s) in
    let ds = get "the stalled update" (stall ()) in
    yes (what ^ ": the stall flags s's parent") (o.a_flag_only ds);
    Alcotest.(check bool) (what ^ ": delete of s backs out") false (o.a_help dd);
    yes (what ^ ": the stalled update completes") (o.a_help ds)
  in
  let stale, present, absent =
    match case with
    | Clean_first ->
        (* The delete of [k] reads p's initial [Clean], which no unflag
           may write back; the insert of [k2] unflags p. *)
        List.iter (fun y -> yes "setup insert" (o.a_insert y)) [ k; s ];
        let d = get "prepare_delete k" (o.a_prepare_delete k) in
        yes "insert k2" (o.a_insert k2);
        (d, [ k; s; k2 ], [])
    | Fresh_unflags ->
        (* The delete of [k] reads a backtrack's Unflag on p; the insert
           of [k2] commits on p and a second backtrack leaves another
           Unflag, which must not be physically equal to the first: the
           stale delete would otherwise unlink p and [k2] with it. *)
        List.iter (fun y -> yes "setup insert" (o.a_insert y)) [ k; s; s2 ];
        backtrack_p "first" (fun () -> o.a_prepare_insert x);
        let d = get "prepare_delete k" (o.a_prepare_delete k) in
        yes "insert k2" (o.a_insert k2);
        backtrack_p "second" (fun () -> o.a_prepare_delete x);
        (d, [ k; s; s2; k2 ], [ x ])
    | Installed_child ->
        (* A commit unflags p to the child it installed.  The insert of
           [s2] is prepared after the delete of [s2] left [s] on p; two
           more commits change that same child, so p's other child
           stayed [k] throughout, and an unflag to the child a commit
           left alone would give p the value the stale insert read. *)
        List.iter (fun y -> yes "setup insert" (o.a_insert y)) [ k; s; s2 ];
        yes "delete s2" (o.a_delete s2);
        let d = get "prepare_insert s2" (o.a_prepare_insert s2) in
        yes "insert s2" (o.a_insert s2);
        yes "delete s2 again" (o.a_delete s2);
        (d, [ k; s ], [ s2 ])
  in
  Alcotest.(check bool) "stale descriptor does not apply" false (o.a_help stale);
  List.iteri
    (fun i y ->
      Alcotest.(check bool) (Printf.sprintf "key %d present" i) true (o.a_member y))
    present;
  List.iteri
    (fun i y ->
      Alcotest.(check bool) (Printf.sprintf "key %d absent" i) false (o.a_member y))
    absent;
  match o.a_check () with Ok () -> () | Error e -> Alcotest.fail e

(* The info word is field 0 of every node, where [Atomic] operates: for
   each node on a key's search path, [layout] gives the node, what its
   info cell reads and its other fields read by name.  Field 0 must be
   that very info value and fields 1.. the named fields, in order: a
   record that put another field first would fail here, where every
   access through the cast would still agree with itself.  Inserting
   [k] into the empty trie flags the root and unflags it to the node
   the insert installed there; deleting [k]
   beside [s] flags and unflags internal nodes below it.  Each path is
   checked while the flags are held and after they are released. *)
let info_word_is_field_0 ~insert ~prepare_insert ~prepare_delete ~flag_only
    ~help ~layout (k, s) =
  let check what =
    let path = layout k in
    List.iteri
      (fun i (n, info, named) ->
        let name = Printf.sprintf "%s: node %d" what i in
        Alcotest.(check bool) (name ^ " field 0 is its info") true
          (Obj.field n 0 == info);
        Alcotest.(check int) (name ^ " size") (1 + List.length named) (Obj.size n);
        List.iteri
          (fun j f ->
            Alcotest.(check bool)
              (Printf.sprintf "%s field %d by name" name (j + 1))
              true
              (Obj.field n (j + 1) == f))
          named)
      path;
    path
  in
  let stall what d =
    Alcotest.(check bool) (what ^ " flags") true (flag_only d);
    ignore (check (what ^ " flagged"));
    Alcotest.(check bool) (what ^ " completes") true (help d);
    check (what ^ " unflagged")
  in
  (match prepare_insert k with
  | None -> Alcotest.fail "prepare_insert unexpectedly failed"
  | Some d -> (
      match stall "insert" d with
      | (root, info, _) :: (inner, _, _) :: rest ->
          Alcotest.(check bool) "root holds the child it got" true (info == inner);
          Alcotest.(check bool) "root and child are internal" true
            (Obj.tag root = 1 && Obj.tag inner = 1);
          Alcotest.(check bool) "path ends at a leaf" true
            (match List.rev rest with
            | (l, _, _) :: _ -> Obj.tag l = 0
            | [] -> false)
      | _ -> Alcotest.fail "path too short"));
  Alcotest.(check bool) "insert s" true (insert s);
  match prepare_delete k with
  | None -> Alcotest.fail "prepare_delete unexpectedly failed"
  | Some d -> ignore (stall "delete" d)

(* The child CAS writes the field its bit names: on each internal node
   of [k]'s search path (fields [info; label; c0; c1; gen]), a CAS with
   bit [false] swaps field 2 only and one with bit [true] field 3 only,
   and a CAS expecting a value the field does not hold swaps nothing and
   returns [false].  Each swap is undone before the next, and the trie
   must still check. *)
let cas_child_fields ~insert ~layout ~cas_child ~check (k, s) =
  ignore (insert k);
  ignore (insert s);
  let internal =
    List.filter (fun (_, _, named) -> List.length named = 4) (layout k)
  in
  Alcotest.(check bool) "an internal node on the path" true (internal <> []);
  List.iteri
    (fun i (n, _, _) ->
      let fields () = List.init (Obj.size n) (Obj.field n) in
      let same what before =
        List.iteri
          (fun j (x, y) ->
            Alcotest.(check bool)
              (Printf.sprintf "node %d %s: field %d" i what j)
              true (x == y))
          (List.combine before (fields ()))
      in
      let c0 = Obj.field n 2 and c1 = Obj.field n 3 in
      let before = fields () in
      let cas what b old nc expect =
        Alcotest.(check bool)
          (Printf.sprintf "node %d %s" i what)
          expect (cas_child n b old nc)
      in
      cas "stale bit false" false c1 c0 false;
      cas "stale bit true" true c0 c1 false;
      same "after stale CASes" before;
      cas "bit false" false c0 c1 true;
      same "after bit false"
        (List.mapi (fun j x -> if j = 2 then c1 else x) before);
      cas "bit false undone" false c1 c0 true;
      cas "bit true" true c1 c0 true;
      same "after bit true"
        (List.mapi (fun j x -> if j = 3 then c0 else x) before);
      cas "bit true undone" true c0 c1 true;
      same "restored" before)
    internal;
  match check () with Ok () -> () | Error e -> Alcotest.fail e

(* The operations [dead_marks] runs on one fresh trie.  [m_snapshot]
   takes a snapshot and returns the count of flagged or marked nodes on
   a key's path in its view, and the view's size; [m_prepare_delete]
   builds a delete's descriptor without running it and returns its
   [help]. *)
type 'k marks = {
  m_insert : 'k -> bool;
  m_delete : 'k -> bool;
  m_replace : 'k -> 'k -> bool;
  m_snapshot : unit -> ('k -> int) * (unit -> int);
  m_layout : 'k -> (Obj.t * Obj.t * Obj.t list) list;
  m_prepare_delete : 'k -> (unit -> bool) option;
  m_check : unit -> (unit, string) result;
}

(* A node a committed update removes reads the immediate removed mark
   afterwards, not the update's descriptor, so nothing keeps the
   descriptor alive once the update returns.  Keys: [a] and [b] share a
   parent [pd], as [c] and [d] do elsewhere; [x]'s search ends at [pd]
   itself, and [y]'s ends at [c] and [d]'s parent.  The nodes are taken
   from [a]'s (or [x]'s) search path before the update and read after
   it: a delete's parent; the internal node an insert replaces; a
   general replace's [pd] and its removed leaf.  A late help of a
   completed delete leaves its mark as it was.  The nodes that stay in
   the trie read unmarked, and the invariants hold after each update.
   The stale run a path renewal copies after a snapshot is the one
   exception: it leaves the live trie unflagged and unmarked. *)
let dead_marks ~fresh ~is_dead (a, b, c, d, x, y) =
  let setup () =
    let m = fresh () in
    List.iter
      (fun k -> Alcotest.(check bool) "setup insert" true (m.m_insert k))
      [ a; b; c; d ];
    m
  in
  let internals path =
    List.filter_map
      (fun (n, _, named) -> if List.length named = 4 then Some n else None)
      path
  in
  let last l = List.nth l (List.length l - 1) in
  let dead what n = Alcotest.(check bool) (what ^ " is marked") true (is_dead n) in
  let live what n =
    Alcotest.(check bool) (what ^ " is unmarked") false (is_dead n)
  in
  let ok m = match m.m_check () with Ok () -> () | Error e -> Alcotest.fail e in
  (* A delete's parent; its grandparent stays. *)
  let m = setup () in
  let path = m.m_layout a in
  let ins = internals path in
  let pd = last ins and gpd = List.nth ins (List.length ins - 2) in
  Alcotest.(check bool) "delete a" true (m.m_delete a);
  dead "delete: parent" pd;
  live "delete: grandparent" gpd;
  ok m;
  (* An insert whose search ends at an internal node replaces it. *)
  let m = setup () in
  let (n, _, named) = last (m.m_layout x) in
  Alcotest.(check int) "x's search ends at an internal node" 4
    (List.length named);
  Alcotest.(check bool) "insert x" true (m.m_insert x);
  dead "insert: replaced internal node" n;
  ok m;
  (* A general replace removes pd and flags a's leaf on the way. *)
  let m = setup () in
  let path = m.m_layout a in
  let pd = last (internals path) and (leaf, _, _) = last path in
  let (ni, _, _) = last (m.m_layout y) in
  Alcotest.(check bool) "replace a by y" true (m.m_replace a y);
  dead "replace: pd" pd;
  dead "replace: removed leaf" leaf;
  dead "replace: internal node the insertion replaced" ni;
  live "replace: b's leaf" (let (l, _, _) = last (m.m_layout b) in l);
  ok m;
  (* After a snapshot every internal node below the root is stale; a
     delete renews the whole run, and the run leaves the live trie
     unflagged, while the view still walks it. *)
  let m = setup () in
  let view_marks, view_size = m.m_snapshot () in
  let stale = List.tl (internals (m.m_layout a)) in
  Alcotest.(check bool) "a stale run below the root" true (stale <> []);
  Alcotest.(check bool) "delete a after a snapshot" true (m.m_delete a);
  let on_path = List.map (fun (n, _, _) -> n) (m.m_layout a) in
  List.iteri
    (fun i n ->
      let what = Printf.sprintf "renewal: stale node %d" i in
      live what n;
      Alcotest.(check bool) (what ^ " is off the live path") false
        (List.memq n on_path))
    stale;
  Alcotest.(check int) "the view's path reads unflagged" 0 (view_marks a);
  Alcotest.(check int) "the view walks its frozen set" 4 (view_size ());
  ok m;
  (* A late help of a completed delete finds the mark and leaves it. *)
  let m = setup () in
  let ins = internals (m.m_layout a) in
  let pd = last ins and gpd = List.nth ins (List.length ins - 2) in
  match m.m_prepare_delete a with
  | None -> Alcotest.fail "prepare_delete unexpectedly failed"
  | Some help ->
      Alcotest.(check bool) "help completes the delete" true (help ());
      dead "help: parent" pd;
      Alcotest.(check bool) "a late help follows the commit" true (help ());
      dead "late help: parent" pd;
      live "late help: grandparent" gpd;
      ok m

let spawn_n n f = List.init n (fun d -> Domain.spawn (fun () -> f d))
let join_all ds = List.map Domain.join ds

(* Record a small concurrent history against [ops] and check it with the
   linearizability checker. *)
let linearizable_run ?(threads = 3) ?(ops_per_thread = 12) ?(universe = 8)
    ?(seed = 0) ~with_replace (mk : universe:int -> unit -> ops) =
  let ops = mk ~universe () in
  let recorder = Linearize.Recorder.create ~threads in
  (* Structures with a snapshot capability get atomic scans mixed into
     the same history: each records the frozen view's key set, which
     the checker must place at a single linearization point among the
     concurrent mutations. *)
  let with_scan = ops.scan_bits <> None in
  let worker d =
    let rng = Rng.of_int_seed (seed + (d * 31)) in
    for _ = 1 to ops_per_thread do
      let k = Rng.int rng universe in
      let choices =
        (if with_replace then 4 else 3) + if with_scan then 1 else 0
      in
      match Rng.int rng choices with
      | 0 ->
          ignore
            (Linearize.Recorder.record recorder ~thread:d (Insert k) (fun () ->
                 ops.insert k))
      | 1 ->
          ignore
            (Linearize.Recorder.record recorder ~thread:d (Delete k) (fun () ->
                 ops.delete k))
      | 2 ->
          ignore
            (Linearize.Recorder.record recorder ~thread:d (Member k) (fun () ->
                 ops.member k))
      | 3 when with_replace ->
          let k2 = Rng.int rng universe in
          let replace = Option.get ops.replace in
          ignore
            (Linearize.Recorder.record recorder ~thread:d (Replace (k, k2))
               (fun () -> replace ~remove:k ~add:k2))
      | _ ->
          ignore
            (Linearize.Recorder.record_scan recorder ~thread:d ~lo:0
               ~hi:(universe - 1)
               (Option.get ops.scan_bits))
    done
  in
  join_all (spawn_n threads worker) |> ignore;
  let history = Linearize.Recorder.history recorder in
  if not (Linearize.check history) then
    Alcotest.failf "%s: history of %d ops is not linearizable" ops.label
      (Array.length history);
  (* Teardown audit: the structure must also be internally consistent
     once the recorded run is over (no residual flags, ordered leaves). *)
  check_ok ops.label ops

(* [fresh_dirs prefix] makes empty scratch directories
   [<tmp>/<prefix>_<pid>_<n>], one per call, and removes them all when
   the process exits.  A directory left by an earlier process with the
   same pid is removed first: its segments and images would otherwise
   be recovered as the test's own. *)
let fresh_dirs prefix =
  let made = ref [] in
  at_exit (fun () -> List.iter Fixture.rm_rf !made);
  fun () ->
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ())
           (List.length !made + 1))
    in
    Fixture.rm_rf dir;
    Unix.mkdir dir 0o755;
    made := dir :: !made;
    dir

(* End the test executable with a failure once it has run [seconds],
   instead of hanging the suite: an update whose retries can never
   succeed (a livelock) spins forever. *)
let time_limit seconds =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Printf.eprintf "time limit: still running after %d s\n%!" seconds;
         Unix._exit 3));
  ignore (Unix.alarm seconds)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Level-cache cases, shared by PAT and PAT-VLK *)

(* A trie over the 7-bit keys 1..126 as the cache cases drive it: PAT
   stores them as they are, PAT-VLK as the byte [2k], so both index a
   key's level-cache slot by the same leading bits and build the same
   branching below their top nodes. *)
type cached = {
  c_label : string;
  c_insert : int -> bool;
  c_delete : int -> bool;
  c_member : int -> bool;
  c_replace : remove:int -> add:int -> bool;
  c_keys : unit -> int list;
  c_snapshot : unit -> unit -> int list;  (** a view's fold, frozen now *)
  c_cache_bits : int option -> unit;
  c_descent : unit -> int;  (** nodes visited by every search so far *)
  c_check : unit -> (unit, string) result;
}

(* [f ()] and the number of nodes its searches visited. *)
let nodes s f =
  let before = s.c_descent () in
  let r = f () in
  (r, s.c_descent () - before)

let cached_ok s what =
  match s.c_check () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s %s: invariants: %s" s.c_label what e

(* Keys 16 and 24 are alone in slot 1 of an 8-slot cache (top 3 bits
   001); their parent X, label 001, is the deepest node there that the
   slot covers, and its parent, label 00, also holds 3. *)
let sparse = [ 3; 16; 24; 40; 50; 70; 100 ]

let bool s what expect got =
  Alcotest.(check bool) (s.c_label ^ ": " ^ what) expect got

(* A hint removed by a delete.  Deleting 24 unlinks X, whose children
   still point at both leaves; a search that started at X without
   reading its info would find 24 there. *)
let cache_removed_hint mk () =
  let s = mk () in
  List.iter (fun k -> bool s "setup insert" true (s.c_insert k)) sparse;
  s.c_cache_bits (Some 3);
  let _, cold = nodes s (fun () -> s.c_member 16) in
  let hit, warm = nodes s (fun () -> s.c_member 16) in
  bool s "member 16" true hit;
  Alcotest.(check int) (s.c_label ^ ": member 16 starts at X") 1 warm;
  bool s (Printf.sprintf "the hint saved nodes (%d < %d)" warm cold) true (warm < cold);
  bool s "delete 24" true (s.c_delete 24);
  bool s "member 24 after its parent left" false (s.c_member 24);
  bool s "member 16" true (s.c_member 16);
  cached_ok s "after the removal"

(* Updates whose leaf hangs right under the hint: the search from the
   hint stops at depth 0, without the grandparent a delete and a replace
   swing, so they search again from the root. *)
let cache_depth0_fallback mk () =
  let s = mk () in
  List.iter (fun k -> bool s "setup insert" true (s.c_insert k)) sparse;
  s.c_cache_bits (Some 3);
  ignore (s.c_member 16);
  let _, warm = nodes s (fun () -> s.c_member 24) in
  Alcotest.(check int) (s.c_label ^ ": member 24 starts at X") 1 warm;
  bool s "delete 24" true (s.c_delete 24);
  bool s "24 gone" false (s.c_member 24);
  (* 40 and 50 hang under their parent, label 01, the hint of slots 2
     and 3; 52 joins 50 in slot 3. *)
  ignore (s.c_member 50);
  let _, warm = nodes s (fun () -> s.c_member 50) in
  Alcotest.(check int) (s.c_label ^ ": member 50 starts at 01") 1 warm;
  bool s "replace 50 by 52" true (s.c_replace ~remove:50 ~add:52);
  Alcotest.(check (list int))
    (s.c_label ^ ": keys") [ 3; 16; 40; 52; 70; 100 ] (s.c_keys ());
  cached_ok s "after the updates"

(* Snapshot, then update, then fold the view.  After the snapshot every
   node is frozen: a find that passed one must not write it back, or the
   next update would start at it and renew (and change) the frozen
   generation's nodes. *)
let cache_snapshot_update_fold mk () =
  let s = mk () in
  let all = List.init 126 (fun i -> i + 1) in
  List.iter (fun k -> bool s "setup insert" true (s.c_insert k)) all;
  s.c_cache_bits (Some 0);
  let _, from_root = nodes s (fun () -> s.c_member 21) in
  let view = s.c_snapshot () in
  s.c_cache_bits (Some 3);
  bool s "member 20" true (s.c_member 20);
  bool s "delete 20" true (s.c_delete 20);
  let ok, n = nodes s (fun () -> s.c_delete 21) in
  bool s "delete 21" true ok;
  bool s
    (Printf.sprintf "delete 21 started below the root (%d < %d nodes)" n from_root)
    true (n < from_root);
  Alcotest.(check (list int)) (s.c_label ^ ": the view") all (view ());
  Alcotest.(check (list int))
    (s.c_label ^ ": live keys")
    (List.filter (fun k -> k <> 20 && k <> 21) all)
    (s.c_keys ());
  cached_ok s "after the updates"

let cache_cases mk =
  [
    Alcotest.test_case "cache: hint removed by a delete" `Quick
      (cache_removed_hint mk);
    Alcotest.test_case "cache: update under the hint searches from the root"
      `Quick (cache_depth0_fallback mk);
    Alcotest.test_case "cache: snapshot, update, fold the view" `Quick
      (cache_snapshot_update_fold mk);
  ]
