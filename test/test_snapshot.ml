(* Atomic snapshots of the Patricia trie: frozen-view semantics,
   generation bookkeeping, and the linearization-point property under
   concurrent storms.  The full history-based check (scan results inside
   mixed-op histories) lives in test_linearize; here we assert the
   structural guarantees directly. *)

module P = Core.Patricia
module V = Core.Patricia_vlk
module IS = Set.Make (Int)
module SS = Set.Make (String)

let view_set v = P.View.fold v ~init:IS.empty ~f:(fun s k -> IS.add k s)

let test_empty_snapshot () =
  let t = P.create ~universe:100 () in
  let v = P.snapshot t in
  Alcotest.(check int) "epoch" 0 (P.View.epoch v);
  Alcotest.(check int) "size" 0 (P.View.size v);
  Alcotest.(check (list int)) "to_list" [] (P.View.to_list v);
  (* the trie is still usable after being snapshotted *)
  Alcotest.(check bool) "insert after snapshot" true (P.insert t 7);
  Alcotest.(check int) "view unmoved" 0 (P.View.size v)

let test_frozen_under_mutation () =
  let t = P.create ~universe:1000 () in
  for i = 0 to 99 do
    assert (P.insert t i)
  done;
  let v = P.snapshot t in
  for i = 0 to 49 do
    assert (P.delete t i)
  done;
  for i = 500 to 599 do
    assert (P.insert t i)
  done;
  assert (P.replace t ~remove:60 ~add:700);
  Alcotest.(check (list int)) "view is the pre-mutation contents"
    (List.init 100 Fun.id) (P.View.to_list v);
  Alcotest.(check int) "live trie moved on" 150 (P.size t);
  (match P.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e);
  let v2 = P.snapshot t in
  Alcotest.(check int) "epochs increment" 1 (P.View.epoch v2);
  Alcotest.(check int) "second view exact" 150 (P.View.size v2)

let test_view_traversals_agree () =
  let t = P.create ~universe:4096 () in
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 600 do
    ignore (P.insert t (Random.State.int st 4096))
  done;
  let v = P.snapshot t in
  let l = P.View.to_list v in
  Alcotest.(check (list int)) "to_seq = to_list" l
    (List.of_seq (P.View.to_seq v));
  Alcotest.(check (list int)) "full-range fold = to_list" l
    (List.rev (P.View.fold_range v ~lo:0 ~hi:4095 ~init:[] ~f:(fun a k -> k :: a)));
  Alcotest.(check int) "size = length" (List.length l) (P.View.size v);
  let sorted = List.sort_uniq compare l in
  Alcotest.(check (list int)) "ascending, duplicate-free" sorted l;
  (* range folds match filtering the full list *)
  List.iter
    (fun (lo, hi) ->
      let expect = List.filter (fun k -> k >= lo && k <= hi) l in
      let got =
        List.rev (P.View.fold_range v ~lo ~hi ~init:[] ~f:(fun a k -> k :: a))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "range [%d,%d]" lo hi)
        expect got)
    [ (0, 100); (1000, 2000); (4000, 4095); (700, 700); (2001, 2000) ]

let test_interleaved_exactness () =
  (* Single mutator: after every operation the snapshot must equal the
     sequential model exactly — there is no concurrency to excuse any
     divergence. *)
  let t = P.create ~universe:512 () in
  let st = Random.State.make [| 7 |] in
  let model = ref IS.empty in
  for _ = 1 to 400 do
    let k = Random.State.int st 512 in
    (match Random.State.int st 3 with
    | 0 -> if P.insert t k then model := IS.add k !model
    | 1 -> if P.delete t k then model := IS.remove k !model
    | _ ->
        let k' = Random.State.int st 512 in
        if P.replace t ~remove:k ~add:k' then
          model := IS.add k' (IS.remove k !model));
    let v = P.snapshot t in
    if not (IS.equal (view_set v) !model) then
      Alcotest.failf "snapshot diverged from sequential model"
  done

let test_abandoned_flag_cannot_commit_across_snapshot () =
  (* A descriptor whose owner "dies" between flagging and the child CAS
     (For_testing.flag_only) sits on nodes *below* the root here, so the
     snapshot neither helps it (the root is unflagged) nor finds it in a
     slot (For_testing bypasses publication).  Once the snapshot has
     moved the generation on, the descriptor's decision CAS must abort:
     the insert can never take effect in a generation it did not search. *)
  let t = P.create ~universe:100 () in
  (* 52/53 share a 5-bit prefix, so inserting 55 flags that deep pair,
     not the root. *)
  assert (P.insert t 52);
  assert (P.insert t 53);
  match P.For_testing.prepare_insert t 55 with
  | None -> Alcotest.fail "prepare_insert returned None"
  | Some d ->
      assert (P.For_testing.flag_only d);
      let v = P.snapshot t in
      Alcotest.(check bool) "view excludes the unapplied key" false
        (IS.mem 55 (view_set v));
      Alcotest.(check bool) "stale descriptor aborts" false
        (P.For_testing.help d);
      Alcotest.(check bool) "key still absent" false (P.member t 55);
      Alcotest.(check bool) "fresh insert succeeds" true (P.insert t 55);
      (match P.check_invariants t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invariants: %s" e)

let test_root_flag_helped_to_commit_by_snapshot () =
  (* The complementary case: the prepared insert flags the root, so the
     snapshot must resolve it to take its own root-level descriptor —
     and resolution before the holder swing is a commit.  The view then
     includes the helped key, and so does the live trie. *)
  let t = P.create ~universe:100 () in
  assert (P.insert t 10);
  assert (P.insert t 20);
  match P.For_testing.prepare_insert t 55 with
  | None -> Alcotest.fail "prepare_insert returned None"
  | Some d ->
      assert (P.For_testing.flag_only d);
      let v = P.snapshot t in
      let in_view = IS.mem 55 (view_set v) in
      let in_trie = P.member t 55 in
      Alcotest.(check bool) "view and trie agree" in_view in_trie;
      ignore (P.For_testing.help d);
      Alcotest.(check bool) "still agree after help" in_trie (P.member t 55);
      (match P.check_invariants t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invariants: %s" e)

(* The internal nodes of a quiescent PAT over user [keys] in a trie of
   key width [width], root excluded, as (bits, length) labels.  A binary
   Patricia trie over sorted leaves l0 < ... < ln has one internal node
   per adjacent pair, labelled by their longest common prefix; the
   leaves are the keys shifted by the +1 embedding plus both sentinels,
   and the pair straddling the top bit is the root (length 0). *)
let pat_labels ~width keys =
  let rec bit_length x = if x = 0 then 0 else 1 + bit_length (x lsr 1) in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        let len = width - bit_length (a lxor b) in
        (a lsr (width - len), len) :: pairs rest
    | _ -> []
  in
  let leaves =
    (0 :: List.map succ (IS.elements keys)) @ [ (1 lsl width) - 1 ]
  in
  List.filter (fun (_, len) -> len > 0) (pairs leaves)

(* How many of [labels] an update searching for each of [keys]
   descends through: those whose label prefixes the key. *)
let nodes_on_paths ~width labels keys =
  List.length
    (List.filter
       (fun (bits, len) ->
         List.exists (fun k -> (k + 1) lsr (width - len) = bits) keys)
       labels)

let test_renewal_continues () =
  (* Right after a snapshot every internal node but the root belongs to
     the frozen generation.  An update must renew each one on its path
     (or paths, for a replace) and still finish in one attempt: one
     renewal per stale node, one search per key, no restart.  Each
     search that meets a stale node renews its whole stale run with one
     descriptor, so the update runs that many descriptors plus its own
     (counted at every entry to help): 2 for the insert and the delete,
     where a renewal per stale node would run [stale] + 1. *)
  let universe = 1000 and width = 10 in
  let t = P.create ~universe ~record_stats:true () in
  let st = Random.State.make [| 12 |] in
  let model = ref IS.empty in
  for _ = 1 to 400 do
    let k = Random.State.int st universe in
    if P.insert t k then model := IS.add k !model
  done;
  let first p lo = List.find p (List.init (universe - lo) (fun i -> lo + i)) in
  let present k = IS.mem k !model and absent k = not (IS.mem k !model) in
  let stats () = Option.get (P.stats_snapshot t) in
  let views = ref [] in
  let run name ~paths op ~expect ~apply =
    let v = P.snapshot t in
    let frozen = P.View.to_list v in
    views := (name, v, frozen) :: !views;
    let stale = nodes_on_paths ~width (pat_labels ~width !model) paths in
    if stale < 5 then
      Alcotest.failf "%s: only %d stale nodes on its path" name stale;
    let renewing =
      List.length
        (List.filter
           (fun k -> nodes_on_paths ~width (pat_labels ~width !model) [ k ] > 0)
           paths)
    in
    let s0 = stats () in
    let result = op () in
    Alcotest.(check bool) (name ^ " result") expect result;
    let s1 = stats () in
    model := apply !model;
    Alcotest.(check int) (name ^ ": one attempt") 1 (s1.attempts - s0.attempts);
    Alcotest.(check int)
      (name ^ ": renewals count the copies, one per stale node")
      stale (s1.renewals - s0.renewals);
    Alcotest.(check int)
      (name ^ ": one renewal descriptor per search that met a stale node")
      renewing
      (s1.renew_paths - s0.renew_paths);
    Alcotest.(check int)
      (name ^ ": descriptors run")
      (renewing + 1)
      (s1.descriptors_run - s0.descriptors_run);
    Alcotest.(check int)
      (name ^ ": one search per key")
      (List.length paths)
      (s1.descent_searches - s0.descent_searches)
  in
  let ins = first absent 100 in
  run "insert" ~paths:[ ins ] (fun () -> P.insert t ins) ~expect:true
    ~apply:(IS.add ins);
  let del = first present 200 in
  run "delete" ~paths:[ del ] (fun () -> P.delete t del) ~expect:true
    ~apply:(IS.remove del);
  (* [remove] below 512 and [add] above it: the two paths part at the
     root, so renewing the second cannot touch the first's parents. *)
  let vd = first present 300 and vi = first absent 700 in
  run "replace" ~paths:[ vd; vi ]
    (fun () -> P.replace t ~remove:vd ~add:vi)
    ~expect:true
    ~apply:(fun s -> IS.add vi (IS.remove vd s));
  List.iter
    (fun (name, v, frozen) ->
      Alcotest.(check (list int)) ("view before " ^ name) frozen
        (P.View.to_list v))
    !views;
  Alcotest.(check (list int)) "live set" (IS.elements !model) (P.to_list t);
  match P.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* A path renewal flags only the live parent of the stale run it
   copies.  After a snapshot, an insert and a delete each meet a run of
   at least five stale nodes; between its [Renew] crossing and the
   renewal's child CAS, each update's chaos trail must cross [Flag_cas]
   once, where a renewal that flags every node it copies crosses it
   [stale + 1] times. *)
let test_renewal_flags_parent () =
  let universe = 1000 in
  let t = P.create ~universe () in
  let st = Random.State.make [| 12 |] in
  for _ = 1 to 400 do
    ignore (P.insert t (Random.State.int st universe))
  done;
  let first p lo = List.find p (List.init (universe - lo) (fun i -> lo + i)) in
  let run name op k =
    ignore (P.snapshot t);
    let stale = P.For_testing.stale_on_path t k in
    if stale < 5 then
      Alcotest.failf "%s: only %d stale nodes on its path" name stale;
    let trail = ref [] in
    Chaos.with_policy ~name
      (fun site -> trail := site :: !trail)
      (fun () -> Alcotest.(check bool) (name ^ " result") true (op k));
    let rec after_renew = function
      | Chaos.Renew :: rest -> rest
      | _ :: rest -> after_renew rest
      | [] -> Alcotest.failf "%s: no renewal on the trail" name
    in
    let rec flags n = function
      | Chaos.Flag_cas :: rest -> flags (n + 1) rest
      | Chaos.Child_cas :: _ | [] -> n
      | _ :: rest -> flags n rest
    in
    Alcotest.(check int)
      (Printf.sprintf "%s: flag CASes renewing %d stale nodes" name stale)
      1
      (flags 0 (after_renew (List.rev !trail)))
  in
  run "insert" (P.insert t) (first (fun k -> not (P.member t k)) 100);
  run "delete" (P.delete t) (first (P.member t) 200);
  match P.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_storm_stability () =
  (* Snapshots taken during an insert/delete/replace storm: every view
     must be internally stable (re-walking gives the same answer) and
     duplicate-free, and the trie must pass the invariant audit after
     the storm.  Every view is walked once more after the writers are
     joined: a difference would mean a writer wrote into a frozen
     generation. *)
  let t = P.create ~universe:4096 () in
  let stop = Atomic.make false in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let st = Random.State.make [| d + 1 |] in
            while not (Atomic.get stop) do
              let k = Random.State.int st 4096 in
              match Random.State.int st 3 with
              | 0 -> ignore (P.insert t k)
              | 1 -> ignore (P.delete t k)
              | _ -> ignore (P.replace t ~remove:k ~add:(Random.State.int st 4096))
            done))
  in
  let last_epoch = ref (-1) in
  let taken = ref [] in
  for _ = 1 to 100 do
    let v = P.snapshot t in
    if P.View.epoch v <= !last_epoch then
      Alcotest.failf "epochs not strictly increasing";
    last_epoch := P.View.epoch v;
    let l = P.View.to_list v in
    if P.View.to_list v <> l then Alcotest.failf "view not frozen";
    if List.sort_uniq compare l <> l then
      Alcotest.failf "view has duplicates or disorder";
    taken := (v, l) :: !taken
  done;
  Atomic.set stop true;
  List.iter Domain.join doms;
  List.iter
    (fun (v, l) ->
      if P.View.to_list v <> l then
        Alcotest.failf "view of epoch %d changed after the storm"
          (P.View.epoch v))
    !taken;
  match P.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants after storm: %s" e

let test_storm_linearization_point () =
  (* Key-partitioned storm: domain d inserts keys d, d+4, d+8, ... in
     ascending order, then deletes them in the same order.  At any
     linearization point, each domain's surviving keys form a contiguous
     window [next_delete, next_insert) of its sequence — so every
     snapshot must show exactly such a window per domain.  A torn (non
     linearizable) view would show a gap. *)
  let nd = 4 in
  let per = 2000 in
  let t = P.create ~universe:(nd * per) () in
  let doms =
    List.init nd (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              assert (P.insert t ((i * nd) + d))
            done;
            for i = 0 to per - 1 do
              assert (P.delete t ((i * nd) + d))
            done))
  in
  for _ = 1 to 50 do
    let v = P.snapshot t in
    let by_dom = Array.make nd [] in
    P.View.fold v ~init:() ~f:(fun () k ->
        by_dom.(k mod nd) <- (k / nd) :: by_dom.(k mod nd));
    Array.iteri
      (fun d idxs ->
        match List.rev idxs with
        | [] -> ()
        | first :: _ as l ->
            List.iteri
              (fun j i ->
                if i <> first + j then
                  Alcotest.failf
                    "domain %d window torn: saw index %d expecting %d" d i
                    (first + j))
              l)
      by_dom
  done;
  List.iter Domain.join doms;
  let v = P.snapshot t in
  Alcotest.(check int) "all deleted at the end" 0 (P.View.size v)

let test_storm_scan_checker () =
  (* The acceptance assert, stated through the extended linearizability
     checker: a snapshot taken during an insert/delete/replace storm
     records the frozen view's whole key set ([Keys] bitmask), and the
     checker must find a single linearization point reproducing it
     among the concurrent mutations.  Two mutator domains, one scanner
     domain, several rounds with different seeds. *)
  let universe = 10 in
  for round = 1 to 6 do
    let t = P.create ~universe () in
    let threads = 3 in
    let recorder = Linearize.Recorder.create ~threads in
    let mutator d =
      let rng = Rng.of_int_seed ((round * 7919) + d) in
      for _ = 1 to 14 do
        let k = Rng.int rng universe in
        match Rng.int rng 3 with
        | 0 ->
            ignore
              (Linearize.Recorder.record recorder ~thread:d
                 (Linearize.Insert k)
                 (fun () -> P.insert t k))
        | 1 ->
            ignore
              (Linearize.Recorder.record recorder ~thread:d
                 (Linearize.Delete k)
                 (fun () -> P.delete t k))
        | _ ->
            let add = Rng.int rng universe in
            ignore
              (Linearize.Recorder.record recorder ~thread:d
                 (Linearize.Replace (k, add))
                 (fun () -> P.replace t ~remove:k ~add))
      done
    in
    let scanner () =
      for _ = 1 to 8 do
        ignore
          (Linearize.Recorder.record_scan recorder ~thread:2 ~lo:0
             ~hi:(universe - 1)
             (fun () ->
               let v = P.snapshot t in
               P.View.fold v ~init:0 ~f:(fun acc k -> acc lor (1 lsl k)))
            : int)
      done
    in
    let doms =
      [
        Domain.spawn (fun () -> mutator 0);
        Domain.spawn (fun () -> mutator 1);
        Domain.spawn scanner;
      ]
    in
    List.iter Domain.join doms;
    let history = Linearize.Recorder.history recorder in
    if not (Linearize.check history) then
      Alcotest.failf
        "round %d: snapshot under storm is not a linearization point (%d-op \
         history rejected)"
        round (Array.length history)
  done

let test_concurrent_snapshots () =
  (* Many domains snapshotting the same trie while one mutates: every
     snapshot call must return a stable view, and epochs observed by any
     single domain must be strictly increasing. *)
  let t = P.create ~universe:1024 () in
  for i = 0 to 511 do
    assert (P.insert t i)
  done;
  let stop = Atomic.make false in
  let mutator =
    Domain.spawn (fun () ->
        let st = Random.State.make [| 99 |] in
        while not (Atomic.get stop) do
          let k = Random.State.int st 1024 in
          if Random.State.bool st then ignore (P.insert t k)
          else ignore (P.delete t k)
        done)
  in
  let snappers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let last = ref (-1) in
            for _ = 1 to 100 do
              let v = P.snapshot t in
              if P.View.epoch v <= !last then failwith "epoch regressed";
              last := P.View.epoch v;
              let l = P.View.to_list v in
              if List.sort_uniq compare l <> l then failwith "unstable view"
            done))
  in
  List.iter Domain.join snappers;
  Atomic.set stop true;
  Domain.join mutator;
  match P.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_vlk_frozen () =
  let t = V.create () in
  let keys = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ] in
  List.iter (fun k -> assert (V.insert t k)) keys;
  let v = V.snapshot t in
  Alcotest.(check int) "epoch" 0 (V.View.epoch v);
  Alcotest.(check int) "size" 5 (V.View.size v);
  assert (V.delete t "beta");
  assert (V.insert t "zeta");
  assert (V.replace t ~remove:"gamma" ~add:"eta");
  Alcotest.(check bool) "view still has beta" true
    (SS.mem "beta" (SS.of_list (V.View.to_list v)));
  Alcotest.(check int) "view unmoved" 5 (V.View.size v);
  let v2 = V.snapshot t in
  Alcotest.(check int) "epoch bumped" 1 (V.View.epoch v2);
  Alcotest.(check bool) "new view reflects mutations" true
    (SS.equal
       (SS.of_list (V.View.to_list v2))
       (SS.of_list [ "alpha"; "delta"; "epsilon"; "zeta"; "eta" ]));
  (* A deeper trie, with a fresh snapshot before each update so that its
     whole path is stale and renewed in one descent. *)
  let key i = Printf.sprintf "key-%03d" i in
  for i = 0 to 199 do
    assert (V.insert t (key (2 * i)))
  done;
  let views =
    List.map
      (fun (name, op) ->
        let v = V.snapshot t in
        let frozen = V.View.to_list v in
        Alcotest.(check bool) name true (op ());
        (name, v, frozen))
      [
        ("insert", fun () -> V.insert t (key 201));
        ("delete", fun () -> V.delete t (key 100));
        ("replace", fun () -> V.replace t ~remove:(key 300) ~add:(key 3));
      ]
  in
  List.iter
    (fun (name, v, frozen) ->
      Alcotest.(check (list string)) ("view before " ^ name) frozen
        (V.View.to_list v))
    views;
  Alcotest.(check bool) "updates applied" true
    (V.member t (key 201) && V.member t (key 3)
    && (not (V.member t (key 100)))
    && not (V.member t (key 300)));
  match V.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_vlk_storm () =
  let t = V.create () in
  let stop = Atomic.make false in
  let doms =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let st = Random.State.make [| d + 11 |] in
            while not (Atomic.get stop) do
              let k = Printf.sprintf "key-%d" (Random.State.int st 500) in
              match Random.State.int st 3 with
              | 0 -> ignore (V.insert t k)
              | 1 -> ignore (V.delete t k)
              | _ ->
                  ignore
                    (V.replace t ~remove:k
                       ~add:(Printf.sprintf "key-%d" (Random.State.int st 500)))
            done))
  in
  let last = ref (-1) in
  let taken = ref [] in
  for _ = 1 to 60 do
    let v = V.snapshot t in
    if V.View.epoch v <= !last then Alcotest.failf "epoch regressed";
    last := V.View.epoch v;
    let l = V.View.to_list v in
    if V.View.to_list v <> l then Alcotest.failf "view not frozen";
    if List.length (List.sort_uniq compare l) <> List.length l then
      Alcotest.failf "view has duplicates";
    taken := (v, l) :: !taken
  done;
  Atomic.set stop true;
  List.iter Domain.join doms;
  List.iter
    (fun (v, l) ->
      if V.View.to_list v <> l then
        Alcotest.failf "view of epoch %d changed after the storm"
          (V.View.epoch v))
    !taken;
  match V.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants after storm: %s" e

let () =
  Tutil.time_limit 300;
  Alcotest.run "snapshot"
    [
      ( "views",
        [
          Alcotest.test_case "empty snapshot" `Quick test_empty_snapshot;
          Alcotest.test_case "frozen under mutation" `Quick
            test_frozen_under_mutation;
          Alcotest.test_case "traversals agree" `Quick
            test_view_traversals_agree;
          Alcotest.test_case "interleaved exactness" `Quick
            test_interleaved_exactness;
          Alcotest.test_case "abandoned flag aborts across snapshot" `Quick
            test_abandoned_flag_cannot_commit_across_snapshot;
          Alcotest.test_case "root flag helped to commit" `Quick
            test_root_flag_helped_to_commit_by_snapshot;
          Alcotest.test_case "stale path renewed in one attempt" `Quick
            test_renewal_continues;
          Alcotest.test_case "a renewal flags only the run's parent" `Quick
            test_renewal_flags_parent;
        ] );
      ( "storms",
        [
          Alcotest.test_case "stability" `Slow test_storm_stability;
          Alcotest.test_case "storm scans pass the checker" `Slow
            test_storm_scan_checker;
          Alcotest.test_case "linearization point" `Slow
            test_storm_linearization_point;
          Alcotest.test_case "concurrent snapshots" `Slow
            test_concurrent_snapshots;
        ] );
      ( "vlk",
        [
          Alcotest.test_case "frozen views" `Quick test_vlk_frozen;
          Alcotest.test_case "storm stability" `Slow test_vlk_storm;
        ] );
    ]
