(* Single-threaded tests for the concurrent Patricia trie: sequential
   specification, structural invariants, edge cases, and deterministic
   exercises of the helping machinery through the For_testing interface. *)

module IS = Set.Make (Int)
module P = Core.Patricia
module PS = Core.Patricia_seq

let test_empty () =
  let t = P.create ~universe:100 () in
  Alcotest.(check int) "size" 0 (P.size t);
  Alcotest.(check (list int)) "to_list" [] (P.to_list t);
  Alcotest.(check bool) "member" false (P.member t 42);
  Alcotest.(check bool) "delete on empty" false (P.delete t 42);
  Alcotest.(check bool) "replace on empty" false (P.replace t ~remove:1 ~add:2)

let test_insert_delete_basic () =
  let t = P.create ~universe:100 () in
  Alcotest.(check bool) "insert new" true (P.insert t 5);
  Alcotest.(check bool) "insert dup" false (P.insert t 5);
  Alcotest.(check bool) "member" true (P.member t 5);
  Alcotest.(check bool) "other absent" false (P.member t 4);
  Alcotest.(check bool) "delete" true (P.delete t 5);
  Alcotest.(check bool) "delete again" false (P.delete t 5)

let test_universe_edges () =
  let t = P.create ~universe:10 () in
  Alcotest.(check bool) "key 0" true (P.insert t 0);
  Alcotest.(check bool) "key 9" true (P.insert t 9);
  Alcotest.check_raises "key -1" (Invalid_argument "Patricia: key out of the universe")
    (fun () -> ignore (P.insert t (-1)));
  Alcotest.check_raises "key 10" (Invalid_argument "Patricia: key out of the universe")
    (fun () -> ignore (P.member t 10))

let test_bad_universe () =
  Alcotest.check_raises "universe 0"
    (Invalid_argument "Patricia.create: universe must be >= 1") (fun () ->
      ignore (P.create ~universe:0 ()));
  Alcotest.check_raises "width 1"
    (Invalid_argument "Patricia.create_width: width must be in [2, 62]")
    (fun () -> ignore (P.create_width ~width:1 ()));
  Alcotest.check_raises "width 63"
    (Invalid_argument "Patricia.create_width: width must be in [2, 62]")
    (fun () -> ignore (P.create_width ~width:63 ()))

let test_create_width_raw_keys () =
  let t = P.create_width ~width:10 () in
  Alcotest.(check bool) "min raw key" true (P.insert t 1);
  Alcotest.(check bool) "max raw key" true (P.insert t 1022);
  Alcotest.check_raises "sentinel low" (Invalid_argument "Patricia: key out of the universe")
    (fun () -> ignore (P.insert t 0));
  Alcotest.check_raises "sentinel high" (Invalid_argument "Patricia: key out of the universe")
    (fun () -> ignore (P.insert t 1023))

(* The extremes of [create_width]: at width 2 every label is the root
   or one bit long, and at width 62 the root's span is every int from 0
   to max_int, where twice the root's marker bit would overflow.  Keys
   1, the middle and 2^w - 2 go through inserts, replaces and deletes,
   each checked against the sequential trie; after every step
   [fold_range] and a frozen view's [View.fold_range] must agree with
   its key list over every range with ends at, next to or beyond those
   keys. *)
let test_extreme_widths () =
  List.iter
    (fun width ->
      let top = (1 lsl width) - 2 in
      let mid = (top / 2) + 1 in
      let keys = List.sort_uniq compare [ 1; mid; top ] in
      let ends =
        List.sort_uniq compare [ 0; 1; 2; mid - 1; mid; mid + 1; top - 1; top; top + 1 ]
      in
      let t = P.create_width ~width () and s = PS.create_width ~width () in
      let step name p q =
        let ctx = Printf.sprintf "width %d: %s" width name in
        Alcotest.(check bool) ctx (q ()) (p ());
        let expect = PS.to_list s in
        Alcotest.(check (list int)) (ctx ^ ": keys") expect (P.to_list t);
        (match P.check_invariants t with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" ctx e);
        let v = P.snapshot t in
        List.iter
          (fun lo ->
            List.iter
              (fun hi ->
                let want = List.filter (fun k -> lo <= k && k <= hi) expect in
                let got fold = List.rev (fold ~lo ~hi ~init:[] ~f:(fun acc k -> k :: acc)) in
                Alcotest.(check (list int))
                  (Printf.sprintf "%s: fold_range %d %d" ctx lo hi)
                  want (got (P.fold_range t));
                Alcotest.(check (list int))
                  (Printf.sprintf "%s: View.fold_range %d %d" ctx lo hi)
                  want (got (P.View.fold_range v)))
              ends)
          ends
      in
      let each f = List.iter f keys in
      let pairs f = each (fun a -> each (fun b -> f a b)) in
      let replace a b =
        step
          (Printf.sprintf "replace %d %d" a b)
          (fun () -> P.replace t ~remove:a ~add:b)
          (fun () -> PS.replace s ~remove:a ~add:b)
      in
      each (fun k ->
          step (Printf.sprintf "insert %d" k)
            (fun () -> P.insert t k)
            (fun () -> PS.insert s k));
      pairs replace;
      step (Printf.sprintf "delete %d" mid)
        (fun () -> P.delete t mid)
        (fun () -> PS.delete s mid);
      pairs replace;
      each (fun k ->
          step (Printf.sprintf "delete %d" k)
            (fun () -> P.delete t k)
            (fun () -> PS.delete s k)))
    [ 2; 62 ]

let test_fill_drain () =
  let t = P.create ~universe:1024 () in
  for k = 0 to 1023 do
    if not (P.insert t k) then Alcotest.failf "insert %d" k
  done;
  Alcotest.(check int) "full" 1024 (P.size t);
  (match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  for k = 0 to 1023 do
    if not (P.member t k) then Alcotest.failf "member %d" k
  done;
  for k = 1023 downto 0 do
    if not (P.delete t k) then Alcotest.failf "delete %d" k
  done;
  Alcotest.(check int) "drained" 0 (P.size t);
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_replace_cases () =
  (* Drive replace through its general case and every special case of
     Figure 6 by controlling the trie shape with known keys. *)
  let t = P.create ~universe:256 () in
  ignore (P.insert t 0b0000);
  ignore (P.insert t 0b0001);
  ignore (P.insert t 0b1000);
  (* Case noded = nodei: replace a key by one landing on the same leaf
     slot is impossible for distinct keys, but replacing a leaf whose
     search for the new key ends at the same leaf exercises case 1:
     remove 0b1000, add 0b1001 — search(0b1001) ends at leaf 0b1000. *)
  Alcotest.(check bool) "special case 1" true
    (P.replace t ~remove:0b1000 ~add:0b1001);
  Alcotest.(check bool) "c1 source gone" false (P.member t 0b1000);
  Alcotest.(check bool) "c1 target in" true (P.member t 0b1001);
  (* General case: far-apart keys. *)
  Alcotest.(check bool) "general case" true (P.replace t ~remove:0b0000 ~add:0b11110000);
  Alcotest.(check bool) "gc source gone" false (P.member t 0b0000);
  Alcotest.(check bool) "gc target in" true (P.member t 0b11110000);
  (* Sibling-adjacent cases: remove a key and add one under its sibling
     subtree (exercises the pd = pi / nodei = pd / nodei = gpd cases). *)
  ignore (P.insert t 0b0100);
  ignore (P.insert t 0b0101);
  Alcotest.(check bool) "adjacent replace" true
    (P.replace t ~remove:0b0101 ~add:0b0110);
  Alcotest.(check bool) "adjacent replace 2" true
    (P.replace t ~remove:0b0110 ~add:0b0111);
  Alcotest.(check bool) "adjacent replace 3" true
    (P.replace t ~remove:0b0100 ~add:0b0101);
  (match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  (* Failure cases. *)
  Alcotest.(check bool) "absent source" false (P.replace t ~remove:0b0000 ~add:0b1111);
  Alcotest.(check bool) "present target" false
    (P.replace t ~remove:0b0101 ~add:0b0111);
  Alcotest.(check bool) "same key" false (P.replace t ~remove:0b0101 ~add:0b0101)

let test_replace_is_total_move () =
  let t = P.create ~universe:4096 () in
  let rng = Rng.of_int_seed 17 in
  ignore (P.insert t 0);
  let current = ref 0 in
  for _ = 1 to 2000 do
    let next = Rng.int rng 4096 in
    if next <> !current then begin
      Alcotest.(check bool) "move ok" true (P.replace t ~remove:!current ~add:next);
      current := next
    end
  done;
  Alcotest.(check int) "exactly one key" 1 (P.size t);
  Alcotest.(check (list int)) "the right key" [ !current ] (P.to_list t)

let prop_model_equivalence =
  Tutil.qtest ~count:80 "matches the sequential trie on random programs"
    QCheck2.Gen.(list_size (int_bound 400) (pair (int_bound 3) (int_bound 127)))
    (fun ops ->
      let t = P.create ~universe:128 () in
      let m = PS.create ~universe:128 () in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 -> P.insert t k = PS.insert m k
          | 1 -> P.delete t k = PS.delete m k
          | 2 -> P.member t k = PS.member m k
          | _ ->
              let k2 = (k * 31) mod 128 in
              P.replace t ~remove:k ~add:k2 = PS.replace m ~remove:k ~add:k2)
        ops
      && P.to_list t = PS.to_list m
      && P.check_invariants t = Ok ())

let prop_size_consistent =
  Tutil.qtest ~count:60 "size equals successful inserts minus deletes"
    QCheck2.Gen.(list_size (int_bound 300) (pair bool (int_bound 63)))
    (fun ops ->
      let t = P.create ~universe:64 () in
      let balance = ref 0 in
      List.iter
        (fun (ins, k) ->
          if ins then (if P.insert t k then incr balance)
          else if P.delete t k then decr balance)
        ops;
      P.size t = !balance)

let prop_no_flags_when_quiescent =
  Tutil.qtest ~count:40 "no residual flags on search paths after ops"
    QCheck2.Gen.(list_size (int_bound 200) (pair bool (int_bound 63)))
    (fun ops ->
      let t = P.create ~universe:64 () in
      List.iter
        (fun (ins, k) ->
          if ins then ignore (P.insert t k) else ignore (P.delete t k))
        ops;
      (* Deletes permanently flag removed nodes, but nodes still *in* the
         trie must be unflagged once operations complete.  Exception: the
         leaf of a general-case replace stays flagged; none occur here. *)
      List.for_all (fun k -> P.For_testing.flags_on_path t k = 0)
        (List.init 64 Fun.id))

(* ------------------------------------------------------------------ *)
(* Helping machinery (paper Section IV part 4): an update that stalls
   after flagging must be completable by anyone. *)

let test_help_completes_stalled_insert () =
  let t = P.create ~universe:64 () in
  ignore (P.insert t 10);
  match P.For_testing.prepare_insert t 33 with
  | None -> Alcotest.fail "prepare_insert unexpectedly failed"
  | Some d ->
      (* The preparing process flags and then "crashes". *)
      Alcotest.(check bool) "flagging succeeded" true (P.For_testing.flag_only d);
      Alcotest.(check bool) "33 not yet inserted" false (P.member t 33);
      Alcotest.(check bool) "path is flagged" true
        (P.For_testing.flags_on_path t 33 > 0);
      (* Any helper can finish the stalled update. *)
      Alcotest.(check bool) "help completes it" true (P.For_testing.help d);
      Alcotest.(check bool) "33 now present" true (P.member t 33);
      Alcotest.(check int) "flags cleaned" 0 (P.For_testing.flags_on_path t 33);
      match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_other_ops_help_stalled_insert () =
  let t = P.create ~universe:64 () in
  ignore (P.insert t 10);
  match P.For_testing.prepare_insert t 11 with
  | None -> Alcotest.fail "prepare_insert unexpectedly failed"
  | Some d ->
      ignore (P.For_testing.flag_only d);
      (* An insert landing on the flagged node must help the stalled
         update rather than block: afterwards *both* keys are present. *)
      Alcotest.(check bool) "conflicting insert succeeds" true (P.insert t 12);
      Alcotest.(check bool) "stalled insert completed by helper" true
        (P.member t 11);
      Alcotest.(check bool) "new insert applied" true (P.member t 12);
      match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_delete_helps_stalled_insert () =
  let t = P.create ~universe:64 () in
  ignore (P.insert t 10);
  ignore (P.insert t 20);
  match P.For_testing.prepare_insert t 21 with
  | None -> Alcotest.fail "prepare_insert unexpectedly failed"
  | Some d ->
      ignore (P.For_testing.flag_only d);
      Alcotest.(check bool) "delete through flagged region" true (P.delete t 20);
      Alcotest.(check bool) "stalled insert completed" true (P.member t 21);
      Alcotest.(check bool) "delete applied" false (P.member t 20);
      match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_double_help_is_idempotent () =
  let t = P.create ~universe:64 () in
  match P.For_testing.prepare_insert t 7 with
  | None -> Alcotest.fail "prepare_insert unexpectedly failed"
  | Some d ->
      Alcotest.(check bool) "first help" true (P.For_testing.help d);
      Alcotest.(check bool) "second help also true" true (P.For_testing.help d);
      Alcotest.(check bool) "present once" true (P.member t 7);
      Alcotest.(check int) "size 1" 1 (P.size t)

let test_stale_descriptor_fails_cleanly () =
  let t = P.create ~universe:64 () in
  match P.For_testing.prepare_insert t 7 with
  | None -> Alcotest.fail "prepare_insert unexpectedly failed"
  | Some d ->
      (* The world changes before the stalled update resumes: its flag
         CAS expects an info value that is no longer there. *)
      ignore (P.insert t 7);
      Alcotest.(check bool) "stale descriptor returns false" false
        (P.For_testing.help d);
      Alcotest.(check bool) "7 present exactly once" true (P.member t 7);
      Alcotest.(check int) "size" 1 (P.size t);
      match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

(* Stored keys 65 and 97 share the parent labelled 001 (universe 256:
   9-bit keys, offset 1); 66 splits 65's leaf and 98 splits 97's. *)
let test_no_aba ~unflagged_first () =
  let t = P.create ~universe:256 () in
  Tutil.stale_delete_after_unflag ~insert:(P.insert t) ~member:(P.member t)
    ~check:(fun () -> P.check_invariants t)
    ~prepare_delete:(P.For_testing.prepare_delete t)
    ~help:P.For_testing.help ~unflagged_first (64, 96, 65, 97)

let test_info_word_is_field_0 () =
  let t = P.create ~universe:64 () in
  Tutil.info_word_is_field_0 ~insert:(P.insert t)
    ~prepare_insert:(P.For_testing.prepare_insert t)
    ~prepare_delete:(P.For_testing.prepare_delete t)
    ~flag_only:P.For_testing.flag_only ~help:P.For_testing.help
    ~layout:(P.For_testing.layout_on_path t) (10, 11)

let test_cas_child_fields () =
  let t = P.create ~universe:64 () in
  Tutil.cas_child_fields ~insert:(P.insert t)
    ~layout:(P.For_testing.layout_on_path t)
    ~cas_child:P.For_testing.cas_child
    ~check:(fun () -> P.check_invariants t)
    (10, 11)

(* Stored keys are one more than the user keys, 9 bits at universe
   256: 8 and 9 share the parent 0000010 and 200 and 201 the parent
   0110010; 12 (000001101) leaves the first at its seventh bit and 150
   (010010111) the second at its third. *)
let test_dead_marks () =
  Tutil.dead_marks ~is_dead:P.For_testing.is_dead
    ~fresh:(fun () ->
      let t = P.create ~universe:256 () in
      {
        Tutil.m_insert = P.insert t;
        m_delete = P.delete t;
        m_replace = (fun remove add -> P.replace t ~remove ~add);
        m_snapshot =
          (fun () ->
            let w = P.snapshot t in
            (P.For_testing.view_flags_on_path w, fun () -> P.View.size w));
        m_layout = P.For_testing.layout_on_path t;
        m_prepare_delete =
          (fun k ->
            Option.map
              (fun d () -> P.For_testing.help d)
              (P.For_testing.prepare_delete t k));
        m_check = (fun () -> P.check_invariants t);
      })
    (8, 9, 200, 201, 12, 150)

let test_help_completes_stalled_delete () =
  let t = P.create ~universe:64 () in
  ignore (P.insert t 8);
  ignore (P.insert t 9);
  match P.For_testing.prepare_delete t 8 with
  | None -> Alcotest.fail "prepare_delete unexpectedly failed"
  | Some d ->
      Alcotest.(check bool) "flagging succeeded" true (P.For_testing.flag_only d);
      Alcotest.(check bool) "8 still present (logical view)" true (P.member t 8);
      Alcotest.(check bool) "help completes it" true (P.For_testing.help d);
      Alcotest.(check bool) "8 deleted" false (P.member t 8);
      Alcotest.(check bool) "9 untouched" true (P.member t 9);
      match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_backtrack_on_flag_conflict () =
  (* Two descriptors with overlapping footprints: 8 and 9 share a parent
     P; the stalled insert of 10 flags exactly P, while the delete of 8
     flags (gp, P) in label order.  Applying the delete must flag gp,
     fail on P, and *backtrack* — unflagging gp and returning false with
     the trie unchanged (paper lines 103-106). *)
  let t = P.create ~universe:64 () in
  ignore (P.insert t 8);
  ignore (P.insert t 9);
  let d_delete =
    match P.For_testing.prepare_delete t 8 with
    | Some d -> d
    | None -> Alcotest.fail "prepare_delete failed"
  in
  let d_insert =
    match P.For_testing.prepare_insert t 10 with
    | Some d -> d
    | None -> Alcotest.fail "prepare_insert failed"
  in
  (* The insert's flag goes in first and stalls. *)
  Alcotest.(check bool) "insert flags P" true (P.For_testing.flag_only d_insert);
  (* The delete now cannot complete: it must back its gp flag out. *)
  Alcotest.(check bool) "delete backtracks" false (P.For_testing.help d_delete);
  Alcotest.(check bool) "8 still present" true (P.member t 8);
  Alcotest.(check bool) "9 still present" true (P.member t 9);
  (* Only the stalled insert's flag remains on the path. *)
  Alcotest.(check int) "one residual flag" 1 (P.For_testing.flags_on_path t 8);
  (* Completing the stalled insert clears the last flag. *)
  Alcotest.(check bool) "insert completes" true (P.For_testing.help d_insert);
  Alcotest.(check bool) "10 present" true (P.member t 10);
  Alcotest.(check int) "no flags left" 0 (P.For_testing.flags_on_path t 8);
  (* And the aborted delete can be redone normally. *)
  Alcotest.(check bool) "delete succeeds now" true (P.delete t 8);
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_stale_delete_descriptor () =
  let t = P.create ~universe:64 () in
  ignore (P.insert t 8);
  ignore (P.insert t 9);
  match P.For_testing.prepare_delete t 8 with
  | None -> Alcotest.fail "prepare_delete failed"
  | Some d ->
      (* The world moves on before the stalled delete resumes. *)
      ignore (P.insert t 10);
      Alcotest.(check bool) "stale delete fails" false (P.For_testing.help d);
      Alcotest.(check bool) "8 still present" true (P.member t 8);
      Alcotest.(check int) "three keys" 3 (P.size t);
      match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_stats_recording () =
  let t = P.create ~universe:64 ~record_stats:true () in
  for k = 0 to 63 do
    ignore (P.insert t k)
  done;
  match P.stats_snapshot t with
  | None -> Alcotest.fail "stats expected"
  | Some snap ->
      Alcotest.(check bool)
        "attempts counted" true
        (snap.P.attempts >= 64);
      (* Single-threaded: nobody to help or be helped by. *)
      Alcotest.(check int) "no helps given" 0 snap.P.helps_given;
      Alcotest.(check int) "no helps received" 0 snap.P.helps_received;
      Alcotest.(check int) "no backtracks" 0 snap.P.backtracks;
      let alist = P.stats_to_alist snap in
      Alcotest.(check (list string))
        "alist field order"
        [
          "attempts";
          "helps_given";
          "helps_received";
          "flag_failures";
          "flagged_ancestor";
          "conflicts";
          "child_cas_lost";
          "backtracks";
          "descriptors_run";
          "backoff_waits";
          "descent_nodes_find";
          "descent_nodes_insert";
          "descent_nodes_delete";
          "descent_nodes_replace";
          "descent_searches";
          "renewals";
          "renew_paths";
        ]
        (List.map fst alist);
      Alcotest.(check int)
        "alist attempts matches" snap.P.attempts
        (List.assoc "attempts" alist)

let test_no_stats_by_default () =
  let t = P.create ~universe:64 () in
  Alcotest.(check bool) "no stats" true (P.stats_snapshot t = None)

(* Minor words allocated per [member] on a half-full trie over
   [universe] keys, one domain, stats off. *)
let member_words ~universe =
  let t = P.create ~universe () in
  let rng = Rng.of_int_seed 2013 in
  let n = ref 0 in
  while !n < universe / 2 do
    if P.insert t (Rng.int rng universe) then incr n
  done;
  let probes = Array.init 1024 (fun _ -> Rng.int rng universe) in
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    for i = 0 to 1023 do
      ignore (P.member t probes.(i))
    done
  done;
  (Gc.minor_words () -. before) /. float_of_int (rounds * 1024)

(* A search allocates its result once, not once per level: a lookup
   about 16 levels deep (2^16 keys) costs what one about 4 levels deep
   (2^4) costs, within 2 words. *)
let test_member_allocation_flat () =
  let small = member_words ~universe:16
  and big = member_words ~universe:65536 in
  Alcotest.(check bool)
    (Printf.sprintf "2^16: %.1f words/member <= 2^4: %.1f + 2" big small)
    true
    (big <= small +. 2.)

(* Words promoted to the major heap per successful update over 20 000
   [pair]s on a 4 096-key PAT holding 2 048 random keys, one domain.
   [pair t a b] gets a present key [a] and an absent one [b] and
   returns how many of its updates succeeded.  A minor collection
   before the loop promotes the prefill, so what the loop leaves
   promoted is what outlives it: the nodes it links in, and whatever a
   node it removes still points at when the next minor collection
   runs. *)
let promoted_per_update pair =
  let universe = 4096 in
  let t = P.create ~universe () in
  let rng = Rng.of_int_seed 2013 in
  let keys = Array.init universe Fun.id in
  for i = universe - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- x
  done;
  let half = universe / 2 in
  for i = 0 to half - 1 do
    ignore (P.insert t keys.(i) : bool)
  done;
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words and ok = ref 0 in
  for _ = 1 to 20_000 do
    let a = keys.(Rng.int rng half) and b = keys.(half + Rng.int rng half) in
    ok := !ok + pair t a b
  done;
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int !ok

(* A node an update removes reads the immediate removed mark once the
   update is done, not its descriptor, so the descriptor dies in the
   minor heap even when the removed node lives in the major one.  With
   the descriptor kept on the removed node (the paper's marking),
   delete + insert promoted about 16 words per update and a pair of
   replaces about 55. *)
let test_descriptors_die_young () =
  let bool = Bool.to_int in
  let churn =
    promoted_per_update (fun t a _ ->
        let d = P.delete t a in
        let i = P.insert t a in
        bool d + bool i)
  and swap =
    promoted_per_update (fun t a b ->
        let there = P.replace t ~remove:a ~add:b in
        let back = P.replace t ~remove:b ~add:a in
        bool there + bool back)
  in
  Alcotest.(check bool)
    (Printf.sprintf "delete + insert: %.1f promoted words/update <= 8" churn)
    true (churn <= 8.);
  Alcotest.(check bool)
    (Printf.sprintf "replace pairs: %.1f promoted words/update <= 12" swap)
    true (swap <= 12.)

(* The level-cache cases of Tutil over raw 7-bit keys. *)
let cached () =
  let t = P.create_width ~width:7 ~record_stats:true () in
  {
    Tutil.c_label = "PAT";
    c_insert = P.insert t;
    c_delete = P.delete t;
    c_member = P.member t;
    c_replace = P.replace t;
    c_keys = (fun () -> P.to_list t);
    c_snapshot =
      (fun () ->
        let v = P.snapshot t in
        fun () -> P.View.to_list v);
    c_cache_bits = P.For_testing.set_cache_bits t;
    c_descent =
      (fun () ->
        match P.stats_snapshot t with
        | Some s ->
            s.P.descent_nodes_find + s.P.descent_nodes_insert
            + s.P.descent_nodes_delete + s.P.descent_nodes_replace
        | None -> 0);
    c_check = (fun () -> P.check_invariants t);
  }

(* An ascending build, as a recovery makes, visits each slot of the
   level cache once and in turn.  Sampling by descent count still
   judges its array, so the array grows past the 64 slots it starts
   at. *)
let test_cache_grows_ascending () =
  let t = P.create ~universe:65536 () in
  for i = 0 to 32767 do
    ignore (P.insert t (2 * i) : bool)
  done;
  let bits = P.For_testing.cache_bits t in
  Alcotest.(check bool)
    (Printf.sprintf "2^%d slots after 32768 ascending inserts > 2^6" bits)
    true (bits > 6)

let () =
  Tutil.time_limit 300;
  Alcotest.run "patricia"
    [
      ( "sequential",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/delete" `Quick test_insert_delete_basic;
          Alcotest.test_case "universe edges" `Quick test_universe_edges;
          Alcotest.test_case "bad parameters" `Quick test_bad_universe;
          Alcotest.test_case "raw width keys" `Quick test_create_width_raw_keys;
          Alcotest.test_case "widths 2 and 62 against the model" `Quick
            test_extreme_widths;
          Alcotest.test_case "fill then drain" `Quick test_fill_drain;
          Alcotest.test_case "replace cases" `Quick test_replace_cases;
          Alcotest.test_case "replace chain keeps one key" `Quick
            test_replace_is_total_move;
        ] );
      ( "properties",
        [ prop_model_equivalence; prop_size_consistent; prop_no_flags_when_quiescent ]
      );
      ( "helping",
        [
          Alcotest.test_case "help completes stalled insert" `Quick
            test_help_completes_stalled_insert;
          Alcotest.test_case "ops help stalled insert" `Quick
            test_other_ops_help_stalled_insert;
          Alcotest.test_case "delete helps stalled insert" `Quick
            test_delete_helps_stalled_insert;
          Alcotest.test_case "double help idempotent" `Quick
            test_double_help_is_idempotent;
          Alcotest.test_case "stale descriptor fails cleanly" `Quick
            test_stale_descriptor_fails_cleanly;
          Alcotest.test_case "help completes stalled delete" `Quick
            test_help_completes_stalled_delete;
          Alcotest.test_case "backtrack on flag conflict" `Quick
            test_backtrack_on_flag_conflict;
          Alcotest.test_case "stale delete fails cleanly" `Quick
            test_stale_delete_descriptor;
          Alcotest.test_case "no ABA: Clean is never written back" `Quick
            (test_no_aba ~unflagged_first:false);
          Alcotest.test_case "no ABA: fresh Unflags are distinct" `Quick
            (test_no_aba ~unflagged_first:true);
          Alcotest.test_case "info word is field 0" `Quick
            test_info_word_is_field_0;
          Alcotest.test_case "child CAS writes its bit's field" `Quick
            test_cas_child_fields;
          Alcotest.test_case "removed nodes hold Dead, not a descriptor" `Quick
            test_dead_marks;
        ] );
      ( "stats",
        [
          Alcotest.test_case "recording" `Quick test_stats_recording;
          Alcotest.test_case "off by default" `Quick test_no_stats_by_default;
          Alcotest.test_case "member allocation independent of depth" `Quick
            test_member_allocation_flat;
          Alcotest.test_case "descriptors die young" `Quick
            test_descriptors_die_young;
        ] );
      ( "cache",
        Tutil.cache_cases cached
        @ [
            Alcotest.test_case "cache: grows on an ascending build" `Quick
              test_cache_grows_ascending;
          ] );
    ]
