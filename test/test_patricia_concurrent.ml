(* Multi-domain tests for the concurrent Patricia trie: deterministic
   disjoint workloads, contended stress with invariant audits, progress
   past a stalled update, and linearizability of recorded histories. *)

module P = Core.Patricia

let n_domains = 4

let test_disjoint_inserts () =
  let per = 2000 in
  let t = P.create ~universe:(n_domains * per) () in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         for i = d * per to ((d + 1) * per) - 1 do
           if not (P.insert t i) then Alcotest.failf "insert %d failed" i
         done))
  |> ignore;
  Alcotest.(check int) "all present" (n_domains * per) (P.size t);
  for i = 0 to (n_domains * per) - 1 do
    if not (P.member t i) then Alcotest.failf "missing %d" i
  done;
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_disjoint_deletes () =
  let per = 2000 in
  let t = P.create ~universe:(n_domains * per) () in
  for i = 0 to (n_domains * per) - 1 do
    ignore (P.insert t i)
  done;
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         for i = d * per to ((d + 1) * per) - 1 do
           if not (P.delete t i) then Alcotest.failf "delete %d failed" i
         done))
  |> ignore;
  Alcotest.(check int) "all gone" 0 (P.size t);
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_same_key_insert_once () =
  (* All domains race to insert the same keys; for each key exactly one
     insert may report success. *)
  let universe = 64 in
  let t = P.create ~universe () in
  let wins = Array.init universe (fun _ -> Atomic.make 0) in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun _ ->
         for k = 0 to universe - 1 do
           if P.insert t k then Atomic.incr wins.(k)
         done))
  |> ignore;
  Array.iteri
    (fun k w ->
      if Atomic.get w <> 1 then
        Alcotest.failf "key %d inserted successfully %d times" k (Atomic.get w))
    wins;
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_insert_delete_counting () =
  (* Successful inserts minus successful deletes must equal the final
     size — a global atomicity audit under contention. *)
  let universe = 128 in
  let t = P.create ~universe () in
  let balance = Atomic.make 0 in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         let rng = Rng.of_int_seed (500 + d) in
         for _ = 1 to 30_000 do
           let k = Rng.int rng universe in
           if Rng.bool rng then begin
             if P.insert t k then Atomic.incr balance
           end
           else if P.delete t k then Atomic.decr balance
         done))
  |> ignore;
  Alcotest.(check int) "balance equals size" (Atomic.get balance) (P.size t);
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_contended_mixed_stress () =
  let universe = 100 in
  let t = P.create ~universe () in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         let rng = Rng.of_int_seed (900 + d) in
         for _ = 1 to 50_000 do
           let k = Rng.int rng universe in
           match Rng.int rng 4 with
           | 0 -> ignore (P.insert t k)
           | 1 -> ignore (P.delete t k)
           | 2 -> ignore (P.member t k)
           | _ -> ignore (P.replace t ~remove:k ~add:(Rng.int rng universe))
         done))
  |> ignore;
  (match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  (* Contents must be internally consistent. *)
  let l = P.to_list t in
  Alcotest.(check int) "size matches listing" (List.length l) (P.size t);
  List.iter (fun k -> if not (P.member t k) then Alcotest.failf "listed %d absent" k) l

let test_progress_past_stalled_update () =
  (* A "process" flags nodes and dies; every other operation must keep
     completing (the non-blocking property, Section IV part 4). *)
  let t = P.create ~universe:64 () in
  ignore (P.insert t 10);
  (match P.For_testing.prepare_insert t 11 with
  | None -> Alcotest.fail "prepare_insert failed"
  | Some d -> ignore (P.For_testing.flag_only d));
  (* Concurrent traffic over the whole trie, including the flagged area. *)
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         let rng = Rng.of_int_seed (1300 + d) in
         for _ = 1 to 10_000 do
           let k = Rng.int rng 64 in
           match Rng.int rng 3 with
           | 0 -> ignore (P.insert t k)
           | 1 -> ignore (P.delete t k)
           | _ -> ignore (P.member t k)
         done))
  |> ignore;
  (* The stalled insert was completed by some helper. *)
  (match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no leftover flags" true
    (List.for_all (fun k -> P.For_testing.flags_on_path t k = 0) (List.init 64 Fun.id))

let test_wait_free_members_during_updates () =
  (* Readers run a fixed number of members while writers churn; the test
     passing at all (no hangs) plus result sanity is the point. *)
  let universe = 256 in
  let t = P.create ~universe () in
  for k = 0 to universe - 1 do
    if k mod 2 = 0 then ignore (P.insert t k)
  done;
  let stop = Atomic.make false in
  let writers =
    Tutil.spawn_n 2 (fun d ->
        let rng = Rng.of_int_seed (1700 + d) in
        while not (Atomic.get stop) do
          let k = Rng.int rng universe in
          if Rng.bool rng then ignore (P.insert t k) else ignore (P.delete t k)
        done)
  in
  let readers =
    Tutil.spawn_n 2 (fun d ->
        let rng = Rng.of_int_seed (1800 + d) in
        for _ = 1 to 200_000 do
          ignore (P.member t (Rng.int rng universe))
        done)
  in
  Tutil.join_all readers |> ignore;
  Atomic.set stop true;
  Tutil.join_all writers |> ignore;
  match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_helping_occurs_under_contention () =
  (* Count entries to the internal help routine during a contended run:
     with all domains hammering four keys, operations must sometimes run
     descriptors (their own and each other's). *)
  let t = P.create ~universe:4 ~record_stats:true () in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         let rng = Rng.of_int_seed (2500 + d) in
         for _ = 1 to 20_000 do
           let k = Rng.int rng 4 in
           if Rng.bool rng then ignore (P.insert t k)
           else ignore (P.delete t k)
         done))
  |> ignore;
  (match P.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  let s = Option.get (P.stats_snapshot t) in
  Alcotest.(check bool) "help ran" true (s.P.descriptors_run > 0)

let test_linearizable_histories () =
  (* Many small recorded histories, checked exhaustively. *)
  for round = 0 to 19 do
    Tutil.linearizable_run ~threads:3 ~ops_per_thread:12 ~universe:8
      ~seed:(round * 97) ~with_replace:true (fun ~universe () ->
        Tutil.pat_ops ~universe ())
  done

let test_linearizable_high_contention () =
  for round = 0 to 9 do
    Tutil.linearizable_run ~threads:4 ~ops_per_thread:10 ~universe:2
      ~seed:(round * 131) ~with_replace:true (fun ~universe () ->
        Tutil.pat_ops ~universe ())
  done

let () =
  Alcotest.run "patricia_concurrent"
    [
      ( "determinism",
        [
          Alcotest.test_case "disjoint inserts" `Quick test_disjoint_inserts;
          Alcotest.test_case "disjoint deletes" `Quick test_disjoint_deletes;
          Alcotest.test_case "same-key single winner" `Quick test_same_key_insert_once;
          Alcotest.test_case "insert/delete counting" `Quick
            test_insert_delete_counting;
        ] );
      ( "stress",
        [
          Alcotest.test_case "contended mixed ops" `Slow test_contended_mixed_stress;
          Alcotest.test_case "progress past stalled update" `Quick
            test_progress_past_stalled_update;
          Alcotest.test_case "reads during updates" `Slow
            test_wait_free_members_during_updates;
          Alcotest.test_case "helping occurs under contention" `Quick
            test_helping_occurs_under_contention;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "mixed histories" `Slow test_linearizable_histories;
          Alcotest.test_case "high contention histories" `Slow
            test_linearizable_high_contention;
        ] );
    ]
