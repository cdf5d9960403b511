(* The child CAS under GC pressure.  A trie's child fields are plain
   record fields written by a C stub over the runtime's field CAS, which
   must run the write barrier: a young node stored into a promoted
   parent is otherwise invisible to the minor GC, and the next minor
   collection leaves the parent pointing into freed space.  With a tiny
   minor heap almost every parent on a path is promoted while almost
   every node an update links in is young, so a missing barrier fails
   here, as a crash or a broken trie.  It runs in an executable of its
   own so that a crash is reported against this case alone. *)

module P = Core.Patricia

let universe = 8192
let prefill = 4096
let rounds = 20
let ops_per_domain = 50_000

let test_child_cas_under_gc_pressure () =
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with minor_heap_size = 4096 };
      let t = P.create ~universe () in
      let rng = Rng.of_int_seed 2013 in
      let n = ref 0 in
      while !n < prefill do
        if P.insert t (Rng.int rng universe) then incr n
      done;
      let expected = ref prefill in
      for round = 1 to rounds do
        (* Each domain returns its acked inserts minus acked deletes; an
           acked replace moves one key and leaves the size as it was. *)
        let deltas =
          Tutil.join_all
            (Tutil.spawn_n 2 (fun d ->
                 let rng = Rng.of_int_seed ((round * 2) + d) in
                 let delta = ref 0 in
                 for _ = 1 to ops_per_domain do
                   let k = Rng.int rng universe in
                   match Rng.int rng 3 with
                   | 0 -> if P.insert t k then incr delta
                   | 1 -> if P.delete t k then decr delta
                   | _ ->
                       ignore
                         (P.replace t ~remove:k ~add:(Rng.int rng universe))
                 done;
                 !delta))
        in
        ignore (Gc.major_slice 0);
        expected := List.fold_left ( + ) !expected deltas;
        (match P.check_invariants t with
        | Ok () -> ()
        | Error e -> Alcotest.failf "round %d: %s" round e);
        Alcotest.(check int)
          (Printf.sprintf "round %d: size" round)
          !expected (P.size t)
      done)

let () =
  Tutil.time_limit 300;
  Alcotest.run "write_barrier"
    [
      ( "gc",
        [
          Alcotest.test_case "child CAS under GC pressure" `Quick
            test_child_cas_under_gc_pressure;
        ] );
    ]
