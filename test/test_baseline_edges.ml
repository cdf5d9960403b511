(* Structure-specific edge cases for the five comparison structures:
   behaviours at the seams of each algorithm (sprouting and pruning in
   the k-ary tree, tomb compression in the Ctrie, tower/index behaviour
   in the skip list, rotations and routing nodes in the AVL tree, and
   sentinel handling in the BST). *)

module IS = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* 4-ST: sprouting and pruning *)

let test_kary_sprout_boundary () =
  (* k-1 = 3 keys fit in one leaf; the 4th forces a sprout.  All four
     must remain reachable, and the internal node must route properly. *)
  let t = Kary.create ~universe:100 () in
  List.iter (fun k -> assert (Kary.insert t k)) [ 10; 20; 30 ];
  (match Kary.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "4th key sprouts" true (Kary.insert t 25);
  List.iter
    (fun k -> Alcotest.(check bool) (string_of_int k) true (Kary.member t k))
    [ 10; 20; 25; 30 ];
  (match Kary.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "sorted" [ 10; 20; 25; 30 ] (Kary.to_list t)

let test_kary_prune_after_sprout () =
  let t = Kary.create ~universe:100 () in
  List.iter (fun k -> ignore (Kary.insert t k)) [ 10; 20; 30; 25 ];
  (* Remove until the sprouted node's children collapse back. *)
  Alcotest.(check bool) "del 25" true (Kary.delete t 25);
  Alcotest.(check bool) "del 20" true (Kary.delete t 20);
  Alcotest.(check bool) "del 30" true (Kary.delete t 30);
  Alcotest.(check bool) "10 remains" true (Kary.member t 10);
  (match Kary.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "del 10" true (Kary.delete t 10);
  Alcotest.(check int) "empty" 0 (Kary.size t);
  (* The structure must remain fully usable after collapse. *)
  List.iter (fun k -> assert (Kary.insert t k)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "refilled" 5 (Kary.size t);
  match Kary.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_kary_repeated_sprout_cycles () =
  (* Fill/drain cycles across the sprout boundary, checking invariants
     each time; catches stale-leaf and bitmap bugs. *)
  let t = Kary.create ~universe:64 () in
  for round = 1 to 20 do
    for k = 0 to 63 do
      ignore (Kary.insert t k)
    done;
    Alcotest.(check int) (Printf.sprintf "round %d full" round) 64 (Kary.size t);
    for k = 0 to 63 do
      ignore (Kary.delete t k)
    done;
    Alcotest.(check int) (Printf.sprintf "round %d empty" round) 0 (Kary.size t);
    match Kary.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e
  done

let test_kary_arity_variants () =
  (* The algorithm must be correct at any arity, including the binary
     degenerate case; this is the basis of the arity-sweep experiment. *)
  List.iter
    (fun arity ->
      let t = Kary.create_k ~k:arity ~universe:256 () in
      let rng = Rng.of_int_seed (arity * 13) in
      let model = ref IS.empty in
      for _ = 1 to 20_000 do
        let key = Rng.int rng 256 in
        if Rng.bool rng then begin
          let e = not (IS.mem key !model) in
          if Kary.insert t key <> e then
            Alcotest.failf "arity %d: insert %d" arity key;
          model := IS.add key !model
        end
        else begin
          let e = IS.mem key !model in
          if Kary.delete t key <> e then
            Alcotest.failf "arity %d: delete %d" arity key;
          model := IS.remove key !model
        end
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "arity %d contents" arity)
        (IS.elements !model) (Kary.to_list t);
      match Kary.check_invariants t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arity %d: %s" arity e)
    [ 2; 3; 4; 8; 16 ]

let test_kary_arity_concurrent () =
  List.iter
    (fun arity ->
      let t = Kary.create_k ~k:arity ~universe:2000 () in
      Tutil.join_all
        (Tutil.spawn_n 4 (fun d ->
             for i = d * 500 to (d * 500) + 499 do
               if not (Kary.insert t i) then
                 Alcotest.failf "arity %d insert %d" arity i
             done))
      |> ignore;
      Alcotest.(check int) (Printf.sprintf "arity %d size" arity) 2000 (Kary.size t);
      match Kary.check_invariants t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arity %d: %s" arity e)
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Ctrie: tombs and compression *)

let test_ctrie_tomb_compression () =
  (* Two keys that collide in the first hash level force a deep branch;
     deleting one must tomb and fold the branch back. *)
  let t = Ctrie.create ~universe:1_000_000 () in
  ignore (Ctrie.insert t 1);
  ignore (Ctrie.insert t 2);
  ignore (Ctrie.insert t 3);
  ignore (Ctrie.delete t 2);
  (match Ctrie.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "contents" [ 1; 3 ] (Ctrie.to_list t);
  ignore (Ctrie.delete t 1);
  ignore (Ctrie.delete t 3);
  Alcotest.(check int) "empty" 0 (Ctrie.size t);
  match Ctrie.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_ctrie_single_key_levels () =
  (* Insert/delete a sliding singleton across many hash prefixes. *)
  let t = Ctrie.create ~universe:(1 lsl 20) () in
  for k = 0 to 999 do
    Alcotest.(check bool) "ins" true (Ctrie.insert t (k * 1021));
    Alcotest.(check bool) "del" true (Ctrie.delete t (k * 1021));
    Alcotest.(check bool) "gone" false (Ctrie.member t (k * 1021))
  done;
  Alcotest.(check int) "empty" 0 (Ctrie.size t);
  match Ctrie.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_ctrie_member_helps_compression () =
  (* Lookups on a trie full of tombs must still answer correctly (they
     may CAS to help, per the paper's remark). *)
  let t = Ctrie.create ~universe:100_000 () in
  for k = 0 to 999 do
    ignore (Ctrie.insert t k)
  done;
  for k = 0 to 999 do
    if k mod 2 = 0 then ignore (Ctrie.delete t k)
  done;
  for k = 0 to 999 do
    Alcotest.(check bool) (string_of_int k) (k mod 2 = 1) (Ctrie.member t k)
  done;
  match Ctrie.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Skip list: towers and index levels *)

let test_skiplist_index_integrity_after_churn () =
  let t = Skiplist.create ~universe:10_000 () in
  let rng = Rng.of_int_seed 77 in
  let model = ref IS.empty in
  for _ = 1 to 50_000 do
    let k = Rng.int rng 10_000 in
    if Rng.bool rng then begin
      ignore (Skiplist.insert t k);
      model := IS.add k !model
    end
    else begin
      ignore (Skiplist.delete t k);
      model := IS.remove k !model
    end
  done;
  Alcotest.(check (list int)) "model" (IS.elements !model) (Skiplist.to_list t);
  match Skiplist.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_skiplist_duplicate_delete_insert_interleave () =
  let t = Skiplist.create ~universe:10 () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "ins" true (Skiplist.insert t 5);
    Alcotest.(check bool) "dup" false (Skiplist.insert t 5);
    Alcotest.(check bool) "del" true (Skiplist.delete t 5);
    Alcotest.(check bool) "del2" false (Skiplist.delete t 5)
  done;
  Alcotest.(check int) "empty" 0 (Skiplist.size t)

(* ------------------------------------------------------------------ *)
(* AVL: balance under adversarial orders, routing-node behaviour *)

let height_check t = Avl.check_invariants t = Ok ()

let test_avl_ascending_stays_logarithmic () =
  let t = Avl.create ~universe:100_000 () in
  for k = 0 to 9_999 do
    ignore (Avl.insert t k)
  done;
  Alcotest.(check bool) "balanced after 10k ascending" true (height_check t)

let test_avl_descending_stays_logarithmic () =
  let t = Avl.create ~universe:100_000 () in
  for k = 9_999 downto 0 do
    ignore (Avl.insert t k)
  done;
  Alcotest.(check bool) "balanced after 10k descending" true (height_check t)

let test_avl_zigzag_insertion () =
  let t = Avl.create ~universe:100_000 () in
  for i = 0 to 4_999 do
    ignore (Avl.insert t i);
    ignore (Avl.insert t (99_999 - i))
  done;
  Alcotest.(check int) "size" 10_000 (Avl.size t);
  Alcotest.(check bool) "balanced after zigzag" true (height_check t)

let test_avl_routing_node_reinsert () =
  (* Deleting a two-child node leaves it as a routing node; a re-insert
     of the same key must revive it in place. *)
  let t = Avl.create ~universe:100 () in
  List.iter (fun k -> ignore (Avl.insert t k)) [ 50; 25; 75 ];
  Alcotest.(check bool) "delete root-ish" true (Avl.delete t 50);
  Alcotest.(check bool) "children intact" true (Avl.member t 25 && Avl.member t 75);
  Alcotest.(check bool) "revive" true (Avl.insert t 50);
  Alcotest.(check bool) "revived" true (Avl.member t 50);
  Alcotest.(check (list int)) "contents" [ 25; 50; 75 ] (Avl.to_list t)

let test_avl_delete_then_shrink () =
  let t = Avl.create ~universe:1_024 () in
  for k = 0 to 1_023 do
    ignore (Avl.insert t k)
  done;
  (* Remove a whole flank; the tree must rebalance, not just mark. *)
  for k = 0 to 899 do
    ignore (Avl.delete t k)
  done;
  Alcotest.(check int) "size" 124 (Avl.size t);
  Alcotest.(check bool) "still balanced" true (height_check t)

(* ------------------------------------------------------------------ *)
(* BST: sentinel-adjacent behaviour *)

let test_bst_extreme_keys () =
  let t = Nbbst.create ~universe:100 () in
  (* Keys right under the sentinels. *)
  Alcotest.(check bool) "max real key" true (Nbbst.insert t 99);
  Alcotest.(check bool) "min real key" true (Nbbst.insert t 0);
  Alcotest.(check bool) "member 99" true (Nbbst.member t 99);
  Alcotest.(check bool) "member 0" true (Nbbst.member t 0);
  Alcotest.(check bool) "delete 99" true (Nbbst.delete t 99);
  Alcotest.(check bool) "delete 0" true (Nbbst.delete t 0);
  Alcotest.(check int) "empty" 0 (Nbbst.size t);
  match Nbbst.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_bst_single_key_cycle () =
  (* Repeated insert/delete of one key exercises the DFlag/Mark path at
     the same grandparent over and over. *)
  let t = Nbbst.create ~universe:10 () in
  for _ = 1 to 2000 do
    assert (Nbbst.insert t 5);
    assert (Nbbst.delete t 5)
  done;
  Alcotest.(check int) "empty" 0 (Nbbst.size t);
  match Nbbst.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_bst_late_insert_helper () =
  (* A helper of an insert that stalls before its child CAS must not
     re-link the new internal node once the key has been deleted again:
     the splice of that delete puts a leaf back under the same parent,
     and it must not be the leaf the stalled helper expects. *)
  let t = Nbbst.create ~universe:100 () in
  assert (Nbbst.insert t 10);
  let inserted, late_helper = Nbbst.For_testing.insert_with_late_helper t 20 in
  Alcotest.(check bool) "insert 20" true inserted;
  Alcotest.(check bool) "delete 20" true (Nbbst.delete t 20);
  late_helper ();
  Alcotest.(check (list int)) "20 stays deleted" [ 10 ] (Nbbst.to_list t);
  Alcotest.(check bool) "member 20" false (Nbbst.member t 20);
  (match Nbbst.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e);
  (* Updates below that parent still complete. *)
  Alcotest.(check bool) "insert 15" true (Nbbst.insert t 15);
  Alcotest.(check bool) "delete 10" true (Nbbst.delete t 10);
  Alcotest.(check (list int)) "final" [ 15 ] (Nbbst.to_list t)

let () =
  Alcotest.run "baseline_edges"
    [
      ( "4-ST",
        [
          Alcotest.test_case "sprout boundary" `Quick test_kary_sprout_boundary;
          Alcotest.test_case "prune after sprout" `Quick test_kary_prune_after_sprout;
          Alcotest.test_case "sprout cycles" `Quick test_kary_repeated_sprout_cycles;
          Alcotest.test_case "arity variants" `Quick test_kary_arity_variants;
          Alcotest.test_case "arity concurrent" `Quick test_kary_arity_concurrent;
        ] );
      ( "Ctrie",
        [
          Alcotest.test_case "tomb compression" `Quick test_ctrie_tomb_compression;
          Alcotest.test_case "singleton levels" `Quick test_ctrie_single_key_levels;
          Alcotest.test_case "member over tombs" `Quick
            test_ctrie_member_helps_compression;
        ] );
      ( "SL",
        [
          Alcotest.test_case "index after churn" `Quick
            test_skiplist_index_integrity_after_churn;
          Alcotest.test_case "same-key cycles" `Quick
            test_skiplist_duplicate_delete_insert_interleave;
        ] );
      ( "AVL",
        [
          Alcotest.test_case "ascending" `Quick test_avl_ascending_stays_logarithmic;
          Alcotest.test_case "descending" `Quick test_avl_descending_stays_logarithmic;
          Alcotest.test_case "zigzag" `Quick test_avl_zigzag_insertion;
          Alcotest.test_case "routing-node revive" `Quick test_avl_routing_node_reinsert;
          Alcotest.test_case "shrink rebalances" `Quick test_avl_delete_then_shrink;
        ] );
      ( "BST",
        [
          Alcotest.test_case "extreme keys" `Quick test_bst_extreme_keys;
          Alcotest.test_case "single-key cycles" `Quick test_bst_single_key_cycle;
          Alcotest.test_case "late insert helper" `Quick
            test_bst_late_insert_helper;
        ] );
    ]
