(* Tests driven through the first-class CONCURRENT_SET packaging: the
   same generic battery must pass for every structure of the evaluation
   ([Harness.structures]) without this file naming any of them; the
   replace battery runs PAT, the one structure with an atomic replace. *)

module IS = Set.Make (Int)

let generic_battery (Dset_intf.Packed (module S)) () =
  let t = S.create ~universe:200 () in
  Alcotest.(check bool) (S.name ^ " empty") false (S.member t 10);
  Alcotest.(check bool) (S.name ^ " insert") true (S.insert t 10);
  Alcotest.(check bool) (S.name ^ " dup") false (S.insert t 10);
  Alcotest.(check bool) (S.name ^ " member") true (S.member t 10);
  Alcotest.(check bool) (S.name ^ " delete") true (S.delete t 10);
  Alcotest.(check int) (S.name ^ " size") 0 (S.size t);
  (* model run *)
  let rng = Rng.of_int_seed 31 in
  let model = ref IS.empty in
  for _ = 1 to 20_000 do
    let k = Rng.int rng 200 in
    if Rng.bool rng then begin
      let e = not (IS.mem k !model) in
      if S.insert t k <> e then Alcotest.failf "%s insert %d" S.name k;
      model := IS.add k !model
    end
    else begin
      let e = IS.mem k !model in
      if S.delete t k <> e then Alcotest.failf "%s delete %d" S.name k;
      model := IS.remove k !model
    end
  done;
  Alcotest.(check (list int)) (S.name ^ " final") (IS.elements !model) (S.to_list t)

let generic_concurrent (Dset_intf.Packed (module S)) () =
  let t = S.create ~universe:2_000 () in
  Tutil.join_all
    (Tutil.spawn_n 4 (fun d ->
         for i = d * 500 to (d * 500) + 499 do
           if not (S.insert t i) then Alcotest.failf "%s insert %d" S.name i
         done))
  |> ignore;
  Alcotest.(check int) (S.name ^ " full") 2_000 (S.size t)

let replace_battery (Dset_intf.Packed_replace (module S)) () =
  let t = S.create ~universe:100 () in
  ignore (S.insert t 1);
  Alcotest.(check bool) (S.name ^ " replace") true (S.replace t ~remove:1 ~add:2);
  Alcotest.(check (list int)) (S.name ^ " contents") [ 2 ] (S.to_list t)

let name_of (Dset_intf.Packed (module S)) = S.name

(* The structures with the paper's atomic replace: only PAT, as the
   evaluation notes.  test_server runs it over the network. *)
let with_replace : Dset_intf.packed_replace list =
  [ Dset_intf.Packed_replace (module Harness.Pat) ]

let test_legend_order () =
  Alcotest.(check (list string))
    "legend order"
    [ "PAT"; "4-ST"; "BST"; "AVL"; "SL"; "Ctrie" ]
    (List.map name_of Harness.structures)

let () =
  Alcotest.run "registry"
    [
      ( "generic",
        List.concat_map
          (fun p ->
            [
              Alcotest.test_case (name_of p ^ " battery") `Quick (generic_battery p);
              Alcotest.test_case (name_of p ^ " concurrent") `Quick
                (generic_concurrent p);
            ])
          Harness.structures );
      ( "replace",
        List.map
          (fun p ->
            let (Dset_intf.Packed_replace (module S)) = p in
            Alcotest.test_case (S.name ^ " replace") `Quick (replace_battery p))
          with_replace );
      ("order", [ Alcotest.test_case "legend order" `Quick test_legend_order ]);
    ]
