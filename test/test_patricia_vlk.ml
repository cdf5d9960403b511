(* Tests for the variable-length-key Patricia trie (Section VI). *)

module V = Core.Patricia_vlk
module SS = Set.Make (String)

let inv t =
  match V.check_invariants t with Ok () -> () | Error e -> Alcotest.fail e

let test_basics () =
  let t = V.create () in
  Alcotest.(check bool) "empty member" false (V.member t "x");
  Alcotest.(check bool) "insert" true (V.insert t "x");
  Alcotest.(check bool) "insert dup" false (V.insert t "x");
  Alcotest.(check bool) "member" true (V.member t "x");
  Alcotest.(check bool) "delete" true (V.delete t "x");
  Alcotest.(check bool) "delete again" false (V.delete t "x");
  inv t

let test_prefix_keys_coexist () =
  (* The whole point of the $-terminator: a key may be a prefix of
     another key. *)
  let t = V.create () in
  let keys = [ "a"; "ab"; "abc"; "abcd"; "b"; "ba" ] in
  List.iter (fun k -> Alcotest.(check bool) k true (V.insert t k)) keys;
  List.iter (fun k -> Alcotest.(check bool) k true (V.member t k)) keys;
  Alcotest.(check bool) "absent prefix" false (V.member t "abcde");
  Alcotest.(check int) "size" 6 (V.size t);
  Alcotest.(check bool) "delete middle" true (V.delete t "ab");
  Alcotest.(check bool) "outer keys stay" true (V.member t "a" && V.member t "abc");
  inv t

let test_replace_strings () =
  let t = V.create () in
  ignore (V.insert t "old-name");
  Alcotest.(check bool) "replace" true (V.replace t ~remove:"old-name" ~add:"new-name");
  Alcotest.(check bool) "old gone" false (V.member t "old-name");
  Alcotest.(check bool) "new there" true (V.member t "new-name");
  Alcotest.(check bool) "absent source" false
    (V.replace t ~remove:"old-name" ~add:"x");
  ignore (V.insert t "other");
  Alcotest.(check bool) "present target" false
    (V.replace t ~remove:"other" ~add:"new-name");
  Alcotest.(check bool) "same key" false (V.replace t ~remove:"other" ~add:"other");
  inv t

let test_long_keys () =
  let t = V.create () in
  let long = String.make 500 'z' in
  Alcotest.(check bool) "long insert" true (V.insert t long);
  Alcotest.(check bool) "long member" true (V.member t long);
  Alcotest.(check bool) "long prefix absent" false (V.member t (String.make 499 'z'));
  Alcotest.(check bool) "long delete" true (V.delete t long);
  inv t

let test_raw_binary_keys () =
  let t = V.create () in
  let k s = Bitkey.Bitstr.encode_binary s in
  Alcotest.(check bool) "raw insert" true (V.insert_key t (k "0101"));
  Alcotest.(check bool) "raw member" true (V.member_key t (k "0101"));
  Alcotest.(check bool) "raw prefix distinct" false (V.member_key t (k "010"));
  Alcotest.(check bool) "raw replace" true (V.replace_key t (k "0101") (k "1"));
  Alcotest.(check bool) "raw delete" true (V.delete_key t (k "1"));
  Alcotest.(check int) "empty" 0 (V.size t)

let test_sentinel_guard () =
  let t = V.create () in
  Alcotest.check_raises "sentinel-colliding key rejected"
    (Invalid_argument "Patricia_vlk: key collides with a sentinel") (fun () ->
      ignore (V.insert_key t (Bitkey.Bitstr.of_string "00")))

let prop_model_equivalence =
  let gen_key =
    QCheck2.Gen.(map (fun n -> Printf.sprintf "k%d" n) (int_bound 40))
  in
  Tutil.qtest ~count:60 "random programs match Set semantics"
    QCheck2.Gen.(list_size (int_bound 250) (pair (int_bound 3) gen_key))
    (fun program ->
      let t = V.create () in
      let model = ref SS.empty in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 ->
              let e = not (SS.mem k !model) in
              model := SS.add k !model;
              V.insert t k = e
          | 1 ->
              let e = SS.mem k !model in
              model := SS.remove k !model;
              V.delete t k = e
          | 2 -> V.member t k = SS.mem k !model
          | _ ->
              let k2 = k ^ "x" in
              let e = SS.mem k !model && not (SS.mem k2 !model) in
              if e then model := SS.add k2 (SS.remove k !model);
              V.replace t ~remove:k ~add:k2 = e)
        program
      && SS.equal (SS.of_list (V.to_list t)) !model
      && V.check_invariants t = Ok ())

let n_domains = 4

let test_concurrent_disjoint () =
  let t = V.create () in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         for i = 0 to 1500 do
           if not (V.insert t (Printf.sprintf "key-%d-%d" d i)) then
             Alcotest.failf "insert %d-%d" d i
         done))
  |> ignore;
  Alcotest.(check int) "all present" (n_domains * 1501) (V.size t);
  inv t;
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         for i = 0 to 1500 do
           if not (V.delete t (Printf.sprintf "key-%d-%d" d i)) then
             Alcotest.failf "delete %d-%d" d i
         done))
  |> ignore;
  Alcotest.(check int) "all gone" 0 (V.size t);
  inv t

let test_concurrent_contended () =
  let t = V.create () in
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         let rng = Rng.of_int_seed (4200 + d) in
         for _ = 1 to 30_000 do
           let k = Printf.sprintf "k%d" (Rng.int rng 60) in
           match Rng.int rng 4 with
           | 0 -> ignore (V.insert t k)
           | 1 -> ignore (V.delete t k)
           | 2 -> ignore (V.member t k)
           | _ ->
               ignore (V.replace t ~remove:k ~add:(Printf.sprintf "k%d" (Rng.int rng 60)))
         done))
  |> ignore;
  inv t;
  let l = V.to_list t in
  List.iter (fun k -> if not (V.member t k) then Alcotest.failf "listed %S absent" k) l

let test_concurrent_token_conservation () =
  let t = V.create () in
  List.iter (fun d -> ignore (V.insert t (Printf.sprintf "tok-%d-0" d)))
    (List.init n_domains Fun.id);
  Tutil.join_all
    (Tutil.spawn_n n_domains (fun d ->
         let pos = ref 0 in
         let rng = Rng.of_int_seed (5200 + d) in
         for _ = 1 to 5_000 do
           let next = Rng.int rng 1_000_000 in
           if
             next <> !pos
             && V.replace t
                  ~remove:(Printf.sprintf "tok-%d-%d" d !pos)
                  ~add:(Printf.sprintf "tok-%d-%d" d next)
           then pos := next
         done))
  |> ignore;
  Alcotest.(check int) "one token per domain" n_domains (V.size t);
  inv t

(* "aa" and "b" share a parent, whose own parent splits them from the
   low sentinel; "ab" shares more of its prefix with "aa" than "b" does,
   and "ba" more with "b", so each splits one of the two leaves; "bb"
   shares more with "ba" than with "b", so it splits "ba"'s leaf. *)
let test_no_aba case () =
  Tutil.aba_cases
    ~fresh:(fun () ->
      let t = V.create () in
      {
        Tutil.a_insert = V.insert t;
        a_delete = V.delete t;
        a_member = V.member t;
        a_check = (fun () -> V.check_invariants t);
        a_prepare_insert =
          (fun k -> V.For_testing.prepare_insert t (Bitkey.Bitstr.encode_bytes k));
        a_prepare_delete =
          (fun k -> V.For_testing.prepare_delete t (Bitkey.Bitstr.encode_bytes k));
        a_flag_only = V.For_testing.flag_only;
        a_help = V.For_testing.help;
      })
    ("aa", "b", "ab", "ba", "bb") case

let test_info_word_is_field_0 () =
  let t = V.create () and enc = Bitkey.Bitstr.encode_bytes in
  Tutil.info_word_is_field_0
    ~insert:(fun k -> V.insert_key t k)
    ~prepare_insert:(V.For_testing.prepare_insert t)
    ~prepare_delete:(V.For_testing.prepare_delete t)
    ~flag_only:V.For_testing.flag_only ~help:V.For_testing.help
    ~layout:(V.For_testing.layout_on_path t) (enc "aa", enc "ab")

let test_cas_child_fields () =
  let t = V.create () and enc = Bitkey.Bitstr.encode_bytes in
  Tutil.cas_child_fields
    ~insert:(fun k -> V.insert_key t k)
    ~layout:(V.For_testing.layout_on_path t)
    ~cas_child:V.For_testing.cas_child
    ~check:(fun () -> V.check_invariants t)
    (enc "aa", enc "ab")

(* In data bits (two encoded digits each): "aa" and "ab" share their
   first 14 bits and so a parent, as "za" and "zb" do; "ai" leaves the
   first pair's prefix at its thirteenth bit and "zz" the second's at
   its twelfth. *)
let test_dead_marks () =
  let enc = Bitkey.Bitstr.encode_bytes in
  Tutil.dead_marks ~is_dead:V.For_testing.is_dead
    ~fresh:(fun () ->
      let t = V.create () in
      {
        Tutil.m_insert = V.insert_key t;
        m_delete = V.delete_key t;
        m_replace = V.replace_key t;
        m_snapshot =
          (fun () ->
            let w = V.snapshot t in
            (V.For_testing.view_flags_on_path w, fun () -> V.View.size w));
        m_layout = V.For_testing.layout_on_path t;
        m_prepare_delete =
          (fun k ->
            Option.map
              (fun d () -> V.For_testing.help d)
              (V.For_testing.prepare_delete t k));
        m_check = (fun () -> V.check_invariants t);
      })
    (enc "aa", enc "ab", enc "za", enc "zb", enc "ai", enc "zz")

(* The level-cache cases of Tutil: key [k] is the byte [2k], so its
   leading digits are PAT's 7-bit key. *)
let cached () =
  let t = V.create ~record_stats:true () in
  let key k = String.make 1 (Char.chr (2 * k)) in
  let unkey s = Char.code s.[0] / 2 in
  {
    Tutil.c_label = "PAT-VLK";
    c_insert = (fun k -> V.insert t (key k));
    c_delete = (fun k -> V.delete t (key k));
    c_member = (fun k -> V.member t (key k));
    c_replace = (fun ~remove ~add -> V.replace t ~remove:(key remove) ~add:(key add));
    c_keys = (fun () -> List.map unkey (V.to_list t));
    c_snapshot =
      (fun () ->
        let v = V.snapshot t in
        fun () -> List.map unkey (V.View.to_list v));
    c_cache_bits = V.For_testing.set_cache_bits t;
    c_descent =
      (fun () ->
        match V.For_testing.counters t with
        | Some c ->
            List.fold_left
              (fun acc f -> acc + List.assoc f c)
              0
              [
                "descent_nodes_find";
                "descent_nodes_insert";
                "descent_nodes_delete";
                "descent_nodes_replace";
              ]
        | None -> 0);
    c_check = (fun () -> V.check_invariants t);
  }

let () =
  Tutil.time_limit 300;
  Alcotest.run "patricia_vlk"
    [
      ( "sequential",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "prefix keys coexist" `Quick test_prefix_keys_coexist;
          Alcotest.test_case "replace" `Quick test_replace_strings;
          Alcotest.test_case "long keys" `Quick test_long_keys;
          Alcotest.test_case "raw binary keys" `Quick test_raw_binary_keys;
          Alcotest.test_case "sentinel guard" `Quick test_sentinel_guard;
          prop_model_equivalence;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "disjoint determinism" `Quick test_concurrent_disjoint;
          Alcotest.test_case "contended stress" `Slow test_concurrent_contended;
          Alcotest.test_case "token conservation" `Slow
            test_concurrent_token_conservation;
        ] );
      ( "helping",
        [
          Alcotest.test_case "no ABA: Clean is never written back" `Quick
            (test_no_aba Tutil.Clean_first);
          Alcotest.test_case "no ABA: fresh Unflags are distinct" `Quick
            (test_no_aba Tutil.Fresh_unflags);
          Alcotest.test_case "no ABA: unflagged to the installed child" `Quick
            (test_no_aba Tutil.Installed_child);
          Alcotest.test_case "info word is field 0" `Quick
            test_info_word_is_field_0;
          Alcotest.test_case "child CAS writes its bit's field" `Quick
            test_cas_child_fields;
          Alcotest.test_case "removed nodes hold Dead, not a descriptor" `Quick
            test_dead_marks;
        ] );
      ("cache", Tutil.cache_cases cached);
    ]
