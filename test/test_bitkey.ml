(* Tests for the bit-string key substrate. *)

open Bitkey

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* bit_length / bit / popcount *)

let test_bit_length () =
  check_int "0" 0 (bit_length 0);
  check_int "1" 1 (bit_length 1);
  check_int "2" 2 (bit_length 2);
  check_int "3" 2 (bit_length 3);
  check_int "4" 3 (bit_length 4);
  check_int "255" 8 (bit_length 255);
  check_int "256" 9 (bit_length 256);
  Alcotest.check_raises "negative" (Invalid_argument "Bitkey.bit_length: negative")
    (fun () -> ignore (bit_length (-1)));
  Alcotest.check_raises "min_int" (Invalid_argument "Bitkey.bit_length: negative")
    (fun () -> ignore (bit_length min_int))

(* The reference: one shift per bit. *)
let bit_length_loop n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let test_bit_length_reference () =
  let agree n =
    check_int (Printf.sprintf "bit_length %d" n) (bit_length_loop n) (bit_length n)
  in
  agree 0;
  agree max_int;
  for i = 0 to 61 do
    let p = 1 lsl i in
    agree (p - 1);
    agree p;
    agree (p + 1)
  done;
  let rng = Rng.of_int_seed 17 in
  for _ = 1 to 100_000 do
    (* Random values below 2^62, spread over every length. *)
    agree (Rng.int rng max_int lsr Rng.int rng 62)
  done

let test_bit () =
  (* key 0b1010 over width 4: bits 1..4 are 1,0,1,0 *)
  check_int "b1" 1 (bit ~width:4 0b1010 1);
  check_int "b2" 0 (bit ~width:4 0b1010 2);
  check_int "b3" 1 (bit ~width:4 0b1010 3);
  check_int "b4" 0 (bit ~width:4 0b1010 4);
  Alcotest.check_raises "index 0" (Invalid_argument "Bitkey.bit: index out of range")
    (fun () -> ignore (bit ~width:4 0 0))

let test_popcount () =
  check_int "0" 0 (popcount 0);
  check_int "255" 8 (popcount 255);
  check_int "0b1010101" 4 (popcount 0b1010101);
  check_int "max_int" 62 (popcount max_int)

(* ------------------------------------------------------------------ *)
(* Labels *)

let lbl bits len : Label.t = Label.prefix (Label.of_key ~width:len bits) len

let test_label_of_key () =
  let l = Label.of_key ~width:8 0b10110001 in
  check_int "len" 8 (Label.length l);
  check_str "string" "10110001" (Label.to_string l);
  Alcotest.check_raises "width too big"
    (Invalid_argument "Label.of_key: width") (fun () ->
      ignore (Label.of_key ~width:63 0))

let test_label_prefix () =
  let l = Label.of_key ~width:8 0b10110001 in
  check_str "3-prefix" "101" (Label.to_string (Label.prefix l 3));
  check_str "0-prefix" "" (Label.to_string (Label.prefix l 0));
  check "is_prefix refl" true (Label.is_prefix l l);
  check "proper not refl" false (Label.is_proper_prefix l l);
  check "shorter prefix" true (Label.is_prefix (Label.prefix l 3) l);
  check "proper" true (Label.is_proper_prefix (Label.prefix l 3) l);
  check "non-prefix" false
    (Label.is_prefix (lbl 0b111 3) l)

let test_label_empty () =
  check_int "empty len" 0 (Label.length Label.empty);
  check "empty prefixes all" true
    (Label.is_prefix Label.empty (Label.of_key ~width:8 77))

let test_next_bit () =
  let key = 0b10110001 in
  let l = Label.of_key ~width:8 key in
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "bit after %d-prefix" i)
      (bit ~width:8 key (i + 1))
      (Label.next_bit_of_key ~width:8 (Label.prefix l i) key)
  done

let test_lcp () =
  let a = Label.of_key ~width:8 0b10110001 and b = Label.of_key ~width:8 0b10111101 in
  check_str "lcp" "1011" (Label.to_string (Label.lcp a b));
  check_str "lcp refl" "10110001" (Label.to_string (Label.lcp a a));
  let c = Label.of_key ~width:8 0b00000000 in
  check_str "lcp disjoint" "" (Label.to_string (Label.lcp a c))

let test_extend () =
  let l = Label.empty in
  let l = Label.extend l 1 in
  let l = Label.extend l 0 in
  check_str "extend" "10" (Label.to_string l);
  Alcotest.check_raises "bad bit" (Invalid_argument "Label.extend: bit") (fun () ->
      ignore (Label.extend l 2))

let test_compare_total () =
  let l1 = lbl 0b1 1 and l2 = lbl 0b10 2 and l3 = lbl 0b11 2 in
  check "shorter first" true (Label.compare l1 l2 < 0);
  check "same len by bits" true (Label.compare l2 l3 < 0);
  check_int "equal" 0 (Label.compare l2 l2)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_key width = QCheck2.Gen.(int_bound ((1 lsl width) - 1))

let prop_lcp_is_prefix =
  Tutil.qtest "lcp is a prefix of both"
    QCheck2.Gen.(pair (gen_key 16) (gen_key 16))
    (fun (a, b) ->
      let la = Label.of_key ~width:16 a and lb = Label.of_key ~width:16 b in
      let l = Label.lcp la lb in
      Label.is_prefix l la && Label.is_prefix l lb)

let prop_lcp_maximal =
  Tutil.qtest "lcp is maximal"
    QCheck2.Gen.(pair (gen_key 16) (gen_key 16))
    (fun (a, b) ->
      let la = Label.of_key ~width:16 a and lb = Label.of_key ~width:16 b in
      let l = Label.lcp la lb in
      a = b
      || Label.length l = 16
      || Label.next_bit l la <> Label.next_bit l lb)

let prop_prefix_transitive =
  Tutil.qtest "prefix relation is transitive via truncation"
    QCheck2.Gen.(triple (gen_key 16) (int_bound 16) (int_bound 16))
    (fun (a, i, j) ->
      let la = Label.of_key ~width:16 a in
      let i, j = (min i j, max i j) in
      Label.is_prefix (Label.prefix la i) (Label.prefix la j))

let prop_interleave_roundtrip =
  Tutil.qtest "interleave2/deinterleave2 round-trip"
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (x, y) ->
      let key = interleave2 ~coord_bits:16 x y in
      deinterleave2 ~coord_bits:16 key = (x, y))

let prop_interleave_monotone_box =
  Tutil.qtest "interleaved keys of a quadrant share a prefix"
    QCheck2.Gen.(pair (int_bound 0x7FFF) (int_bound 0x7FFF))
    (fun (x, y) ->
      (* Points in the same half-plane agree on the first interleaved bit. *)
      let k1 = interleave2 ~coord_bits:16 x y in
      let k2 = interleave2 ~coord_bits:16 (x lor 0x8000) y in
      bit ~width:32 k1 1 = 0 && bit ~width:32 k2 1 = 1)

let prop_string_roundtrip =
  Tutil.qtest "encode_string/decode_string round-trip"
    QCheck2.Gen.(string_size ~gen:(map (fun b -> if b then '1' else '0') bool)
                   (int_bound 12))
    (fun s ->
      decode_string ~max_len:12 (encode_string ~max_len:12 s) = s)

let prop_string_injective =
  Tutil.qtest "string encoding is injective"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (int_bound 10))
        (string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (int_bound 10)))
    (fun (s1, s2) ->
      s1 = s2 || encode_string ~max_len:10 s1 <> encode_string ~max_len:10 s2)

let test_string_sentinel_bounds () =
  (* Every encoded key lies strictly between the sentinels (Section VI). *)
  let width = string_width ~max_len:4 in
  let top = (1 lsl width) - 1 in
  List.iter
    (fun s ->
      let k = encode_string ~max_len:4 s in
      if not (k > 0 && k < top) then
        Alcotest.failf "encoded %S = %d escapes (0, %d)" s k top)
    [ ""; "0"; "1"; "0000"; "1111"; "0101"; "1010" ]

let () =
  Alcotest.run "bitkey"
    [
      ( "bits",
        [
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "bit_length matches the loop" `Quick
            test_bit_length_reference;
          Alcotest.test_case "bit" `Quick test_bit;
          Alcotest.test_case "popcount" `Quick test_popcount;
        ] );
      ( "labels",
        [
          Alcotest.test_case "of_key" `Quick test_label_of_key;
          Alcotest.test_case "prefix" `Quick test_label_prefix;
          Alcotest.test_case "empty" `Quick test_label_empty;
          Alcotest.test_case "next_bit" `Quick test_next_bit;
          Alcotest.test_case "lcp" `Quick test_lcp;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "compare total order" `Quick test_compare_total;
        ] );
      ( "properties",
        [
          prop_lcp_is_prefix;
          prop_lcp_maximal;
          prop_prefix_transitive;
          prop_interleave_roundtrip;
          prop_interleave_monotone_box;
          prop_string_roundtrip;
          prop_string_injective;
          Alcotest.test_case "string sentinel bounds" `Quick
            test_string_sentinel_bounds;
        ] );
    ]
