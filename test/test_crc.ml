(* The CRC-32 implementations against published check vectors, plus the
   algebraic properties the WAL relies on (incremental composition,
   sensitivity to any single-bit flip). *)

module Crc = Persist.Crc

let hex = Printf.sprintf "0x%08X"

let check_vec name f s expected () =
  Alcotest.(check string) (name ^ " of " ^ String.escaped s) (hex expected)
    (hex (f s))

(* The canonical "check" value every CRC catalogue publishes is the CRC
   of the ASCII string "123456789". *)
let vectors =
  [
    ("crc32 check", Crc.crc32_string, "123456789", 0xCBF43926);
    ("crc32c check", Crc.crc32c_string, "123456789", 0xE3069283);
    ("crc32 empty", Crc.crc32_string, "", 0);
    ("crc32c empty", Crc.crc32c_string, "", 0);
    (* zlib's documented example vector. *)
    ( "crc32 fox",
      Crc.crc32_string,
      "The quick brown fox jumps over the lazy dog",
      0x414FA339 );
    ( "crc32c fox",
      Crc.crc32c_string,
      "The quick brown fox jumps over the lazy dog",
      0x22620404 );
    ("crc32 a", Crc.crc32_string, "a", 0xE8B7BE43);
    ("crc32c a", Crc.crc32c_string, "a", 0xC1D04330);
    ("crc32 zeros", Crc.crc32_string, String.make 32 '\000', 0x190A55AD);
    ("crc32c zeros", Crc.crc32c_string, String.make 32 '\000', 0x8A9136AA);
    ("crc32 ones", Crc.crc32_string, String.make 32 '\255', 0xFF6CAB0B);
    ("crc32c ones", Crc.crc32c_string, String.make 32 '\255', 0x62A8AB43);
  ]

let test_incremental () =
  let rng = Rng.of_int_seed 11 in
  for _ = 1 to 100 do
    let len = Rng.int rng 200 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let cut = if len = 0 then 0 else Rng.int rng (len + 1) in
    let whole = Crc.crc32c b ~off:0 ~len in
    let part =
      Crc.crc32c
        ~crc:(Crc.crc32c b ~off:0 ~len:cut)
        b ~off:cut ~len:(len - cut)
    in
    Alcotest.(check string) "split = whole" (hex whole) (hex part);
    let whole32 = Crc.crc32 b ~off:0 ~len in
    let part32 =
      Crc.crc32 ~crc:(Crc.crc32 b ~off:0 ~len:cut) b ~off:cut ~len:(len - cut)
    in
    Alcotest.(check string) "split = whole (ieee)" (hex whole32) (hex part32)
  done

let test_bit_flip_detected () =
  let rng = Rng.of_int_seed 12 in
  for _ = 1 to 100 do
    let len = 1 + Rng.int rng 100 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let c0 = Crc.crc32c b ~off:0 ~len in
    let i = Rng.int rng len and bit = Rng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    let c1 = Crc.crc32c b ~off:0 ~len in
    if c0 = c1 then Alcotest.fail "single-bit flip not detected"
  done

let test_range () =
  let b = Bytes.make 8 'x' in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : int) -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Crc.crc32c b ~off:(-1) ~len:4);
  expect_invalid (fun () -> Crc.crc32c b ~off:0 ~len:9);
  expect_invalid (fun () -> Crc.crc32c b ~off:6 ~len:3);
  expect_invalid (fun () -> Crc.crc32c b ~off:2 ~len:(-1));
  (* In-range sub-slices are fine, including the empty one at the end. *)
  ignore (Crc.crc32c b ~off:8 ~len:0 : int);
  ignore (Crc.crc32c b ~off:3 ~len:5 : int)

let test_result_range () =
  let rng = Rng.of_int_seed 13 in
  for _ = 1 to 200 do
    let len = Rng.int rng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let c = Crc.crc32c b ~off:0 ~len in
    if c < 0 || c > 0xFFFFFFFF then
      Alcotest.failf "crc out of [0, 2^32): %d" c
  done

(* The sliced loop against the byte-wise reference: every offset in an
   8-byte word, every length through ten whole steps and a tail, and
   chained calls that split the buffer anywhere. *)
let test_sliced_matches_bytewise () =
  let rng = Rng.of_int_seed 14 in
  let buf = Bytes.init 96 (fun _ -> Char.chr (Rng.int rng 256)) in
  for off = 0 to 7 do
    for len = 0 to 80 do
      let want = Crc.crc32c_bytewise buf ~off ~len in
      let got = Crc.crc32c buf ~off ~len in
      if got <> want then
        Alcotest.failf "off %d len %d: sliced %s, byte-wise %s" off len (hex got)
          (hex want)
    done
  done;
  for _ = 1 to 2000 do
    let len = Rng.int rng 300 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let seed = Rng.int rng 0x1_0000_0000 in
    Alcotest.(check string)
      "random buffer" (hex (Crc.crc32c_bytewise ~crc:seed b ~off:0 ~len))
      (hex (Crc.crc32c ~crc:seed b ~off:0 ~len));
    let cut = Rng.int rng (len + 1) in
    let chained =
      Crc.crc32c ~crc:(Crc.crc32c b ~off:0 ~len:cut) b ~off:cut ~len:(len - cut)
    in
    Alcotest.(check string)
      "chained = byte-wise whole" (hex (Crc.crc32c_bytewise b ~off:0 ~len))
      (hex chained)
  done

(* A check on a WAL record's payload allocates nothing. *)
let test_sliced_allocates_nothing () =
  let b = Bytes.make 25 'w' in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc lxor Crc.crc32c b ~off:0 ~len:25
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc : int);
  if words > 100. then Alcotest.failf "10000 checks allocated %.0f words" words

let () =
  Alcotest.run "crc"
    [
      ( "vectors",
        List.map
          (fun (name, f, s, exp) ->
            Alcotest.test_case name `Quick (check_vec name f s exp))
          vectors );
      ( "properties",
        [
          Alcotest.test_case "incremental composition" `Quick test_incremental;
          Alcotest.test_case "bit flips detected" `Quick test_bit_flip_detected;
          Alcotest.test_case "offset/length validation" `Quick test_range;
          Alcotest.test_case "result in range" `Quick test_result_range;
          Alcotest.test_case "sliced = byte-wise" `Quick
            test_sliced_matches_bytewise;
          Alcotest.test_case "sliced allocates nothing" `Quick
            test_sliced_allocates_nothing;
        ] );
    ]
