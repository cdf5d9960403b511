(* Wire-codec tests for the patserve protocol: every opcode round-trips
   through the framing layer, and hostile bytes — truncations, oversized
   length prefixes, garbage — come back as clean protocol errors, never
   as an exception (a decode exception would escape into a server worker
   domain and take every connection it serves down with it). *)

module P = Server.Protocol

let encode_frame encode v =
  let b = Buffer.create 64 in
  encode b v;
  Buffer.to_bytes b

(* Feed [bytes] to a fresh reader in [chunk]-sized pieces and collect
   every decoded payload via [decode]. *)
let decode_stream ?(chunk = max_int) decode bytes =
  let r = P.Reader.create () in
  let n = Bytes.length bytes in
  let out = ref [] in
  let bad = ref None in
  let rec drain () =
    match P.Reader.next_payload r with
    | `None -> ()
    | `Bad msg -> bad := Some msg
    | `Payload (buf, off, len) ->
        out := decode buf ~off ~len :: !out;
        drain ()
  in
  let pos = ref 0 in
  while !pos < n && !bad = None do
    let len = min chunk (n - !pos) in
    P.Reader.feed r (Bytes.sub bytes !pos len) len;
    pos := !pos + len;
    drain ()
  done;
  (List.rev !out, !bad)

let roundtrip_request req =
  match decode_stream P.decode_request (encode_frame P.encode_request req) with
  | [ Ok got ], None -> got
  | [ Error m ], None -> Alcotest.failf "decode error: %s" m
  | _, Some m -> Alcotest.failf "framing error: %s" m
  | l, None -> Alcotest.failf "expected 1 frame, got %d" (List.length l)

let roundtrip_response resp =
  match decode_stream P.decode_response (encode_frame P.encode_response resp) with
  | [ Ok got ], None -> got
  | [ Error m ], None -> Alcotest.failf "decode error: %s" m
  | _, Some m -> Alcotest.failf "framing error: %s" m
  | l, None -> Alcotest.failf "expected 1 frame, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Round trips *)

(* Every opcode round-trips, and [op_names] labels each by its own
   name, one distinct label per opcode. *)
let test_request_roundtrips () =
  let ops =
    [
      P.Insert 0;
      P.Insert max_int;
      P.Delete 42;
      P.Member 123456789;
      P.Replace { remove = 1; add = 2 };
      P.Size;
      P.Batch [ P.Insert 1; P.Delete 2; P.Member 3; P.Replace { remove = 4; add = 5 } ];
      P.Batch [];
      P.Subscribe { from_seq = 0 };
      P.Subscribe { from_seq = max_int };
      P.Logack { applied_seq = 0 };
      P.Logack { applied_seq = 123456789 };
      P.Hashcheck { prefix = 0; len = 0 };
      P.Hashcheck { prefix = 0x3FF; len = 10 };
      P.Promote;
      P.Scan { cursor = -1; count = 1 };
      P.Scan { cursor = 123456789; count = P.max_page_keys };
      P.Range { lo = 0; hi = max_int; cursor = -1; count = 512 };
      P.Range { lo = 17; hi = 17; cursor = 16; count = 1 };
    ]
  in
  List.iter
    (fun op ->
      let req = { P.seq = 7; op } in
      if roundtrip_request req <> req then
        Alcotest.failf "%s did not round-trip" (P.op_name op);
      Alcotest.(check string) "op_names label" (P.op_name op)
        P.op_names.(P.op_index op))
    ops;
  Alcotest.(check int) "one label per opcode" P.op_count
    (List.length (List.sort_uniq compare (Array.to_list P.op_names)));
  Alcotest.(check int) "every opcode sampled" P.op_count
    (List.length (List.sort_uniq compare (List.map P.op_index ops)))

let test_response_roundtrips () =
  List.iter
    (fun result ->
      let resp = { P.seq = 99; result } in
      if roundtrip_response resp <> resp then Alcotest.fail "response round-trip")
    [
      P.Bool true;
      P.Bool false;
      P.Count 0;
      P.Count max_int;
      P.Many [];
      P.Many [ true; false; true ];
      P.Busy { retry_after_ms = 0 };
      P.Busy { retry_after_ms = 50 };
      P.Busy { retry_after_ms = 0xFFFFFFFF };
      P.Error "no such thing";
      P.Error "";
      P.Logrecs { head_seq = 0; recs = [] };
      P.Logrecs
        {
          head_seq = 77;
          recs =
            [
              { P.rseq = 75; rop = P.Insert 1 };
              { P.rseq = 76; rop = P.Delete 2 };
              { P.rseq = 77; rop = P.Replace { remove = 3; add = 4 } };
            ];
        };
      P.Hashes { node = 0; left = 0; right = 0 };
      P.Hashes
        {
          node = 0x3FFFFFFFFFFFFFFF;
          left = 0x123456789ABCDEF;
          right = 0x2AAAAAAAAAAAAAAA;
        };
      P.Page { cut = -1; next_cursor = -1; complete = true; keys = [] };
      P.Page { cut = 0; next_cursor = 41; complete = false; keys = [ 41 ] };
      P.Page
        {
          cut = 987654321;
          next_cursor = 1023;
          complete = false;
          keys = List.init 100 (fun i -> (i * 10) + 33);
        };
    ]

let test_seq_bounds () =
  List.iter
    (fun seq ->
      let req = { P.seq; op = P.Size } in
      Alcotest.(check int) "seq" seq (roundtrip_request req).P.seq)
    [ 0; 1; 0xFFFFFFFF ];
  List.iter
    (fun seq ->
      match encode_frame P.encode_request { P.seq; op = P.Size } with
      | _ -> Alcotest.failf "seq %d accepted" seq
      | exception Invalid_argument _ -> ())
    [ -1; 0x100000000 ]

let test_encode_rejects_bad_batches () =
  List.iter
    (fun op ->
      match encode_frame P.encode_request { P.seq = 1; op } with
      | _ -> Alcotest.fail "bad batch accepted"
      | exception Invalid_argument _ -> ())
    [ P.Batch [ P.Size ]; P.Batch [ P.Batch [] ] ]

let test_encode_rejects_bad_scans () =
  (* Count bounds are enforced on both sides of the wire; the encoder
     is the caller-bug side. *)
  List.iter
    (fun op ->
      match encode_frame P.encode_request { P.seq = 1; op } with
      | _ -> Alcotest.fail "bad scan count accepted"
      | exception Invalid_argument _ -> ())
    [
      P.Scan { cursor = -1; count = 0 };
      P.Scan { cursor = -1; count = P.max_page_keys + 1 };
      P.Range { lo = 0; hi = 10; cursor = -1; count = 0 };
      P.Range { lo = 0; hi = 10; cursor = -1; count = 70_000 };
    ];
  match
    encode_frame P.encode_response
      {
        P.seq = 1;
        result =
          P.Page
            {
              cut = 0;
              next_cursor = 0;
              complete = false;
              keys = List.init (P.max_page_keys + 1) Fun.id;
            };
      }
  with
  | _ -> Alcotest.fail "oversized PAGE accepted"
  | exception Invalid_argument _ -> ()

(* Frames are written in place: encoding into a cleared, pre-grown
   buffer allocates no scratch payload and no boxed integer, and a
   rejected encode leaves the buffer as it was. *)
let test_encode_in_place () =
  let b = Buffer.create 4096 in
  let words_per_encode encode v =
    let n = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Buffer.clear b;
      encode b v
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let check what w =
    if w > 2. then Alcotest.failf "%s: %.2f minor words per encode" what w
  in
  check "INSERT request"
    (words_per_encode P.encode_request { P.seq = 7; op = P.Insert 123_456 });
  check "Bool response"
    (words_per_encode P.encode_response { P.seq = 7; result = P.Bool true });
  Buffer.clear b;
  P.encode_request b { P.seq = 1; op = P.Insert 1 };
  let frame = Buffer.contents b in
  let bad = P.Batch [ P.Insert 2; P.Size ] in
  (match P.encode_request b { P.seq = 2; op = bad } with
  | () -> Alcotest.fail "bad batch accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "buffer untouched by a rejected encode" frame
    (Buffer.contents b)

(* qcheck: arbitrary op trees (bounded) survive the full stack, even
   when the stream arrives one byte at a time. *)
let gen_simple_op =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> P.Insert k) (int_bound 1_000_000);
        map (fun k -> P.Delete k) (int_bound 1_000_000);
        map (fun k -> P.Member k) (int_bound 1_000_000);
        map2
          (fun remove add -> P.Replace { remove; add })
          (int_bound 1_000_000) (int_bound 1_000_000);
      ])

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        gen_simple_op;
        return P.Size;
        map (fun l -> P.Batch l) (list_size (int_bound 20) gen_simple_op);
        map2
          (fun cursor count -> P.Scan { cursor; count = count + 1 })
          (int_range (-1) 1_000_000)
          (int_bound (P.max_page_keys - 1));
        map
          (fun (lo, hi, cursor, count) ->
            P.Range { lo; hi; cursor; count = count + 1 })
          (quad (int_bound 1_000_000) (int_bound 1_000_000)
             (int_range (-1) 1_000_000)
             (int_bound (P.max_page_keys - 1)));
      ])

(* Arbitrary PAGE responses round-trip, including the empty and the
   full page. *)
let gen_page =
  QCheck2.Gen.(
    map
      (fun (cut, start, complete, keys) ->
        (* ascending, as the server produces them *)
        let keys = List.sort_uniq compare keys in
        let next_cursor =
          match List.rev keys with [] -> start | k :: _ -> k
        in
        P.Page { cut; next_cursor; complete; keys })
      (quad (int_range (-1) 1_000_000) (int_range (-1) 100) bool
         (list_size (int_bound 200) (int_bound 1_000_000))))

let prop_page_roundtrip =
  Tutil.qtest ~count:100 "PAGE responses round-trip bytewise" gen_page
    (fun result ->
      let resp = { P.seq = 3; result } in
      let got, bad =
        decode_stream ~chunk:1 P.decode_response
          (encode_frame P.encode_response resp)
      in
      bad = None && got = [ Ok resp ])

let prop_pipeline_roundtrip =
  Tutil.qtest ~count:100 "pipelined frames round-trip bytewise"
    QCheck2.Gen.(list_size (int_bound 10) gen_op)
    (fun ops ->
      let reqs = List.mapi (fun i op -> { P.seq = i + 1; op }) ops in
      let b = Buffer.create 256 in
      List.iter (P.encode_request b) reqs;
      let got, bad = decode_stream ~chunk:1 P.decode_request (Buffer.to_bytes b) in
      bad = None && got = List.map (fun r -> Ok r) reqs)

(* ------------------------------------------------------------------ *)
(* Hostile input *)

let test_truncation_never_decodes () =
  (* Every strict prefix of a valid frame must yield nothing (waiting
     for more bytes), not a bogus decode and not an exception. *)
  let frame =
    encode_frame P.encode_request
      { P.seq = 5; op = P.Replace { remove = 9; add = 10 } }
  in
  for cut = 0 to Bytes.length frame - 1 do
    match decode_stream P.decode_request (Bytes.sub frame 0 cut) with
    | [], None -> ()
    | _, Some m -> Alcotest.failf "prefix of %d bytes: framing error %s" cut m
    | l, None -> Alcotest.failf "prefix of %d bytes decoded %d frames" cut (List.length l)
  done

let bad_frame bytes =
  match decode_stream P.decode_request bytes with
  | _, Some _ -> ()
  | l, None ->
      Alcotest.failf "hostile frame accepted (%d payloads, %d buffered)"
        (List.length l) (Bytes.length bytes)

let u32_frame_header n rest =
  let b = Buffer.create 16 in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b rest;
  Buffer.to_bytes b

let test_hostile_prefixes () =
  (* Oversized length prefix: rejected before any allocation. *)
  bad_frame (u32_frame_header (P.max_frame_payload + 1) "");
  bad_frame (u32_frame_header 0xFFFFFFFF "");
  (* Undersized: a payload cannot even hold seq + opcode. *)
  bad_frame (u32_frame_header 0 "");
  bad_frame (u32_frame_header 4 "xxxx")

let decode_err payload =
  let bytes = u32_frame_header (String.length payload) payload in
  match decode_stream P.decode_request bytes with
  | [ Error _ ], None -> ()
  | [ Ok _ ], None -> Alcotest.fail "garbage payload decoded"
  | _, Some m -> Alcotest.failf "framing (not decode) error: %s" m
  | _ -> Alcotest.fail "unexpected decode outcome"

let test_garbage_payloads () =
  decode_err "\x00\x00\x00\x01\xC8";           (* unknown opcode 200 *)
  decode_err "\x00\x00\x00\x01\x01\x00\x00";   (* INSERT with truncated key *)
  decode_err "\x00\x00\x00\x01\x04\x00\x00\x00\x00\x00\x00\x00\x01"; (* REPLACE missing add *)
  decode_err "\x00\x00\x00\x01\x05\xFF";       (* SIZE with trailing bytes *)
  decode_err "\x00\x00\x00\x01\x06\x00\x01\x06\x00\x00"; (* nested BATCH *)
  decode_err "\x00\x00\x00\x01\x06\x00\x01\x05";         (* SIZE inside BATCH *)
  decode_err "\x00\x00\x00\x01\x06\x00\x02\x03\x00\x00\x00\x00\x00\x00\x00\x01"; (* BATCH count beyond body *)
  (* i64 that does not fit a 63-bit OCaml int *)
  decode_err "\x00\x00\x00\x01\x01\x80\x00\x00\x00\x00\x00\x00\x00";
  (* SCAN with truncated cursor *)
  decode_err "\x00\x00\x00\x01\x0B\x00\x00";
  (* SCAN with zero count *)
  decode_err
    "\x00\x00\x00\x01\x0B\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00";
  (* RANGE missing its cursor+count *)
  decode_err
    "\x00\x00\x00\x01\x0C\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x09";
  (* SCAN inside BATCH: the batch decoder only admits simple opcodes *)
  decode_err
    "\x00\x00\x00\x01\x06\x00\x01\x0B\x00\x00\x00\x00\x00\x00\x00\x00\x00\x10"

let test_garbage_response_payloads () =
  let err payload =
    let bytes = u32_frame_header (String.length payload) payload in
    match decode_stream P.decode_response bytes with
    | [ Error _ ], None -> ()
    | _ -> Alcotest.fail "garbage response accepted"
  in
  err "\x00\x00\x00\x01\x07";                  (* unknown status 7 *)
  err "\x00\x00\x00\x01\x02\x00";              (* COUNT with truncated value *)
  err "\x00\x00\x00\x01\x03\x00\x02\x01";      (* MANY count beyond body *)
  err "\x00\x00\x00\x01\x03\x00\x01\x02";      (* MANY element not a boolean *)
  err "\x00\x00\x00\x01\x00\xFF";              (* FALSE with trailing bytes *)
  (* PAGE: truncated header (cut only) *)
  err "\x00\x00\x00\x01\x06\x00\x00\x00\x00\x00\x00\x00\x01";
  (* PAGE: complete flag that is not a boolean *)
  err
    "\x00\x00\x00\x01\x06\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x07\x00\x00";
  (* PAGE: key count pointing beyond the body *)
  err
    "\x00\x00\x00\x01\x06\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x01\x00\x03\x00\x00\x00\x00\x00\x00\x00\x09"

(* The stream stays synchronized across an app-level error: a valid
   frame after a garbage-payload frame still decodes. *)
let test_resync_after_decode_error () =
  let b = Buffer.create 64 in
  Buffer.add_bytes b (u32_frame_header 5 "\x00\x00\x00\x01\xC8");
  P.encode_request b { P.seq = 2; op = P.Size };
  match decode_stream P.decode_request (Buffer.to_bytes b) with
  | [ Error _; Ok { P.seq = 2; op = P.Size } ], None -> ()
  | _ -> Alcotest.fail "stream did not resynchronize after a bad payload"

let test_reader_compaction () =
  (* Many frames through a reader fed in odd-sized chunks: exercises
     compaction and growth of the internal buffer. *)
  let b = Buffer.create 4096 in
  let reqs =
    List.init 200 (fun i ->
        { P.seq = i + 1; op = P.Batch (List.init 30 (fun j -> P.Insert (i + j))) })
  in
  List.iter (P.encode_request b) reqs;
  let got, bad = decode_stream ~chunk:7 P.decode_request (Buffer.to_bytes b) in
  Alcotest.(check bool) "no framing error" true (bad = None);
  Alcotest.(check bool) "all frames" true (got = List.map (fun r -> Ok r) reqs)

let () =
  Alcotest.run "protocol"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "requests" `Quick test_request_roundtrips;
          Alcotest.test_case "responses" `Quick test_response_roundtrips;
          Alcotest.test_case "seq bounds" `Quick test_seq_bounds;
          Alcotest.test_case "encode rejects bad batches" `Quick
            test_encode_rejects_bad_batches;
          Alcotest.test_case "encode rejects bad scans" `Quick
            test_encode_rejects_bad_scans;
          Alcotest.test_case "encode in place" `Quick test_encode_in_place;
          prop_pipeline_roundtrip;
          prop_page_roundtrip;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "truncation" `Quick test_truncation_never_decodes;
          Alcotest.test_case "length prefixes" `Quick test_hostile_prefixes;
          Alcotest.test_case "garbage requests" `Quick test_garbage_payloads;
          Alcotest.test_case "garbage responses" `Quick
            test_garbage_response_payloads;
          Alcotest.test_case "resync after bad payload" `Quick
            test_resync_after_decode_error;
          Alcotest.test_case "reader compaction" `Quick test_reader_compaction;
        ] );
    ]
