(* The Tail cursor — the replication read path over WAL segments:
   offline reads over sealed logs, rotation-straddling cursors, torn
   final segments, loud errors when the requested history was
   checkpointed away, the [keep_from] retention low-water mark that an
   attached cursor pins, and live cursors that follow group commit
   without ever delivering past the durable horizon. *)

module Wal = Persist.Wal

let tmpdir = Tutil.fresh_dirs "wal_tail_test"

let append_file path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let last_segment dir =
  match List.rev (Sys.readdir dir |> Array.to_list |> List.sort compare
                  |> List.filter (fun n -> Filename.check_suffix n ".seg"))
  with
  | seg :: _ -> Filename.concat dir seg
  | [] -> Alcotest.fail "no wal segment found"

let segment_count dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".seg")
  |> List.length

(* Drain an offline cursor to the end of the log. *)
let drain t =
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    match Wal.Tail.next_batch t ~max_records:64 ~timeout_s:0.0 with
    | [] -> continue := false
    | batch -> acc := List.rev_append batch !acc
  done;
  List.rev !acc

let open_tail ?writer ~dir ~from_seq () =
  match Wal.Tail.open_ ~dir ?writer ~from_seq () with
  | Result.Ok t -> t
  | Result.Error m -> Alcotest.fail ("Tail.open_: " ^ m)

let write_log ?segment_bytes ~dir ~start_seq n =
  let w = Wal.Writer.create ~dir ~start_seq ?segment_bytes ~fsync:false () in
  for k = 0 to n - 1 do
    (* Per-append wait keeps batches small so tiny segments rotate. *)
    Wal.Writer.wait_durable w (Wal.Writer.append w (Wal.Insert k))
  done;
  Wal.Writer.stop w

let check_seqs name expected got =
  Alcotest.(check (list int)) name expected (List.map fst got)

(* ------------------------------------------------------------------ *)

let test_offline_sealed_log () =
  let dir = tmpdir () in
  write_log ~dir ~start_seq:1 20;
  let t = open_tail ~dir ~from_seq:1 () in
  let got = drain t in
  check_seqs "all records in order" (List.init 20 (fun i -> i + 1)) got;
  List.iteri
    (fun i (_, r) ->
      if r <> Wal.Insert i then Alcotest.fail "record payload mismatch")
    got;
  (* Cursor position is one past the last delivered record. *)
  Alcotest.(check int) "pos_seq" 21 (Wal.Tail.pos_seq t);
  Alcotest.(check int) "nothing left unread" 0 (Wal.Tail.lag_bytes t);
  Wal.Tail.close t;
  (* Mid-log start: delivery begins at the first seq >= from_seq. *)
  let t2 = open_tail ~dir ~from_seq:13 () in
  check_seqs "suffix from 13" (List.init 8 (fun i -> i + 13)) (drain t2);
  Wal.Tail.close t2

let test_cursor_straddles_rotation () =
  let dir = tmpdir () in
  (* Tiny segments force many rotations (same size as the writer's own
     rotation test). *)
  write_log ~segment_bytes:8192 ~dir ~start_seq:1 2000;
  if segment_count dir < 3 then Alcotest.fail "expected several segments";
  let t = open_tail ~dir ~from_seq:1 () in
  let got = drain t in
  check_seqs "every record across rotations"
    (List.init 2000 (fun i -> i + 1))
    got;
  Wal.Tail.close t;
  (* A cursor opened mid-log lands in an interior segment and still
     follows the remaining rotations. *)
  let t2 = open_tail ~dir ~from_seq:1234 () in
  check_seqs "mid-log start follows rotations"
    (List.init 767 (fun i -> i + 1234))
    (drain t2);
  Wal.Tail.close t2

let test_torn_final_segment () =
  let dir = tmpdir () in
  write_log ~dir ~start_seq:1 20;
  (* A crash mid-write leaves a prefix of a frame at the tail; an
     offline cursor must stop quietly at exactly the bytes scan would
     truncate. *)
  append_file (last_segment dir) "\000\000\000\017\222\173\190\239partial";
  let t = open_tail ~dir ~from_seq:1 () in
  check_seqs "intact prefix only" (List.init 20 (fun i -> i + 1)) (drain t);
  Wal.Tail.close t;
  (* A cursor positioned inside the torn region delivers nothing rather
     than garbage. *)
  let t2 = open_tail ~dir ~from_seq:21 () in
  Alcotest.(check int) "nothing from the torn tail" 0
    (List.length (drain t2));
  Wal.Tail.close t2

let test_from_seq_checkpointed_away () =
  let dir = tmpdir () in
  write_log ~segment_bytes:8192 ~dir ~start_seq:1 2000;
  ignore (Wal.delete_obsolete_segments ~dir ~upto:2000 () : int);
  let oldest_base =
    match Sys.readdir dir |> Array.to_list |> List.sort compare
          |> List.filter (fun n -> Filename.check_suffix n ".seg")
    with
    | seg :: _ ->
        Scanf.sscanf seg "wal-%x.seg" (fun b -> b)
    | [] -> Alcotest.fail "no segment"
  in
  if oldest_base <= 1 then Alcotest.fail "GC removed nothing";
  (* Streaming from a seq whose history is gone must be a loud error —
     a silent empty diff would lose acknowledged operations. *)
  (match Wal.Tail.open_ ~dir ~from_seq:1 () with
  | Result.Ok t ->
      Wal.Tail.close t;
      Alcotest.fail "cursor into checkpointed-away history accepted"
  | Result.Error m ->
      Alcotest.(check bool) "error says resync" true
        (let has sub =
           let n = String.length sub and len = String.length m in
           let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
           go 0
         in
         has "resync"));
  (* Exactly the oldest retained base is still streamable. *)
  let t = open_tail ~dir ~from_seq:oldest_base () in
  check_seqs "oldest retained onward"
    (List.init (2000 - oldest_base + 1) (fun i -> i + oldest_base))
    (drain t);
  Wal.Tail.close t

let test_retention_floor_keeps_segments () =
  let dir = tmpdir () in
  write_log ~segment_bytes:8192 ~dir ~start_seq:1 2000;
  let before = segment_count dir in
  if before < 3 then Alcotest.fail "expected several segments";
  (* A checkpoint at the head would normally release everything, but an
     attached cursor at seq 900 pins its segment and all later ones. *)
  let deleted = Wal.delete_obsolete_segments ~dir ~upto:2000 ~keep_from:900 () in
  let t = open_tail ~dir ~from_seq:900 () in
  check_seqs "pinned history still streams"
    (List.init 1101 (fun i -> i + 900))
    (drain t);
  Wal.Tail.close t;
  (* With the floor lifted, the rest of the prefix goes too. *)
  let deleted2 = Wal.delete_obsolete_segments ~dir ~upto:2000 () in
  if deleted2 = 0 && deleted < before - 1 then
    Alcotest.fail "lifting keep_from released nothing";
  Alcotest.(check int) "only the active segment survives" 1 (segment_count dir)

let test_live_cursor_follows_writer () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  for k = 1 to 10 do ignore (Wal.Writer.append w (Wal.Insert k) : int) done;
  Wal.Writer.wait_durable w 10;
  let t = open_tail ~writer:w ~dir ~from_seq:1 () in
  let first = Wal.Tail.next_batch t ~max_records:100 ~timeout_s:0.5 in
  check_seqs "initial durable prefix" (List.init 10 (fun i -> i + 1)) first;
  (* Nothing new yet: a live cursor blocks (bounded) and returns []. *)
  Alcotest.(check int) "drained head returns empty" 0
    (List.length (Wal.Tail.next_batch t ~max_records:100 ~timeout_s:0.01));
  (* Records appended after the cursor opened are delivered once
     durable. *)
  for k = 11 to 15 do ignore (Wal.Writer.append w (Wal.Insert k) : int) done;
  Wal.Writer.wait_durable w 15;
  let more = Wal.Tail.next_batch t ~max_records:100 ~timeout_s:0.5 in
  check_seqs "records appended after open" (List.init 5 (fun i -> i + 11)) more;
  Wal.Writer.stop w;
  Wal.Tail.close t

let test_live_cursor_never_passes_durable () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  let stop = Atomic.make false in
  let writer_dom =
    Domain.spawn (fun () ->
        let k = ref 0 in
        while not (Atomic.get stop) do
          ignore (Wal.Writer.append w (Wal.Insert !k) : int);
          incr k
        done)
  in
  let t = open_tail ~writer:w ~dir ~from_seq:1 () in
  (* Race the cursor against the writer: every delivered record must be
     durable at the moment the batch returns, in order, gap-free. *)
  let next_expected = ref 1 in
  let deadline = Unix.gettimeofday () +. 1.0 in
  while Unix.gettimeofday () < deadline do
    let batch = Wal.Tail.next_batch t ~max_records:256 ~timeout_s:0.05 in
    let durable_now = Wal.Writer.durable_upto w in
    List.iter
      (fun (seq, _) ->
        if seq <> !next_expected then
          Alcotest.failf "gap: expected %d got %d" !next_expected seq;
        if seq > durable_now then
          Alcotest.failf "seq %d delivered beyond durable %d" seq durable_now;
        incr next_expected)
      batch
  done;
  Atomic.set stop true;
  Domain.join writer_dom;
  if !next_expected < 100 then Alcotest.fail "cursor made no progress";
  Wal.Writer.stop w;
  Wal.Tail.close t

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wal_tail"
    [
      ( "offline",
        [
          Alcotest.test_case "sealed log, full + mid-log start" `Quick
            test_offline_sealed_log;
          Alcotest.test_case "cursor straddles rotation" `Quick
            test_cursor_straddles_rotation;
          Alcotest.test_case "torn final segment stops quietly" `Quick
            test_torn_final_segment;
          Alcotest.test_case "checkpointed-away history errors loudly" `Quick
            test_from_seq_checkpointed_away;
          Alcotest.test_case "keep_from pins segments" `Quick
            test_retention_floor_keeps_segments;
        ] );
      ( "live",
        [
          Alcotest.test_case "follows group commit" `Quick
            test_live_cursor_follows_writer;
          Alcotest.test_case "never delivers past durable" `Quick
            test_live_cursor_never_passes_durable;
        ] );
    ]
