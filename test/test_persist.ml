(* The durability layer: WAL framing and group commit, checkpoint
   images, and the recovery edge cases — empty directory, checkpoint
   with no log tail, torn final record, double-replay idempotence,
   valid-header/truncated-body segments, and checkpointing beside live
   concurrent traffic. *)

module Wal = Persist.Wal
module Checkpoint = Persist.Checkpoint

module Pstore = Node.Store

let tmpdir = Tutil.fresh_dirs "persist_test"

let scan_all ~dir =
  let acc = ref [] in
  match
    Wal.scan ~dir ~replay_from:(-1) ~repair:true ~f:(fun ~seq op a b ->
        acc := (seq, Wal.record_of op a b) :: !acc)
  with
  | Result.Ok s -> (s, List.rev !acc)
  | Result.Error m -> Alcotest.fail ("scan: " ^ m)

let sorted_keys store = List.sort compare (Pstore.to_list store)

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

(* Copy every file of [src] into [dst], one at a time, as a crash
   image: a file being appended may be cut mid-frame. *)
let copy_files ~src ~dst =
  Array.iter
    (fun n ->
      let b =
        let ic = open_in_bin (Filename.concat src n) in
        let len = in_channel_length ic in
        let b = really_input_string ic len in
        close_in ic; b
      in
      let oc = open_out_bin (Filename.concat dst n) in
      output_string oc b;
      close_out oc)
    (Sys.readdir src)

(* ------------------------------------------------------------------ *)
(* WAL *)

let test_wal_roundtrip () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  let recs =
    [ Wal.Insert 42; Wal.Delete 42; Wal.Replace { remove = 7; add = 9 };
      Wal.Insert 0; Wal.Insert max_int ]
  in
  let seqs = List.map (Wal.Writer.append w) recs in
  Wal.Writer.wait_durable w (List.nth seqs 4);
  Wal.Writer.stop w;
  let s, got = scan_all ~dir in
  Alcotest.(check (list int)) "dense seqs" [ 1; 2; 3; 4; 5 ] seqs;
  Alcotest.(check int) "last_seq" 5 s.Wal.last_seq;
  Alcotest.(check bool) "not torn" false s.Wal.torn;
  Alcotest.(check int) "records" 5 s.Wal.records;
  List.iter2
    (fun (seq, r) (seq', r') ->
      Alcotest.(check int) "seq" seq' seq;
      if r <> r' then Alcotest.fail "record mismatch")
    got
    (List.combine seqs recs)

let test_wal_replay_from () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  for k = 1 to 10 do ignore (Wal.Writer.append w (Wal.Insert k) : int) done;
  Wal.Writer.wait_durable w 10;
  Wal.Writer.stop w;
  let n = ref 0 in
  (match Wal.scan ~dir ~replay_from:7 ~repair:false ~f:(fun ~seq:_ _ _ _ -> incr n) with
  | Result.Ok s ->
      Alcotest.(check int) "replayed" 3 s.Wal.replayed;
      Alcotest.(check int) "records" 10 s.Wal.records
  | Result.Error m -> Alcotest.fail m);
  Alcotest.(check int) "f called for tail only" 3 !n

let test_group_commit_multidomain () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:100 ~fsync:false () in
  let per = 500 and doms = 4 in
  let workers =
    List.init doms (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let seq = Wal.Writer.append w (Wal.Insert ((d * per) + i)) in
              if i mod 50 = 0 then Wal.Writer.wait_durable w seq
            done))
  in
  List.iter Domain.join workers;
  Wal.Writer.wait_durable w (Wal.Writer.last_assigned w);
  Alcotest.(check int) "durable = assigned"
    (Wal.Writer.last_assigned w)
    (Wal.Writer.durable_upto w);
  Wal.Writer.stop w;
  let s, got = scan_all ~dir in
  Alcotest.(check int) "all records" (per * doms) s.Wal.records;
  Alcotest.(check int) "last_seq" (100 + (per * doms) - 1) s.Wal.last_seq;
  (* Every published record is in the log exactly once. *)
  let keys = List.map (function _, Wal.Insert k -> k | _ -> -1) got in
  Alcotest.(check (list int)) "every mutation logged once"
    (List.init (per * doms) Fun.id)
    (List.sort compare keys)

let test_wal_rotation () =
  let dir = tmpdir () in
  (* Tiny segments force many rotations. *)
  let w =
    Wal.Writer.create ~dir ~start_seq:1 ~segment_bytes:8192 ~fsync:false ()
  in
  (* Waiting per append keeps batches small — a batch is never split
     across segments, so rotation only happens between batches. *)
  for k = 1 to 2000 do
    Wal.Writer.wait_durable w (Wal.Writer.append w (Wal.Insert k))
  done;
  Wal.Writer.stop w;
  let s, _ = scan_all ~dir in
  Alcotest.(check int) "records survive rotation" 2000 s.Wal.records;
  if s.Wal.segments < 2 then Alcotest.fail "expected multiple segments";
  (* A checkpoint cut at the end releases all but the active segment. *)
  let deleted = Wal.delete_obsolete_segments ~dir ~upto:2000 () in
  Alcotest.(check int) "all but last deleted" (s.Wal.segments - 1) deleted;
  let s', _ = scan_all ~dir in
  Alcotest.(check int) "survivor still scans" 1 s'.Wal.segments

let test_torn_tail_truncated () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  for k = 1 to 20 do ignore (Wal.Writer.append w (Wal.Insert k) : int) done;
  Wal.Writer.wait_durable w 20;
  Wal.Writer.stop w;
  (* A crash mid-write leaves a prefix of a frame at the tail. *)
  append_file (last_segment dir) "\000\000\000\017\222\173\190\239partial";
  let s, _ = scan_all ~dir in
  Alcotest.(check bool) "torn detected" true s.Wal.torn;
  Alcotest.(check int) "intact prefix kept" 20 s.Wal.records;
  (* The scan physically truncated the tail: a second scan is clean. *)
  let s', _ = scan_all ~dir in
  Alcotest.(check bool) "tail gone after truncation" false s'.Wal.torn;
  Alcotest.(check int) "same records" 20 s'.Wal.records

let test_short_frame_tail () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  for k = 1 to 5 do ignore (Wal.Writer.append w (Wal.Insert k) : int) done;
  Wal.Writer.wait_durable w 5;
  Wal.Writer.stop w;
  (* Fewer bytes than even a frame header. *)
  append_file (last_segment dir) "\000\000\000";
  let s, _ = scan_all ~dir in
  Alcotest.(check bool) "torn" true s.Wal.torn;
  Alcotest.(check int) "records" 5 s.Wal.records

let test_header_only_segment () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  for k = 1 to 5 do ignore (Wal.Writer.append w (Wal.Insert k) : int) done;
  Wal.Writer.wait_durable w 5;
  Wal.Writer.stop w;
  (* A rotation that died right after writing the new segment's header:
     valid header, truncated (empty) body. *)
  let seg1 = Filename.concat dir (Wal.segment_name 6) in
  let w2 = Wal.Writer.create ~dir ~start_seq:6 ~fsync:false () in
  Wal.Writer.stop w2;
  Alcotest.(check bool) "second segment exists" true (Sys.file_exists seg1);
  let s, _ = scan_all ~dir in
  Alcotest.(check bool) "not torn" false s.Wal.torn;
  Alcotest.(check int) "records" 5 s.Wal.records;
  Alcotest.(check int) "segments" 2 s.Wal.segments;
  (* Same, but the header itself is cut short: the last segment is
     unreadable garbage and is deleted outright. *)
  Unix.truncate seg1 10;
  let s', _ = scan_all ~dir in
  Alcotest.(check bool) "torn (header)" true s'.Wal.torn;
  Alcotest.(check bool) "deleted" false (Sys.file_exists seg1);
  let s'', _ = scan_all ~dir in
  Alcotest.(check bool) "clean after delete" false s''.Wal.torn;
  Alcotest.(check int) "records intact" 5 s''.Wal.records

let test_mid_log_corruption_is_error () =
  let dir = tmpdir () in
  let w =
    Wal.Writer.create ~dir ~start_seq:1 ~segment_bytes:8192 ~fsync:false ()
  in
  for k = 1 to 2000 do
    Wal.Writer.wait_durable w (Wal.Writer.append w (Wal.Insert k))
  done;
  Wal.Writer.stop w;
  (* Flip a byte in the FIRST segment — not a tail, so this is data
     loss and must be a loud error, never a silent truncation. *)
  let first =
    match Sys.readdir dir |> Array.to_list |> List.sort compare
          |> List.filter (fun n -> Filename.check_suffix n ".seg")
    with
    | seg :: _ -> Filename.concat dir seg
    | [] -> Alcotest.fail "no segment"
  in
  let fd = Unix.openfile first [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 100 Unix.SEEK_SET : int);
  ignore (Unix.write_substring fd "\255" 0 1 : int);
  Unix.close fd;
  match Wal.scan ~dir ~replay_from:(-1) ~repair:true ~f:(fun ~seq:_ _ _ _ -> ()) with
  | Result.Ok _ -> Alcotest.fail "mid-log corruption not reported"
  | Result.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Store recovery *)

let mk_store ?(mode = Pstore.Sync) ?(universe = 1 lsl 12) dir =
  Pstore.open_ ~dir ~universe ~mode ()

let test_empty_dir () =
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Ephemeral dir in
  let ri = Pstore.recovery_info s in
  Alcotest.(check int) "size" 0 (Pstore.size s);
  Alcotest.(check int) "segments" 0 ri.Pstore.wal_segments;
  Alcotest.(check bool) "no checkpoint" true (ri.Pstore.checkpoint_seq = None);
  Pstore.close s;
  (* Even a directory that does not exist yet. *)
  let s2 = mk_store (Filename.concat dir "a/b/c") in
  Alcotest.(check int) "fresh nested dir" 0 (Pstore.size s2);
  ignore (Pstore.insert s2 1 : bool);
  Pstore.barrier s2;
  Pstore.close s2

let test_wal_only_recovery () =
  let dir = tmpdir () in
  let s = mk_store dir in
  ignore (Pstore.insert s 1 : bool);
  ignore (Pstore.insert s 2 : bool);
  ignore (Pstore.delete s 1 : bool);
  ignore (Pstore.replace s ~remove:2 ~add:3 : bool);
  ignore (Pstore.insert s 2 : bool);
  (* A no-op mutation must not be logged. *)
  Alcotest.(check bool) "dup insert refused" false (Pstore.insert s 2);
  Pstore.barrier s;
  Pstore.close s;
  let s2 = mk_store ~mode:Pstore.Ephemeral dir in
  let ri = Pstore.recovery_info s2 in
  Alcotest.(check (list int)) "state" [ 2; 3 ] (sorted_keys s2);
  Alcotest.(check int) "five acked mutations logged" 5 ri.Pstore.wal_records;
  Pstore.close s2

let test_checkpoint_no_tail () =
  let dir = tmpdir () in
  let s = mk_store dir in
  for k = 1 to 100 do ignore (Pstore.insert s k : bool) done;
  let keys0 = sorted_keys s in
  let _keys, _deleted = Pstore.checkpoint s in
  Pstore.close s;
  (* Remove every WAL segment: the checkpoint alone must carry the
     state (the "no tail" case). *)
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".seg" then Sys.remove (Filename.concat dir n))
    (Sys.readdir dir);
  let s2 = mk_store ~mode:Pstore.Ephemeral dir in
  let ri = Pstore.recovery_info s2 in
  Alcotest.(check (list int)) "checkpoint alone restores" keys0 (sorted_keys s2);
  Alcotest.(check int) "nothing replayed" 0 ri.Pstore.wal_replayed;
  Alcotest.(check bool) "checkpoint loaded" true (ri.Pstore.checkpoint_seq <> None);
  Pstore.close s2

let test_double_replay_idempotent () =
  let dir = tmpdir () in
  let s = mk_store dir in
  let rng = Rng.of_int_seed 99 in
  for _ = 1 to 2000 do
    let k = Rng.int rng 512 in
    match Rng.int rng 3 with
    | 0 -> ignore (Pstore.insert s k : bool)
    | 1 -> ignore (Pstore.delete s k : bool)
    | _ -> ignore (Pstore.replace s ~remove:k ~add:(Rng.int rng 512) : bool)
  done;
  (* Checkpoint mid-history so recovery is image + tail. *)
  let _ = Pstore.checkpoint s in
  for _ = 1 to 500 do ignore (Pstore.insert s (Rng.int rng 512) : bool) done;
  let final = sorted_keys s in
  Pstore.barrier s;
  Pstore.close s;
  let r1 = mk_store ~mode:Pstore.Ephemeral dir in
  let r2 = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check (list int)) "replay = live state" final (sorted_keys r1);
  Alcotest.(check (list int)) "second replay identical" (sorted_keys r1)
    (sorted_keys r2);
  (match Core.Patricia.check_invariants (Pstore.underlying r1) with
  | Result.Ok () -> ()
  | Result.Error m -> Alcotest.fail ("invariants after recovery: " ^ m));
  Pstore.close r1;
  Pstore.close r2

(* A checkpoint reads its cut before it snapshots, so the image can
   already hold records past the cut that recovery replays again.  A
   replace chain re-run over such an image must land where the live
   history did: 1 -> 2 -> 3 and then 1 again leaves {1, 3}, not the
   {1, 2, 3} a conditional replay of "replace 2 -> 3" (3 present: no-op)
   would leave. *)
let test_image_ahead_of_cut () =
  let dir = tmpdir () in
  let s = mk_store dir in
  ignore (Pstore.insert s 1 : bool);
  ignore (Pstore.replace s ~remove:1 ~add:2 : bool);
  ignore (Pstore.replace s ~remove:2 ~add:3 : bool);
  ignore (Pstore.insert s 1 : bool);
  Pstore.barrier s;
  let final = sorted_keys s in
  ignore
    (Checkpoint.write ~dir ~universe:(1 lsl 12) ~replay_from:0 ~keys:final
      : string);
  Pstore.close s;
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check (list int)) "replay over an image ahead of its cut" final
    (sorted_keys r)

let test_torn_tail_store_recovery () =
  let dir = tmpdir () in
  let s = mk_store dir in
  for k = 1 to 50 do ignore (Pstore.insert s k : bool) done;
  Pstore.barrier s;
  Pstore.close s;
  append_file (last_segment dir) "\000\000\000\017torn-bytes-here!!";
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  let ri = Pstore.recovery_info r in
  Alcotest.(check bool) "torn reported" true ri.Pstore.torn_tail;
  Alcotest.(check (list int)) "acked prefix intact"
    (List.init 50 (fun i -> i + 1))
    (sorted_keys r);
  Pstore.close r;
  (* A durable reopen truncates the tail and appends after it. *)
  let s2 = mk_store dir in
  ignore (Pstore.insert s2 1000 : bool);
  Pstore.barrier s2;
  Pstore.close s2;
  let r2 = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check bool) "clean after truncation"
    false (Pstore.recovery_info r2).Pstore.torn_tail;
  Alcotest.(check (list int)) "old + new state"
    (List.init 50 (fun i -> i + 1) @ [ 1000 ])
    (sorted_keys r2);
  Pstore.close r2

let test_universe_mismatch () =
  let dir = tmpdir () in
  let s = mk_store ~universe:1024 dir in
  ignore (Pstore.insert s 1 : bool);
  let _ = Pstore.checkpoint s in
  Pstore.close s;
  (match Pstore.open_ ~dir ~universe:2048 ~mode:Pstore.Ephemeral () with
  | exception Failure _ -> ()
  | s' ->
      Pstore.close s';
      Alcotest.fail "checkpoint for another universe accepted");
  (* A log alone carries no universe: a key outside the one it is
     opened with is an error, whatever record comes after it. *)
  let dir = tmpdir () in
  let s = mk_store ~universe:4096 dir in
  ignore (Pstore.insert s 3000 : bool);
  ignore (Pstore.delete s 3000 : bool);
  Pstore.close s;
  match Pstore.open_ ~dir ~universe:1024 ~mode:Pstore.Ephemeral () with
  | exception Failure _ -> ()
  | s' ->
      Pstore.close s';
      Alcotest.fail "a logged key outside the universe accepted"

let test_checkpoint_under_traffic () =
  let dir = tmpdir () in
  let universe = 1 lsl 10 in
  let s = mk_store ~universe dir in
  let stop = Atomic.make false in
  let workers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.of_int_seed (700 + d) in
            while not (Atomic.get stop) do
              let k = Rng.int rng universe in
              (match Rng.int rng 3 with
              | 0 -> ignore (Pstore.insert s k : bool)
              | 1 -> ignore (Pstore.delete s k : bool)
              | _ ->
                  ignore (Pstore.replace s ~remove:k ~add:(Rng.int rng universe)
                          : bool));
              Pstore.barrier s
            done))
  in
  (* Checkpoints race the mutators: each image must still recover to a
     state consistent with the log. *)
  for _ = 1 to 5 do
    ignore (Pstore.checkpoint s : int * int);
    Unix.sleepf 0.02
  done;
  Atomic.set stop true;
  List.iter Domain.join workers;
  let final = sorted_keys s in
  Pstore.close s;
  let r1 = mk_store ~mode:Pstore.Ephemeral ~universe dir in
  let r2 = mk_store ~mode:Pstore.Ephemeral ~universe dir in
  Alcotest.(check (list int)) "checkpoint+tail = final state" final
    (sorted_keys r1);
  Alcotest.(check (list int)) "idempotent" final (sorted_keys r2);
  (match Core.Patricia.check_invariants (Pstore.underlying r1) with
  | Result.Ok () -> ()
  | Result.Error m -> Alcotest.fail ("invariants: " ^ m));
  Pstore.close r1;
  Pstore.close r2

let test_chaos_sites_crossed () =
  let dir = tmpdir () in
  Chaos.with_policy ~name:"count" (fun _ -> ()) @@ fun () ->
  let s = mk_store dir in
  for k = 1 to 100 do
    ignore (Pstore.insert s k : bool);
    Pstore.barrier s
  done;
  let _ = Pstore.checkpoint s in
  Pstore.close s;
  let crossings = Chaos.site_crossings () in
  let count name = try List.assoc name crossings with Not_found -> 0 in
  if count "wal_append" = 0 then Alcotest.fail "wal_append never crossed";
  if count "wal_fsync" = 0 then Alcotest.fail "wal_fsync never crossed"

let test_async_mode_drains_on_close () =
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Async dir in
  for k = 1 to 500 do ignore (Pstore.insert s k : bool) done;
  (* No barrier: nothing commits these records before close does. *)
  Pstore.close s;
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check int) "all mutations on disk" 500 (Pstore.size r);
  Pstore.close r

(* Two sessions' acknowledged updates to one key reach the log in the
   order the set took them.  For each fresh key [r], domain A inserts
   [r] and domain B spins on [delete r] until it succeeds, which it can
   only do after A's insert; both wait for their commits.  Every key
   ends absent, so the set reopened from the log must be empty: a
   Delete logged before its Insert brings the key back.  With the log
   appended after the update and outside any lock, one trial of 20 000
   keys brought back 1-4 keys in 7 of 10 runs on a 2-core machine, so
   five trials run. *)
let log_order_trial () =
  let dir = tmpdir () in
  let rounds = 20_000 in
  let s = mk_store ~mode:Pstore.Async ~universe:(1 lsl 15) dir in
  let inserter =
    Domain.spawn (fun () ->
        for r = 0 to rounds - 1 do
          ignore (Pstore.insert s r : bool);
          Pstore.barrier s
        done)
  in
  for r = 0 to rounds - 1 do
    while not (Pstore.delete s r) do
      Domain.cpu_relax ()
    done;
    Pstore.barrier s
  done;
  Domain.join inserter;
  Alcotest.(check int) "live set empty" 0 (Pstore.size s);
  Pstore.close s;
  let r = mk_store ~mode:Pstore.Ephemeral ~universe:(1 lsl 15) dir in
  let back = sorted_keys r in
  Pstore.close r;
  Alcotest.(check (list int))
    (Printf.sprintf "%d keys back after reopen" (List.length back))
    [] back

let test_log_order_is_set_order () =
  for _ = 1 to 5 do
    log_order_trial ()
  done

(* A read or an update that returns false must not be acknowledged
   before the writes it observed are logged.  Domain A applies [held]
   and is held before its barrier, so its record sits queued, unwritten.
   The main domain then runs [op], which observes A's write and logs
   nothing itself, and calls [barrier], as the server does before it
   acknowledges a window.  A copy of the data directory taken then is
   what a [kill -9] would leave: reopened, it must hold the state [op]
   answered from, [key] present or absent as [expect] says.  [durable]
   keys are inserted and committed first. *)
let read_then_crash ~what ~durable ~held ~op ~key ~expect =
  let src = tmpdir () and dst = tmpdir () in
  let s = mk_store ~mode:Pstore.Async src in
  List.iter (fun k -> assert (Pstore.insert s k)) durable;
  Pstore.barrier s;
  let applied = Atomic.make false and release = Atomic.make false in
  let a =
    Domain.spawn (fun () ->
        let ok = held s in
        Atomic.set applied true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Pstore.barrier s;
        ok)
  in
  while not (Atomic.get applied) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) (what ^ ": the answer") true (op s);
  Pstore.barrier s;
  copy_files ~src ~dst;
  Atomic.set release true;
  assert (Domain.join a);
  Pstore.close s;
  let r = mk_store ~mode:Pstore.Ephemeral dst in
  let recovered = Pstore.member r key in
  Pstore.close r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: key %d %s in the crash image" what key
       (if expect then "present" else "absent"))
    expect recovered

let test_member_waits_for_its_write () =
  read_then_crash ~what:"member" ~durable:[]
    ~held:(fun s -> Pstore.insert s 5)
    ~op:(fun s -> Pstore.member s 5)
    ~key:5 ~expect:true

let test_failed_insert_waits () =
  read_then_crash ~what:"failed insert" ~durable:[]
    ~held:(fun s -> Pstore.insert s 5)
    ~op:(fun s -> not (Pstore.insert s 5))
    ~key:5 ~expect:true

let test_failed_delete_waits () =
  read_then_crash ~what:"failed delete" ~durable:[ 5 ]
    ~held:(fun s -> Pstore.delete s 5)
    ~op:(fun s -> not (Pstore.delete s 5))
    ~key:5 ~expect:false

let test_failed_replace_waits () =
  read_then_crash ~what:"failed replace" ~durable:[ 5 ]
    ~held:(fun s -> Pstore.insert s 7)
    ~op:(fun s -> not (Pstore.replace s ~remove:5 ~add:7))
    ~key:7 ~expect:true

let test_snapshot_waits () =
  read_then_crash ~what:"snapshot" ~durable:[]
    ~held:(fun s -> Pstore.insert s 5)
    ~op:(fun s ->
      match Pstore.snapshot s with
      | Some v -> v.Dset_intf.v_fold ~init:false ~f:(fun acc k -> acc || k = 5)
      | None -> Alcotest.fail "no snapshot capability")
    ~key:5 ~expect:true

(* A crash-consistency smoke that needs no processes: copy the data
   directory while the store is being mutated (what a kill would leave),
   then recover the copy.  The copy is taken file-at-a-time like a
   crash leaves it — tail possibly torn mid-frame. *)
let test_dirty_copy_recovers () =
  let src = tmpdir () in
  let dst = tmpdir () in
  let s = mk_store ~mode:Pstore.Async src in
  let stop = Atomic.make false in
  let mutator =
    Domain.spawn (fun () ->
        let rng = Rng.of_int_seed 31 in
        while not (Atomic.get stop) do
          ignore (Pstore.insert s (Rng.int rng 4096) : bool)
        done)
  in
  Unix.sleepf 0.05;
  (* Racy copy of every file, byte-ranged like a crash image. *)
  copy_files ~src ~dst;
  Atomic.set stop true;
  Domain.join mutator;
  Pstore.close s;
  let r = mk_store ~mode:Pstore.Ephemeral dst in
  (* Whatever was captured must recover without error and double-replay
     to the same state. *)
  let r2 = mk_store ~mode:Pstore.Ephemeral dst in
  Alcotest.(check (list int)) "dirty image replays deterministically"
    (sorted_keys r) (sorted_keys r2);
  (match Core.Patricia.check_invariants (Pstore.underlying r) with
  | Result.Ok () -> ()
  | Result.Error m -> Alcotest.fail ("invariants: " ^ m));
  Pstore.close r;
  Pstore.close r2

(* ------------------------------------------------------------------ *)
(* Recovery equivalence: the last-effect fold against per-record forced
   replay *)

(* Per-record forced replay, the oracle: load the newest image, then
   apply every record past its cut in log order, a Replace as a delete
   of [remove] and an insert of [add]. *)
let apply set = function
  | Wal.Insert k -> ignore (Core.Patricia.insert set k : bool)
  | Wal.Delete k -> ignore (Core.Patricia.delete set k : bool)
  | Wal.Replace { remove; add } ->
      ignore (Core.Patricia.delete set remove : bool);
      ignore (Core.Patricia.insert set add : bool)

let forced_replay ~dir ~universe =
  let set = Core.Patricia.create ~universe () in
  let replay_from =
    match Checkpoint.load_newest ~dir ~universe with
    | Result.Ok (Some c) ->
        List.iter (fun k -> ignore (Core.Patricia.insert set k : bool)) c.Checkpoint.keys;
        c.Checkpoint.replay_from
    | Result.Ok None -> -1
    | Result.Error m -> Alcotest.fail ("oracle: " ^ m)
  in
  (match
     Wal.scan ~dir ~replay_from ~repair:false ~f:(fun ~seq:_ op a b ->
         apply set (Wal.record_of op a b))
   with
  | Result.Ok _ -> ()
  | Result.Error m -> Alcotest.fail ("oracle: " ^ m));
  List.sort compare (Core.Patricia.to_list set)

(* One random history through a live store: inserts, deletes and
   replaces over a small universe, checkpoints at random cuts, perhaps
   an image written ahead of its cut, perhaps a torn tail.  Recovered
   twice, it must equal the oracle and the live set both times. *)
let equivalence_trial seed =
  let universe = 256 in
  let rng = Rng.of_int_seed seed in
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Async ~universe dir in
  let ops = 50 + Rng.int rng 400 in
  let ahead = Rng.int rng 4 = 0 and torn = Rng.int rng 4 = 0 in
  let ahead_at = Rng.int rng ops and last_cut = ref (-1) in
  for i = 1 to ops do
    let k = Rng.int rng universe in
    (match Rng.int rng 3 with
    | 0 -> ignore (Pstore.insert s k : bool)
    | 1 -> ignore (Pstore.delete s k : bool)
    | _ -> ignore (Pstore.replace s ~remove:k ~add:(Rng.int rng universe) : bool));
    if Rng.int rng 100 = 0 then begin
      last_cut := Pstore.scan_cut s;
      ignore (Pstore.checkpoint s : int * int)
    end;
    if ahead && i = ahead_at then begin
      (* An image of the state now, cut halfway back to the last one:
         its records past the cut replay over effects it holds. *)
      let cut = Pstore.scan_cut s in
      ignore
        (Checkpoint.write ~dir ~universe
           ~replay_from:(!last_cut + ((cut - !last_cut) / 2))
           ~keys:(sorted_keys s)
          : string)
    end
  done;
  let live = sorted_keys s in
  Pstore.close s;
  if torn then begin
    match last_segment dir with
    | seg -> append_file seg "\000\000\000\017torn-bytes-here!!"
    | exception _ -> ()
  end;
  let r1 = mk_store ~mode:Pstore.Ephemeral ~universe dir in
  let got1 = sorted_keys r1 in
  let oracle = forced_replay ~dir ~universe in
  let r2 = mk_store ~mode:Pstore.Ephemeral ~universe dir in
  let what = Printf.sprintf "seed %d" seed in
  Alcotest.(check (list int)) (what ^ ": recovered = forced replay") oracle got1;
  Alcotest.(check (list int)) (what ^ ": second open") got1 (sorted_keys r2);
  Alcotest.(check (list int)) (what ^ ": recovered = live") live got1;
  Alcotest.(check int)
    (what ^ ": every recovered key loaded")
    (List.length got1) (Pstore.recovery_info r1).Pstore.keys_loaded;
  (match Core.Patricia.check_invariants (Pstore.underlying r1) with
  | Result.Ok () -> ()
  | Result.Error m -> Alcotest.fail (what ^ ": invariants: " ^ m));
  Pstore.close r1;
  Pstore.close r2

let test_recovery_equivalence () =
  for seed = 1 to 60 do
    equivalence_trial seed
  done

(* Logs no live store would write: records on absent keys, replaces of
   a key by itself, and an image that disagrees with the log at an
   arbitrary cut.  Forced replay still defines the result. *)
let test_raw_log_equivalence () =
  let universe = 64 in
  for seed = 1 to 40 do
    let rng = Rng.of_int_seed (1000 + seed) in
    let dir = tmpdir () in
    let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
    let n = 1 + Rng.int rng 300 in
    let key () = Rng.int rng universe in
    for _ = 1 to n do
      let r =
        match Rng.int rng 4 with
        | 0 -> Wal.Insert (key ())
        | 1 -> Wal.Delete (key ())
        | 2 ->
            let k = key () in
            Wal.Replace { remove = k; add = k }
        | _ -> Wal.Replace { remove = key (); add = key () }
      in
      ignore (Wal.Writer.append w r : int)
    done;
    Wal.Writer.wait_durable w n;
    Wal.Writer.stop w;
    if Rng.bool rng then
      ignore
        (Checkpoint.write ~dir ~universe ~replay_from:(Rng.int rng (n + 1))
           ~keys:(List.init (Rng.int rng 20) (fun _ -> key ()))
          : string);
    let r = mk_store ~mode:Pstore.Ephemeral ~universe dir in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: recovered = forced replay" seed)
      (forced_replay ~dir ~universe) (sorted_keys r);
    Pstore.close r
  done

(* A few hundred keys in a universe of 2^40: what recovery allocates
   must follow the keys, not the universe. *)
let test_recovery_sparse_universe () =
  let universe = 1 lsl 40 in
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Async ~universe dir in
  let rng = Rng.of_int_seed 40 in
  let keys = Array.init 400 (fun _ -> Rng.int rng universe) in
  Array.iter (fun k -> ignore (Pstore.insert s k : bool)) keys;
  ignore (Pstore.checkpoint s : int * int);
  Array.iteri
    (fun i k ->
      if i mod 3 = 0 then ignore (Pstore.delete s k : bool)
      else if i mod 3 = 1 then
        ignore (Pstore.replace s ~remove:k ~add:(Rng.int rng universe) : bool))
    keys;
  let live = sorted_keys s in
  Pstore.close s;
  (* OCaml 5.1 adds minor-heap words to the counters only at a minor
     collection, so without one on each side the count is a whole
     minor heap (2 MB) or nothing, by where the heap pointer stood. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = mk_store ~mode:Pstore.Ephemeral ~universe dir in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check (list int)) "recovered = live" live (sorted_keys r);
  Alcotest.(check (list int)) "recovered = forced replay"
    (forced_replay ~dir ~universe) (sorted_keys r);
  (* About 135 KB; a bitmap over the universe would be 2^37 bytes. *)
  Alcotest.(check bool)
    (Printf.sprintf "recovery allocated %.0f bytes < 1 MB" allocated)
    true (allocated < 1e6);
  Pstore.close r

(* An offline compaction (an Ephemeral store, no writer) supersedes the
   whole log, its last segment included: the next recovery reads the
   image alone. *)
let test_offline_compaction_deletes_every_segment () =
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Async dir in
  for k = 0 to 199 do ignore (Pstore.insert s k : bool) done;
  for k = 0 to 49 do ignore (Pstore.delete s (2 * k) : bool) done;
  let live = sorted_keys s in
  Pstore.close s;
  let c = mk_store ~mode:Pstore.Ephemeral dir in
  let segments = (Pstore.recovery_info c).Pstore.wal_segments in
  let _, deleted = Pstore.checkpoint c in
  Alcotest.(check int) "every segment deleted" segments deleted;
  Pstore.close c;
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  let ri = Pstore.recovery_info r in
  Alcotest.(check int) "no segments left" 0 ri.Pstore.wal_segments;
  Alcotest.(check int) "nothing replayed" 0 ri.Pstore.wal_replayed;
  Alcotest.(check (list int)) "image alone = live" live (sorted_keys r);
  Pstore.close r;
  (* A store reopened for writing continues the sequence past the
     image's cut. *)
  let w = mk_store ~mode:Pstore.Async dir in
  ignore (Pstore.insert w 0 : bool);
  Pstore.close w;
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check (list int)) "appends after compaction recover"
    (0 :: live) (sorted_keys r);
  Pstore.close r

(* Every file of [dir], by name, with its bytes. *)
let dir_image dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n ->
         let ic = open_in_bin (Filename.concat dir n) in
         let b = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (n, b))

(* A read-only open takes no directory lock, so it may be reading a
   live writer's batch in progress as a torn tail: it reports the tail
   and changes no file.  Both tails a writer's recovery repairs, a
   partial frame and a cut segment header, are left in place. *)
let test_read_only_open_writes_nothing () =
  let dir = tmpdir () in
  let s = mk_store dir in
  for k = 1 to 30 do ignore (Pstore.insert s k : bool) done;
  Pstore.barrier s;
  Pstore.close s;
  append_file (last_segment dir) "\000\000\000\017torn-bytes-here!!";
  let before = dir_image dir in
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check bool) "torn reported" true (Pstore.recovery_info r).Pstore.torn_tail;
  Alcotest.(check (list int)) "acked prefix" (List.init 30 (fun i -> i + 1)) (sorted_keys r);
  Pstore.close r;
  Alcotest.(check bool) "torn tail: every file byte-identical" true
    (dir_image dir = before);
  (* The writer's open repairs it. *)
  Pstore.close (mk_store dir);
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check bool) "clean after the writer's open" false
    (Pstore.recovery_info r).Pstore.torn_tail;
  Pstore.close r;
  (* A rotation killed before its header was whole. *)
  let dir = tmpdir () in
  let s = mk_store dir in
  for k = 1 to 30 do ignore (Pstore.insert s k : bool) done;
  Pstore.close s;
  let seg = Filename.concat dir (Wal.segment_name 31) in
  let oc = open_out_bin seg in
  output_string oc "PATWAL";
  close_out oc;
  let before = dir_image dir in
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check bool) "cut header reported" true (Pstore.recovery_info r).Pstore.torn_tail;
  Alcotest.(check int) "records" 30 (Pstore.recovery_info r).Pstore.wal_records;
  Pstore.close r;
  Alcotest.(check bool) "cut header: every file byte-identical" true
    (dir_image dir = before);
  (* The writer's open deletes it and starts its own segment there. *)
  Pstore.close (mk_store dir);
  let r = mk_store ~mode:Pstore.Ephemeral dir in
  Alcotest.(check bool) "clean after the writer's open" false
    (Pstore.recovery_info r).Pstore.torn_tail;
  Alcotest.(check (list int)) "same keys" (List.init 30 (fun i -> i + 1)) (sorted_keys r);
  Pstore.close r

(* A log of about 29 000 records over a 2^16 universe that ends with
   about 24 000 keys: random inserts, then replaces and deletes. *)
let word_count_log () =
  let dir = tmpdir () in
  let universe = 1 lsl 16 in
  let s = mk_store ~mode:Pstore.Async ~universe dir in
  let rng = Rng.of_int_seed 34 in
  for _ = 1 to 28_000 do ignore (Pstore.insert s (Rng.int rng universe) : bool) done;
  for _ = 1 to 3_000 do
    let k = Rng.int rng universe in
    ignore (Pstore.replace s ~remove:k ~add:(Rng.int rng universe) : bool)
  done;
  for _ = 1 to 2_000 do ignore (Pstore.delete s (Rng.int rng universe) : bool) done;
  Pstore.close s;
  (dir, universe)

let minor_words f =
  let w0 = Gc.minor_words () in
  let x = f () in
  (x, Gc.minor_words () -. w0)

(* What a recovery allocates, counted: a scan record decoded in place
   costs nothing beyond the callback, and a recovered key about the
   leaf and the internal node the loader builds for it (9 words). *)
let test_recovery_word_counts () =
  let dir, universe = word_count_log () in
  let sum = ref 0 in
  let scan, words =
    minor_words (fun () ->
        Wal.scan ~dir ~replay_from:(-1) ~repair:false ~f:(fun ~seq:_ _ a b ->
            sum := !sum + a + b))
  in
  let records =
    match scan with Result.Ok s -> s.Wal.records | Result.Error m -> Alcotest.fail m
  in
  let per_record = words /. float_of_int records in
  Printf.printf "Wal.scan: %d records, %.3f minor words per record\n" records per_record;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words per scanned record <= 1" per_record)
    true (per_record <= 1.);
  let r, words = minor_words (fun () -> mk_store ~mode:Pstore.Ephemeral ~universe dir) in
  let keys = (Pstore.recovery_info r).Pstore.keys_loaded in
  let per_key = words /. float_of_int keys in
  Printf.printf "Store.open_: %d records, %d keys, %.2f minor words per key\n"
    (Pstore.recovery_info r).Pstore.wal_records keys per_key;
  Alcotest.(check bool) "thousands of keys" true (keys > 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per recovered key <= 20" per_key)
    true (per_key <= 20.);
  Pstore.close r

(* The recovered trie is built, not updated: a store whose trie counts
   its updates shows none after recovering its keys. *)
let test_recovery_updates_nothing () =
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Async dir in
  for k = 0 to 999 do ignore (Pstore.insert s (3 * k) : bool) done;
  for k = 0 to 99 do ignore (Pstore.replace s ~remove:(3 * k) ~add:((3 * k) + 1) : bool) done;
  Pstore.close s;
  Node.record_stats := true;
  let r =
    Fun.protect
      ~finally:(fun () -> Node.record_stats := false)
      (fun () -> mk_store ~mode:Pstore.Ephemeral dir)
  in
  Alcotest.(check int) "keys recovered" 1000 (Pstore.recovery_info r).Pstore.keys_loaded;
  (match Core.Patricia.stats_snapshot (Pstore.underlying r) with
  | None -> Alcotest.fail "no counters"
  | Some st ->
      Alcotest.(check int) "attempts" 0 st.Core.Patricia.attempts;
      Alcotest.(check int) "descriptors run" 0 st.Core.Patricia.descriptors_run);
  Pstore.close r

(* ------------------------------------------------------------------ *)
(* Group commit on the calling domains *)

(* An Async barrier writes: the records are in the segment file while
   the store is still open, before any close or fsync. *)
let test_async_barrier_writes () =
  let dir = tmpdir () in
  let s = mk_store ~mode:Pstore.Async dir in
  let n = 300 in
  for k = 1 to n do ignore (Pstore.insert s k : bool) done;
  Pstore.barrier s;
  let sc, _ = scan_all ~dir in
  Alcotest.(check int) "every record on disk after the barrier" n
    sc.Wal.records;
  Alcotest.(check bool) "no torn tail" false sc.Wal.torn;
  Pstore.close s

(* Two domains append two records, then wait for the second, in a loop
   over an fsync writer.  A wait returns only once its record is
   published durable and its bytes are in the file, and it leads at
   most one commit (of everything queued, its own records included), so
   there are at most half as many fsyncs as records. *)
let test_sync_waiters_lead_in_turn () =
  let dir = tmpdir () in
  Persist.Metrics.reset ();
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:true () in
  let seg = last_segment dir in
  let frame = 4 + 4 + 17 and iters = 60 in
  let early = Atomic.make 0 in
  let workers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to iters - 1 do
              let k = (d * 1000) + (2 * i) in
              ignore (Wal.Writer.append w (Wal.Insert k) : int);
              let seq = Wal.Writer.append w (Wal.Insert (k + 1)) in
              Wal.Writer.wait_durable w seq;
              (* One segment, Insert frames only: record [seq] ends at
                 byte [header + seq * frame]. *)
              if
                Wal.Writer.durable_upto w < seq
                || (Unix.stat seg).Unix.st_size < Wal.header_len + (seq * frame)
              then Atomic.incr early
            done))
  in
  List.iter Domain.join workers;
  Wal.Writer.stop w;
  let records = 2 * 2 * iters in
  let m = Persist.Metrics.snapshot () in
  Alcotest.(check int) "no wait returned early" 0 (Atomic.get early);
  Alcotest.(check int) "records written" records (List.assoc "records" m);
  let fsyncs = List.assoc "fsyncs" m in
  if fsyncs > records / 2 then
    Alcotest.failf "%d fsyncs for %d records: a wait led more than one commit"
      fsyncs records;
  let r = mk_store ~mode:Pstore.Ephemeral ~universe:2048 dir in
  Alcotest.(check int) "reopen recovers every record" records (Pstore.size r);
  Pstore.close r

(* Waits that queue behind a running commit share the next one.  The
   first leader is held in its fsync until two other domains have
   appended and are waiting; when it finishes, one of them commits both
   records: three waits, two fsyncs. *)
let test_waits_behind_a_leader_share_a_commit () =
  let dir = tmpdir () in
  Persist.Metrics.reset ();
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:true () in
  let spin_until p =
    let deadline = Unix.gettimeofday () +. 30. in
    while not (p ()) do
      if Unix.gettimeofday () > deadline then failwith "spin_until: timed out";
      Unix.sleepf 0.0002
    done
  in
  let go = Atomic.make false and queued = Atomic.make 0 in
  let others =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            spin_until (fun () -> Atomic.get go);
            let seq = Wal.Writer.append w (Wal.Insert (10 + d)) in
            Atomic.incr queued;
            Wal.Writer.wait_durable w seq))
  in
  let first = Atomic.make true in
  Chaos.with_policy ~name:"stalled-leader"
    (function
      | Chaos.Wal_fsync when Atomic.exchange first false ->
          Atomic.set go true;
          spin_until (fun () -> Atomic.get queued = 2)
      | _ -> ())
    (fun () -> Wal.Writer.wait_durable w (Wal.Writer.append w (Wal.Insert 1)));
  List.iter Domain.join others;
  let m = Persist.Metrics.snapshot () in
  Alcotest.(check int) "three waits" 3 (List.assoc "sync_waits" m);
  Alcotest.(check int) "two commits" 2 (List.assoc "fsyncs" m);
  Alcotest.(check int) "all durable" 3 (Wal.Writer.durable_upto w);
  Wal.Writer.stop w;
  let sc, _ = scan_all ~dir in
  Alcotest.(check int) "all in the log" 3 sc.Wal.records

(* A caller that never waits is bounded by the batch limit: the append
   that fills a batch commits it. *)
let test_unwaited_appends_bounded () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  let n = 10_000 and peak = ref 0 in
  for k = 1 to n do
    ignore (Wal.Writer.append w (Wal.Insert k) : int);
    peak := max !peak (Wal.Writer.queue_depth w)
  done;
  if !peak > Wal.Writer.batch_limit then
    Alcotest.failf "queue reached %d records, limit %d" !peak
      Wal.Writer.batch_limit;
  if Wal.Writer.durable_upto w < n - Wal.Writer.batch_limit then
    Alcotest.fail "full batches were not committed";
  Wal.Writer.stop w;
  let sc, _ = scan_all ~dir in
  Alcotest.(check int) "stop commits the rest" n sc.Wal.records

(* A commit whose write fails drops its batch: its waiter, every later
   wait and every later append must raise rather than report the lost
   records durable, and stop must still return. *)
let test_failed_commit_is_sticky () =
  let dir = tmpdir () in
  let w = Wal.Writer.create ~dir ~start_seq:1 ~fsync:false () in
  Wal.Writer.wait_durable w (Wal.Writer.append w (Wal.Insert 1));
  let seq = Wal.Writer.append w (Wal.Insert 2) in
  let raises f = match f () with () -> false | exception _ -> true in
  Chaos.with_policy ~name:"disk-error"
    (function Chaos.Wal_append -> failwith "injected write error" | _ -> ())
    (fun () ->
      if not (raises (fun () -> Wal.Writer.wait_durable w seq)) then
        Alcotest.fail "the failed commit's waiter returned");
  Alcotest.(check int) "durable stops before the lost batch" 1
    (Wal.Writer.durable_upto w);
  if not (raises (fun () -> Wal.Writer.wait_durable w seq)) then
    Alcotest.fail "a later wait returned over the lost record";
  if not (raises (fun () -> ignore (Wal.Writer.append w (Wal.Insert 3) : int)))
  then Alcotest.fail "append accepted a record after a failed commit";
  Wal.Writer.stop w;
  let sc, _ = scan_all ~dir in
  Alcotest.(check int) "only the committed record is on disk" 1 sc.Wal.records

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "persist"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "replay_from filter" `Quick test_wal_replay_from;
          Alcotest.test_case "group commit, 4 domains" `Quick
            test_group_commit_multidomain;
          Alcotest.test_case "rotation + obsolete segments" `Quick
            test_wal_rotation;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "short frame tail" `Quick test_short_frame_tail;
          Alcotest.test_case "header-only / truncated segment" `Quick
            test_header_only_segment;
          Alcotest.test_case "mid-log corruption is an error" `Quick
            test_mid_log_corruption_is_error;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "empty dir" `Quick test_empty_dir;
          Alcotest.test_case "wal only" `Quick test_wal_only_recovery;
          Alcotest.test_case "checkpoint, no tail" `Quick
            test_checkpoint_no_tail;
          Alcotest.test_case "double replay idempotent" `Quick
            test_double_replay_idempotent;
          Alcotest.test_case "image ahead of its cut" `Quick
            test_image_ahead_of_cut;
          Alcotest.test_case "torn tail" `Quick test_torn_tail_store_recovery;
          Alcotest.test_case "universe mismatch rejected" `Quick
            test_universe_mismatch;
          Alcotest.test_case "checkpoint under live traffic" `Quick
            test_checkpoint_under_traffic;
          Alcotest.test_case "chaos sites crossed" `Quick
            test_chaos_sites_crossed;
          Alcotest.test_case "async close drains" `Quick
            test_async_mode_drains_on_close;
          Alcotest.test_case "log order is the set's order" `Quick
            test_log_order_is_set_order;
          Alcotest.test_case "dirty copy recovers" `Quick
            test_dirty_copy_recovers;
          Alcotest.test_case "member waits for its write" `Quick
            test_member_waits_for_its_write;
          Alcotest.test_case "failed insert waits for its write" `Quick
            test_failed_insert_waits;
          Alcotest.test_case "failed delete waits for its write" `Quick
            test_failed_delete_waits;
          Alcotest.test_case "failed replace waits for its write" `Quick
            test_failed_replace_waits;
          Alcotest.test_case "snapshot waits for its writes" `Quick
            test_snapshot_waits;
          Alcotest.test_case "equals forced replay" `Quick
            test_recovery_equivalence;
          Alcotest.test_case "raw logs equal forced replay" `Quick
            test_raw_log_equivalence;
          Alcotest.test_case "sparse 2^40 universe" `Quick
            test_recovery_sparse_universe;
          Alcotest.test_case "compaction leaves no segment" `Quick
            test_offline_compaction_deletes_every_segment;
          Alcotest.test_case "a read-only open writes nothing" `Quick
            test_read_only_open_writes_nothing;
          Alcotest.test_case "words per record and per key" `Quick
            test_recovery_word_counts;
          Alcotest.test_case "recovery updates nothing" `Quick
            test_recovery_updates_nothing;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "async barrier writes" `Quick
            test_async_barrier_writes;
          Alcotest.test_case "sync waiters lead in turn" `Quick
            test_sync_waiters_lead_in_turn;
          Alcotest.test_case "waits behind a leader batch" `Quick
            test_waits_behind_a_leader_share_a_commit;
          Alcotest.test_case "unwaited appends bounded" `Quick
            test_unwaited_appends_bounded;
          Alcotest.test_case "failed commit is sticky" `Quick
            test_failed_commit_is_sticky;
        ] );
    ]
