(** Segmented append-only write-ahead log with group commit.

    {2 On-disk format}

    A data directory holds numbered segment files [wal-<base>.seg]
    ([<base>] = 16 hex digits of the first sequence number the segment
    may contain).  Each segment is:

    {v
    header : magic "PATWALS1" | base_seq:u64be | crc32c:u32be (of the 16 bytes before it)
    record*: len:u32be | crc32c:u32be (of payload) | payload
    payload: seq:u64be | tag:u8 | key:i64be [ key2:i64be ]
    tag    : 1 INSERT | 2 DELETE | 3 REPLACE (remove, add)
    v}

    Sequence numbers are global, dense and strictly increasing across
    segments; they are what checkpoints cut against ({!Checkpoint}) and
    what recovery replays from.  A crash can leave the final segment
    with a torn tail — a record whose bytes are short or whose CRC does
    not match; {!scan} stops at the first such record and reports it,
    and the writer's recovery truncates the file there, so a recovered
    log is always well-formed for the next appender.  Torn bytes can
    only exist at the tail of the {e last} segment; a bad record in an
    earlier segment means real corruption and is reported as an error
    rather than silently dropped.

    {2 Group commit}

    There is no log thread: the domain that needs its records on disk
    writes them.  {!Writer.append} may be called from any domain; it
    assigns the next sequence number, enqueues the record and returns
    without touching the file.  {!Writer.wait_durable} then makes the
    caller the {e leader} if no commit is in progress: it takes the
    whole queue, writes it with one [write] (and, in [~fsync:true]
    mode, one [fsync]), publishes the new durable sequence number and
    wakes the waiters.  A caller that finds a leader at work waits for
    it instead.  Leadership is handed back after one batch, so a waiter
    whose record arrived after the leader took the queue leads the next
    batch with everything queued meanwhile.  Synchronous durability
    therefore costs one fsync per {e batch} of concurrent mutations, not
    one per operation, and the patserve server pays one [write] per
    window of pipelined requests ({!Store.Make.barrier}).  A caller that
    never waits is bounded too: an append that finds {!Writer.batch_limit}
    records queued and no leader commits them itself.

    [Chaos] crossings, all on the leading caller: {!Chaos.Wal_append}
    before each batch write, {!Chaos.Wal_fsync} before each fsync,
    {!Chaos.Wal_rotate} before a segment rotation — stalling policies
    widen the windows in which a kill leaves torn or missing tails,
    which is exactly what the crash fuzzer drives. *)

type record =
  | Insert of int
  | Delete of int
  | Replace of { remove : int; add : int }

let magic = "PATWALS1"
let header_len = 8 + 8 + 4
let frame_overhead = 4 + 4 (* len + crc *)
let max_record_payload = 4096 (* sanity bound for the scanner *)
let default_segment_bytes = 8 * 1024 * 1024

let segment_name base = Printf.sprintf "wal-%016x.seg" base

let segment_base_of_name name =
  if
    String.length name = 4 + 16 + 4
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".seg"
  then int_of_string_opt ("0x" ^ String.sub name 4 16)
  else None

(* ------------------------------------------------------------------ *)
(* Byte plumbing *)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u64 buf v =
  put_u32 buf ((v lsr 32) land 0xFFFFFFFF);
  put_u32 buf (v land 0xFFFFFFFF)

(* One bounds-checked load each; the int32 and int64 stay unboxed. *)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* The low 63 bits, as the two 32-bit halves shifted together gave. *)
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

let write_all fd b off len =
  let rec go off remaining =
    if remaining > 0 then
      match Unix.write fd b off remaining with
      | n -> go (off + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off len

let fsync_dir dir =
  (* Directory fsync pins renames/creates/unlinks for power-loss
     semantics; best effort — some filesystems reject it. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ());
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Record framing *)

let payload_len = function
  | Insert _ | Delete _ -> 8 + 1 + 8
  | Replace _ -> 8 + 1 + 16

let max_frame = frame_overhead + 8 + 1 + 16

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let set_u64 b off v =
  set_u32 b off ((v lsr 32) land 0xFFFFFFFF);
  set_u32 b (off + 4) (v land 0xFFFFFFFF)

(** Write the full frame (length, CRC, payload) for [record] into [b]
    at [off], which must have {!max_frame} bytes of room, and return
    the offset past it.  The CRC is computed over the payload in
    place. *)
let encode_record b off ~seq record =
  let p = off + frame_overhead in
  set_u64 b p seq;
  (match record with
  | Insert k ->
      Bytes.set b (p + 8) '\001';
      set_u64 b (p + 9) k
  | Delete k ->
      Bytes.set b (p + 8) '\002';
      set_u64 b (p + 9) k
  | Replace { remove; add } ->
      Bytes.set b (p + 8) '\003';
      set_u64 b (p + 9) remove;
      set_u64 b (p + 17) add);
  let plen = payload_len record in
  set_u32 b off plen;
  set_u32 b (off + 4) (Crc.crc32c b ~off:p ~len:plen);
  p + plen

(** What a record does, as {!scan} reports it: an immediate value, so
    reporting a record allocates nothing. *)
type op = Op_insert | Op_delete | Op_replace

(** The record {!scan} reports as [op a b]. *)
let record_of op a b =
  match op with
  | Op_insert -> Insert a
  | Op_delete -> Delete a
  | Op_replace -> Replace { remove = a; add = b }

(* The [len] payload bytes at [p], CRC already checked, are a record: a
   known tag with its length. *)
let payload_ok b p len =
  match Bytes.get b (p + 8) with
  | '\001' | '\002' -> len = 17
  | '\003' -> len = 25
  | _ -> false

(* The payload at [p], once [payload_ok]: its op and keys, read in
   place (the second key is 0 but for a Replace). *)
let[@inline] op_at b p =
  match Bytes.get b (p + 8) with
  | '\001' -> Op_insert
  | '\002' -> Op_delete
  | _ -> Op_replace

let[@inline] key_a b p = get_u64 b (p + 9)
let[@inline] key_b b p = function
  | Op_replace -> get_u64 b (p + 17)
  | Op_insert | Op_delete -> 0

let encode_header buf ~base =
  Buffer.add_string buf magic;
  put_u64 buf base;
  let hb = Buffer.to_bytes buf in
  put_u32 buf (Crc.crc32c hb ~off:0 ~len:16)

(* ------------------------------------------------------------------ *)
(* Scanning (recovery read path) *)

type scan = {
  last_seq : int;  (** highest valid sequence number seen; -1 if none *)
  records : int;  (** valid records seen (before any [replay_from] filter) *)
  replayed : int;  (** records passed to [f] *)
  segments : int;
  torn : bool;  (** the last segment ended in a torn tail *)
}

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         Option.map (fun base -> (base, Filename.concat dir name))
           (segment_base_of_name name))
  |> List.sort compare

let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create size in
  let rec go off =
    if off >= size then off
    else
      match Unix.read fd b off (size - off) with
      | 0 -> off (* shrank under us; treat the rest as absent *)
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  let got = go 0 in
  if got = size then b else Bytes.sub b 0 got

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  Unix.ftruncate fd len;
  Unix.fsync fd

(** [scan ~dir ~replay_from ~repair ~f] walks every segment in sequence
    order, validates headers and record CRCs, and calls [f ~seq op a b]
    for every valid record with [seq > replay_from]: [a] is the key of
    an insert or delete and a replace's [remove], [b] a replace's [add]
    (0 otherwise).  Each record is decoded in place, with no allocation
    of its own.  A torn tail of the last segment ends the scan; with
    [~repair:true] the scan also truncates it in place (a header too
    damaged to read in the last segment deletes the file), which only
    the directory's writer may do.  Returns [Error] on corruption that
    is not a tail — a bad record followed by more segments means lost
    acknowledged data, which must not be silently skipped. *)
let scan ~dir ~replay_from ~repair ~f =
  let segs = list_segments dir in
  let n_segs = List.length segs in
  let torn = ref false in
  let last_seq = ref (-1) in
  let records = ref 0 in
  let replayed = ref 0 in
  let exception Corrupt of string in
  try
    List.iteri
      (fun i (base, path) ->
        let is_last = i = n_segs - 1 in
        (* A bad frame at [off]: the torn tail of the last segment, or
           corruption anywhere else. *)
        let tail off what =
          if not is_last then raise (Corrupt (Printf.sprintf "%s: %s" path what));
          torn := true;
          if repair then truncate_file path off
        in
        let b = read_file path in
        let size = Bytes.length b in
        let header_ok =
          size >= header_len
          && Bytes.sub_string b 0 8 = magic
          && get_u64 b 8 = base
          && get_u32 b 16 = Crc.crc32c b ~off:0 ~len:16
        in
        if not header_ok then
          if is_last then begin
            (* A segment created during rotation but killed before its
               header hit the disk whole: nothing in it can be valid. *)
            torn := true;
            if repair then begin
              Sys.remove path;
              fsync_dir dir
            end
          end
          else raise (Corrupt (Printf.sprintf "%s: bad segment header" path))
        else begin
          let off = ref header_len in
          let stop = ref false in
          while not !stop do
            let o = !off in
            if o = size then stop := true
            else if size - o < frame_overhead then begin
              tail o "short record frame";
              stop := true
            end
            else
              let plen = get_u32 b o in
              let p = o + frame_overhead in
              if
                plen > max_record_payload
                || plen < 17
                || size - p < plen
                || Crc.crc32c b ~off:p ~len:plen <> get_u32 b (o + 4)
              then begin
                tail o "bad record CRC or length";
                stop := true
              end
              else if not (payload_ok b p plen) then begin
                  tail o "unknown record tag or inconsistent length";
                  stop := true
                end
                else begin
                  let seq = get_u64 b p in
                  if seq <= !last_seq then
                    raise
                      (Corrupt
                         (Printf.sprintf
                            "%s: sequence numbers not increasing (%d after %d)"
                            path seq !last_seq));
                  last_seq := seq;
                  incr records;
                  if seq > replay_from then begin
                    incr replayed;
                    let op = op_at b p in
                    f ~seq op (key_a b p) (key_b b p op)
                  end;
                  off := p + plen
                end
          done
        end)
      segs;
    if !torn then Obs.Counter.incr Metrics.torn_tails;
    Obs.Counter.add Metrics.records_replayed !replayed;
    Result.Ok
      {
        last_seq = !last_seq;
        records = !records;
        replayed = !replayed;
        segments = n_segs;
        torn = !torn;
      }
  with Corrupt msg -> Result.Error msg

(** Delete segments made obsolete by a checkpoint that replays from
    [upto]: a segment may go iff {e every} record it can contain is
    [<= upto], i.e. the next segment's base is [<= upto + 1].  The last
    segment goes only when [log_end] is given and [<= upto]: [log_end]
    is the highest sequence number the log will ever hold, known only
    when no writer appends to it (an offline compaction, which
    [Store.checkpoint] runs under the directory lock); a live writer's
    segment always stays.  [keep_from], if given, is a
    retention low-water mark: segments that may still contain records
    [>= keep_from] survive even below [upto] — an attached follower
    cursor ({!Tail}) positioned at [keep_from] must be able to keep
    streaming after the checkpoint.  Returns how many files were
    deleted. *)
let delete_obsolete_segments ~dir ~upto ?keep_from ?log_end () =
  let upto =
    match keep_from with None -> upto | Some k -> min upto (k - 1)
  in
  let rec go deleted = function
    | (_, path) :: rest
      when (match rest with
           | (next_base, _) :: _ -> next_base <= upto + 1
           | [] -> ( match log_end with Some e -> e <= upto | None -> false)) ->
        Sys.remove path;
        go (deleted + 1) rest
    | _ -> deleted
  in
  let deleted = go 0 (list_segments dir) in
  if deleted > 0 then begin
    Obs.Counter.add Metrics.segments_truncated deleted;
    fsync_dir dir
  end;
  deleted

(* ------------------------------------------------------------------ *)
(* Writer *)

module Writer = struct
  type t = {
    dir : string;
    segment_bytes : int;
    fsync : bool;
    mu : Mutex.t;
    durable : Condition.t;  (** broadcast when a commit ends *)
    q : record Queue.t;  (** appended, not yet taken by a leader *)
    batch : record Queue.t;  (** the leader's batch, in flight *)
    mutable scratch : Bytes.t;  (** the leader's encode buffer, reused *)
    mutable next_seq : int;
    mutable durable_upto : int;
    mutable leading : bool;
    mutable failed : exn option;
    mutable stopping : bool;
    mutable cur_fd : Unix.file_descr;
    mutable cur_bytes : int;
  }

  (** Queued records at which an {!append} that finds no leader commits
      them itself, so callers that never wait hold the queue to about
      this many records. *)
  let batch_limit = 4096

  let open_segment dir base =
    let path = Filename.concat dir (segment_name base) in
    (* A pre-existing file with this base can only be a segment that
       holds no valid records (recovery computed [base] as last valid
       seq + 1), e.g. one created just before a crash; replace it. *)
    if Sys.file_exists path then Sys.remove path;
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    in
    let buf = Buffer.create header_len in
    encode_header buf ~base;
    let hb = Buffer.to_bytes buf in
    write_all fd hb 0 (Bytes.length hb);
    Unix.fsync fd;
    fsync_dir dir;
    fd

  let rotate w ~first_seq =
    Chaos.point Chaos.Wal_rotate;
    Unix.fsync w.cur_fd;
    Unix.close w.cur_fd;
    w.cur_fd <- open_segment w.dir first_seq;
    w.cur_bytes <- header_len;
    Obs.Counter.incr Metrics.rotations

  (* One group commit, run by the leader without the lock: encode the
     batch (records [first], [first + 1], ...) into the reused scratch
     bytes, rotate if it would overflow the segment, single write,
     optional single fsync. *)
  let write_batch w ~first batch =
    let t0 = Obs.Clock.now_ns () in
    let n = Queue.length batch in
    if Bytes.length w.scratch < n * max_frame then
      w.scratch <-
        Bytes.create (max (n * max_frame) (2 * Bytes.length w.scratch));
    let b = w.scratch in
    let seq = ref first in
    let len =
      Queue.fold
        (fun off r ->
          let off = encode_record b off ~seq:!seq r in
          incr seq;
          off)
        0 batch
    in
    if w.cur_bytes > header_len && w.cur_bytes + len > w.segment_bytes then
      rotate w ~first_seq:first;
    Chaos.point Chaos.Wal_append;
    write_all w.cur_fd b 0 len;
    w.cur_bytes <- w.cur_bytes + len;
    Obs.Counter.add Metrics.records n;
    Obs.Counter.add Metrics.bytes len;
    Obs.Histogram.record Metrics.batch_size n;
    if w.fsync then begin
      Chaos.point Chaos.Wal_fsync;
      let f0 = Obs.Clock.now_ns () in
      Unix.fsync w.cur_fd;
      Obs.Histogram.record Metrics.fsync_ns (Obs.Clock.now_ns () - f0);
      Obs.Counter.incr Metrics.fsyncs
    end;
    match Obs.Trace.recorder () with
    | Some tr ->
        Obs.Trace.emit_span tr (Obs.Trace.Custom "group_commit") ~key:n ~ok:true
          ~retries:0 ~attempt:1 ~site:"wal" ~t0_ns:t0
    | None -> ()

  let check_failed w =
    match w.failed with
    | Some e ->
        failwith
          ("Wal.Writer: an earlier group commit failed: "
          ^ Printexc.to_string e)
    | None -> ()

  (* Lead one group commit of everything queued.  Called with [mu] held,
     no leader active and a nonempty queue; drops [mu] around the I/O
     and returns with it held.  A failed write leaves the writer
     [failed]: the records it dropped can never become durable, so no
     later wait may return over them. *)
  let lead w =
    w.leading <- true;
    let first = w.durable_upto + 1 in
    Queue.transfer w.q w.batch;
    let n = Queue.length w.batch in
    Mutex.unlock w.mu;
    let outcome =
      match write_batch w ~first w.batch with
      | () -> None
      | exception e -> Some e
    in
    Queue.clear w.batch;
    Mutex.lock w.mu;
    w.leading <- false;
    (match outcome with
    | None -> w.durable_upto <- first + n - 1
    | Some e -> w.failed <- Some e);
    Condition.broadcast w.durable;
    Option.iter raise outcome

  (** [create ~dir ~start_seq ~fsync ()] opens a fresh segment with base
      [start_seq].  [fsync] selects whether each group commit is fsynced
      (sync/async durability); rotation always seals the outgoing
      segment with an fsync.  No domain is spawned: commits run on the
      callers of {!wait_durable}. *)
  let create ~dir ~start_seq ?(segment_bytes = default_segment_bytes) ~fsync ()
      =
    if segment_bytes < header_len + frame_overhead + max_record_payload then
      invalid_arg "Wal.Writer.create: segment_bytes too small";
    {
      dir;
      segment_bytes;
      fsync;
      mu = Mutex.create ();
      durable = Condition.create ();
      q = Queue.create ();
      batch = Queue.create ();
      scratch = Bytes.create 4096;
      next_seq = start_seq;
      durable_upto = start_seq - 1;
      leading = false;
      failed = None;
      stopping = false;
      cur_fd = open_segment dir start_seq;
      cur_bytes = header_len;
    }

  (** Publish one mutation; returns its sequence number.  Does no I/O
      unless it finds {!batch_limit} records queued and no leader, in
      which case it commits them before returning. *)
  let append w r =
    Mutex.protect w.mu @@ fun () ->
    if w.stopping then invalid_arg "Wal.Writer.append: writer is stopped";
    check_failed w;
    let seq = w.next_seq in
    w.next_seq <- seq + 1;
    Queue.add r w.q;
    if Queue.length w.q >= batch_limit && not w.leading then lead w;
    seq

  (** Return once the record [seq] is committed (written, and fsynced
      when the writer is in fsync mode).  If no commit is in progress
      the caller leads one — of everything queued, its own record
      included — otherwise it waits for the leader and re-checks.
      @raise Failure if a commit failed before [seq] became durable
      (the leader of that commit gets its write's own exception). *)
  let wait_durable w seq =
    Mutex.protect w.mu @@ fun () ->
    let seq = min seq (w.next_seq - 1) in
    if w.durable_upto < seq then begin
      Obs.Counter.incr Metrics.sync_waits;
      while w.durable_upto < seq do
        check_failed w;
        if w.leading then Condition.wait w.durable w.mu else lead w
      done
    end

  let last_assigned w =
    Mutex.lock w.mu;
    let s = w.next_seq - 1 in
    Mutex.unlock w.mu;
    s

  let stopped w =
    Mutex.lock w.mu;
    let s = w.stopping in
    Mutex.unlock w.mu;
    s

  (** Block until group commit advances past [known] (i.e. [durable_upto
      > known]), the writer stops, or [timeout_s] elapses; returns the
      current [durable_upto].  Polling rather than a timed condition
      wait — the stdlib [Condition] has no deadline — at a 1ms grain,
      which only costs while a tailer is idle at the head of the log. *)
  let wait_new_durable w ~known ~timeout_s =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      Mutex.lock w.mu;
      let d = w.durable_upto and stopping = w.stopping in
      Mutex.unlock w.mu;
      if d > known || stopping || Unix.gettimeofday () >= deadline then d
      else begin
        Unix.sleepf 0.001;
        go ()
      end
    in
    go ()

  let durable_upto w =
    Mutex.lock w.mu;
    let s = w.durable_upto in
    Mutex.unlock w.mu;
    s

  (** Records appended but not yet taken by a commit: at most about
      {!batch_limit} unless a leader is stuck in a slow write or fsync
      (sick disk, fsync storms), which the progress watchdog alarms
      on. *)
  let queue_depth w =
    Mutex.lock w.mu;
    let n = Queue.length w.q in
    Mutex.unlock w.mu;
    n

  (** Refuse further appends, wait out a commit in progress, commit
      what is still queued, and seal the segment with a final fsync.
      Idempotent. *)
  let stop w =
    Mutex.protect w.mu @@ fun () ->
    if not w.stopping then begin
      w.stopping <- true;
      while w.leading do
        Condition.wait w.durable w.mu
      done;
      Fun.protect ~finally:(fun () -> Unix.close w.cur_fd) @@ fun () ->
      if w.failed = None && not (Queue.is_empty w.q) then lead w;
      Unix.fsync w.cur_fd
    end
end

(* ------------------------------------------------------------------ *)
(* Tail cursor (replication read path) *)

(** A read cursor over the segments of a WAL directory, in sequence
    order, across rotations.  Two modes:

    - {e live} ([~writer] given): the cursor follows the directory's
      active writer and never delivers a record beyond
      {!Writer.durable_upto} — the bytes it reads are always part of a
      completed (and, in fsync mode, synced) group commit, so a torn or
      half-written tail is unreachable by construction.
      {!Tail.next_batch} blocks (bounded) on group-commit progress when
      it has drained the durable prefix.
    - {e offline} (no writer): the cursor reads until the end of the
      log and stops quietly at a torn final record — the same bytes
      {!scan} would truncate — so a recovery-side consumer sees exactly
      the replayable history.

    A cursor positioned at [from_seq] pins segments from the one
    containing [from_seq] onward; {!delete_obsolete_segments}'s
    [keep_from] is how an owner keeps checkpoint GC from deleting them
    underneath it. *)
module Tail = struct
  type t = {
    dir : string;
    writer : Writer.t option;
    mutable cur_base : int;
    mutable fd : Unix.file_descr option;
    mutable off : int;  (** next unread byte offset in the segment *)
    mutable next_seq : int;  (** next sequence number to deliver *)
  }

  let pread fd ~off b ~len =
    ignore (Unix.lseek fd off Unix.SEEK_SET : int);
    let rec go got =
      if got >= len then got
      else
        match Unix.read fd b got (len - got) with
        | 0 -> got
        | n -> go (got + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
    in
    go 0

  let header_valid fd ~base =
    let b = Bytes.create header_len in
    pread fd ~off:0 b ~len:header_len = header_len
    && Bytes.sub_string b 0 8 = magic
    && get_u64 b 8 = base
    && get_u32 b 16 = Crc.crc32c b ~off:0 ~len:16

  let close t =
    (match t.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    | None -> ());
    t.fd <- None

  let open_segment t base =
    close t;
    let path = Filename.concat t.dir (segment_name base) in
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    t.fd <- Some fd;
    t.cur_base <- base;
    t.off <- header_len;
    if not (header_valid fd ~base) then begin
      (* Only the last segment can legitimately have a torn header (a
         rotation killed before the header hit disk); position at its
         end so the cursor reports no records from it. *)
      t.off <- max_int
    end

  (** [open_ ~dir ~from_seq ()] positions a cursor so the next record it
      delivers is the first one with [seq >= from_seq].  Errors loudly
      when the history at [from_seq] is no longer retained (the oldest
      segment's base is newer) — streaming from such a cursor would
      silently skip acknowledged operations, which a replication
      consumer must treat as "resync from a checkpoint", never as an
      empty diff. *)
  let open_ ~dir ?writer ~from_seq () =
    if from_seq < 0 then Result.Error "Wal.Tail: from_seq must be >= 0"
    else
      match list_segments dir with
      | [] -> Result.Error (Printf.sprintf "Wal.Tail: no segments in %s" dir)
      | (oldest, _) :: _ as segs ->
          if from_seq < oldest then
            Result.Error
              (Printf.sprintf
                 "Wal.Tail: seq %d predates the oldest retained segment \
                  (base %d): history was checkpointed away, resync required"
                 from_seq oldest)
          else begin
            let start_base =
              List.fold_left
                (fun acc (base, _) -> if base <= from_seq then base else acc)
                oldest segs
            in
            let t =
              {
                dir;
                writer;
                cur_base = start_base;
                fd = None;
                off = header_len;
                next_seq = from_seq;
              }
            in
            match open_segment t start_base with
            | () -> Result.Ok t
            | exception Unix.Unix_error (e, _, _) ->
                Result.Error
                  (Printf.sprintf "Wal.Tail: cannot open segment %016x: %s"
                     start_base (Unix.error_message e))
          end

  let pos_seq t = t.next_seq

  (* The next segment to move to once the current one is exhausted:
     smallest base strictly above the current.  [None] while the cursor
     is inside the active (or last) segment. *)
  let next_segment t =
    List.fold_left
      (fun acc (base, _) ->
        if base > t.cur_base then
          match acc with Some b when b <= base -> acc | _ -> Some base
        else acc)
      None (list_segments t.dir)

  (** Bytes of log the cursor has not yet consumed: the unread remainder
      of its current segment plus every whole segment after it.  The
      primary's per-subscription [repl_lag_bytes] gauge. *)
  let lag_bytes t =
    let cur_remaining =
      match t.fd with
      | Some fd ->
          let size = (Unix.fstat fd).Unix.st_size in
          if t.off >= size then 0 else size - t.off
      | None -> 0
    in
    List.fold_left
      (fun acc (base, path) ->
        if base > t.cur_base then
          acc
          + (try (Unix.stat path).Unix.st_size - header_len
             with Unix.Unix_error (_, _, _) -> 0)
        else acc)
      cur_remaining (list_segments t.dir)

  (* Read one frame at the current offset.  [`Record] advances past it;
     [`Skip] advanced past a record older than the cursor position;
     [`End] means no complete, valid frame is readable here — end of
     durable data (live), torn tail (offline), or a frame beyond the
     durability limit. *)
  let read_frame t ~limit =
    match t.fd with
    | None -> `End
    | Some fd -> (
        let hd = Bytes.create frame_overhead in
        if t.off = max_int || pread fd ~off:t.off hd ~len:frame_overhead <> frame_overhead
        then `End
        else
          let plen = get_u32 hd 0 in
          let crc = get_u32 hd 4 in
          if plen > max_record_payload || plen < 17 then `End
          else
            let pb = Bytes.create plen in
            if pread fd ~off:(t.off + frame_overhead) pb ~len:plen <> plen then
              `End
            else if Crc.crc32c pb ~off:0 ~len:plen <> crc || not (payload_ok pb 0 plen)
            then `End
            else
              let seq = get_u64 pb 0 in
              if seq > limit then `End
              else begin
                t.off <- t.off + frame_overhead + plen;
                if seq < t.next_seq then `Skip
                else begin
                  t.next_seq <- seq + 1;
                  let op = op_at pb 0 in
                  `Record (seq, record_of op (key_a pb 0) (key_b pb 0 op))
                end
              end)

  (** [next_batch t ~max_records ~timeout_s] returns the next run of
      records in sequence order, at most [max_records].  A live cursor
      that has drained the durable prefix blocks on group-commit
      progress for up to [timeout_s] and returns [[]] if nothing new
      committed (also when the writer stopped); an offline cursor
      returns [[]] at the end of the log.  Rotation is followed
      transparently. *)
  let next_batch t ~max_records ~timeout_s =
    let limit =
      match t.writer with
      | Some w ->
          let d = Writer.durable_upto w in
          if d < t.next_seq && not (Writer.stopped w) then
            Writer.wait_new_durable w ~known:(t.next_seq - 1) ~timeout_s
          else d
      | None -> max_int
    in
    let acc = ref [] in
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < max_records do
      match read_frame t ~limit with
      | `Record (seq, r) ->
          acc := (seq, r) :: !acc;
          incr n
      | `Skip -> ()
      | `End -> (
          (* Exhausted the readable part of this segment: follow a
             rotation when the next segment starts exactly where the
             cursor stands; otherwise there is nothing more (yet). *)
          match next_segment t with
          | Some base when base <= t.next_seq && base > t.cur_base ->
              open_segment t base
          | _ -> continue := false)
    done;
    List.rev !acc
end
