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

    {2 One reader}

    The format is read in one place: one segment-header check and one
    frame walk over a byte buffer, which checks each frame's length,
    CRC, payload and seq order and decodes its record in place.
    {!scan} (recovery) runs the walk over each segment read whole;
    {!Tail} (replication) runs it over bounded chunks read from its
    cursor's offset.

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

(* One bounds-checked load each; the int32 and int64 stay unboxed. *)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* The low 63 bits, as the two 32-bit halves shifted together gave. *)
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

(* Read into [b] from [off] until [len] bytes or the end of the file;
   returns how many bytes came. *)
let read_into fd b off len =
  let rec go got =
    if got >= len then got
    else
      match Unix.read fd b (off + got) (len - got) with
      | 0 -> got
      | n -> go (got + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
  in
  go 0

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

let set_u64 b off v = Bytes.set_int64_be b off (Int64.of_int v)

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

let encode_header b ~base =
  Bytes.blit_string magic 0 b 0 8;
  set_u64 b 8 base;
  set_u32 b 16 (Crc.crc32c b ~off:0 ~len:16)

(* ------------------------------------------------------------------ *)
(* Reading: one header check and one frame walk, for scan and Tail *)

(* The first [len] bytes of [b] hold the whole, intact header of the
   segment with base [base]. *)
let header_ok b ~len ~base =
  len >= header_len
  && Bytes.sub_string b 0 8 = magic
  && get_u64 b 8 = base
  && get_u32 b 16 = Crc.crc32c b ~off:0 ~len:16

(* Where a walk stands: the offset of the next frame in its buffer,
   the highest seq walked over (-1 before any), and the valid frames
   walked and handed on so far. *)
type pos = {
  mutable off : int;
  mutable last : int;
  mutable walked : int;
  mutable passed : int;
}

(* Why a walk stopped at [pos.off]. *)
type stop =
  | End  (** the bytes end at a frame boundary *)
  | Torn of string  (** an incomplete or invalid frame starts here *)
  | Unordered of int  (** a valid frame with this seq, not above [pos.last] *)
  | Past_limit  (** a valid frame with a seq above [limit] *)
  | Full  (** [count] records were handed on *)

(* Walk the frames of [b] from [pos.off] up to [len]: check each one's
   length bounds, CRC, payload and seq order, and hand every record with
   [from <= seq <= limit] to [f ~seq op a b], decoded in place, until
   [pos.passed] reaches [count].  Allocates nothing per frame. *)
let walk b pos ~len ~from ~limit ~count f =
  let rec go () =
    let o = pos.off in
    if pos.passed >= count then Full
    else if o = len then End
    else if len - o < frame_overhead then Torn "short record frame"
    else
      let plen = get_u32 b o in
      let p = o + frame_overhead in
      if
        plen > max_record_payload
        || plen < 17
        || len - p < plen
        || Crc.crc32c b ~off:p ~len:plen <> get_u32 b (o + 4)
      then Torn "bad record CRC or length"
      else if not (payload_ok b p plen) then
        Torn "unknown record tag or inconsistent length"
      else
        let seq = get_u64 b p in
        if seq <= pos.last then Unordered seq
        else if seq > limit then Past_limit
        else begin
          pos.off <- p + plen;
          pos.last <- seq;
          pos.walked <- pos.walked + 1;
          if seq >= from then begin
            pos.passed <- pos.passed + 1;
            let op = op_at b p in
            f ~seq op (key_a b p) (key_b b p op)
          end;
          go ()
        end
  in
  go ()

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
  (* A file that shrank under us: the rest is absent. *)
  let got = read_into fd b 0 size in
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
  let pos = { off = 0; last = -1; walked = 0; passed = 0 } in
  let exception Corrupt of string in
  try
    List.iteri
      (fun i (base, path) ->
        let is_last = i = n_segs - 1 in
        let b = read_file path in
        let len = Bytes.length b in
        if not (header_ok b ~len ~base) then
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
          pos.off <- header_len;
          match
            walk b pos ~len ~from:(replay_from + 1) ~limit:max_int
              ~count:max_int f
          with
          | End | Past_limit | Full -> ()
          | Unordered seq ->
              raise
                (Corrupt
                   (Printf.sprintf
                      "%s: sequence numbers not increasing (%d after %d)" path
                      seq pos.last))
          | Torn what ->
              (* The torn tail of the last segment, or corruption
                 anywhere else. *)
              if not is_last then
                raise (Corrupt (Printf.sprintf "%s: %s" path what));
              torn := true;
              if repair then truncate_file path pos.off
        end)
      segs;
    if !torn then Obs.Counter.incr Metrics.torn_tails;
    Obs.Counter.add Metrics.records_replayed pos.passed;
    Result.Ok
      {
        last_seq = pos.last;
        records = pos.walked;
        replayed = pos.passed;
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
    let hb = Bytes.create header_len in
    encode_header hb ~base;
    write_all fd hb 0 header_len;
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

    The cursor reads in bounded chunks into one reused buffer and walks
    them with {!scan}'s frame walk.  A frame the chunk holds only part
    of is not consumed: the next read starts at it, so a frame still
    being written is re-read, never delivered.  So is a segment header
    not yet whole: a rotation creates the file before it writes one.

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
    mutable off : int;
        (** next unread byte offset in the segment; 0 until its header
            has been read *)
    mutable next_seq : int;  (** next sequence number to deliver *)
    mutable buf : Bytes.t;  (** the chunk last read, reused *)
    pos : pos;  (** the walk's place in [buf] and the last seq walked *)
  }

  let close t =
    (match t.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    | None -> ());
    t.fd <- None

  (* Read from the cursor's offset into [buf] until [len] bytes or the
     end of the segment.  At offset 0 the header comes first, and until
     it reads whole and valid nothing does (only the last segment can
     have a torn one). *)
  let fill t len =
    match t.fd with
    | None -> 0
    | Some fd ->
        let read_at off len =
          ignore (Unix.lseek fd off Unix.SEEK_SET : int);
          read_into fd t.buf 0 len
        in
        let base = t.cur_base in
        if t.off = 0 && header_ok t.buf ~len:(read_at 0 header_len) ~base then
          t.off <- header_len;
        if t.off = 0 then 0 else read_at t.off len

  let open_segment t base =
    close t;
    let path = Filename.concat t.dir (segment_name base) in
    t.fd <- Some (Unix.openfile path [ Unix.O_RDONLY ] 0);
    t.cur_base <- base;
    t.off <- 0

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
                off = 0;
                next_seq = from_seq;
                buf = Bytes.create max_frame;
                pos = { off = 0; last = -1; walked = 0; passed = 0 };
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

  (** [next_batch t ~max_records ~timeout_s] returns the next run of
      records in sequence order, at most [max_records].  A live cursor
      that has drained the durable prefix blocks on group-commit
      progress for up to [timeout_s] and returns [[]] if nothing new
      committed (also when the writer stopped); an offline cursor
      returns [[]] at the end of the log.  Rotation is followed
      transparently.  A read takes at most [max_records] (capped at
      {!Writer.batch_limit}) frames' worth of bytes. *)
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
    let want = min max_records Writer.batch_limit * max_frame in
    if Bytes.length t.buf < want then t.buf <- Bytes.create want;
    let acc = ref [] in
    let deliver ~seq op a b = acc := (seq, record_of op a b) :: !acc in
    let pos = t.pos in
    pos.passed <- 0;
    let rec go () =
      let got = fill t want in
      pos.off <- 0;
      let stop =
        walk t.buf pos ~len:got ~from:t.next_seq ~limit ~count:max_records
          deliver
      in
      t.off <- t.off + pos.off;
      t.next_seq <- max t.next_seq (pos.last + 1);
      match stop with
      | Full | Past_limit -> ()
      | (End | Torn _) when got = want && pos.off > 0 ->
          (* A full chunk: the segment may go on past it. *)
          go ()
      | End | Torn _ | Unordered _ -> (
          (* Exhausted the readable part of this segment: follow a
             rotation when the next segment starts exactly where the
             cursor stands; otherwise there is nothing more (yet). *)
          match next_segment t with
          | Some base when base <= t.next_seq ->
              open_segment t base;
              go ()
          | _ -> ())
    in
    go ();
    List.rev !acc
end
