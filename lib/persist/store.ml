(** A durable concurrent set: any [CONCURRENT_SET_WITH_REPLACE] with a
    bulk loader ({!SET}) fronted by the segmented WAL ({!Wal}) and
    checkpoint images ({!Checkpoint}).

    Opening a store recovers: load the newest valid checkpoint, replay
    the WAL tail ([seq > replay_from]) with {e forced} semantics up to
    the first bad CRC, and, in a logging mode, truncate a torn tail
    there and start a fresh segment for new appends.  A read-only
    ({!Make.Ephemeral}) open changes no file.  Forced replay is
    idempotent over any image: every logged record is a mutation that
    succeeded, so each one asserts its effect (an inserted or [add]ed
    key present, a deleted or [remove]d key absent) and the last record
    on a key decides it, whatever the state it lands on.  Replaying the same log
    twice, or over an image that already holds a suffix of its effects
    (a checkpoint's snapshot is taken after its cut is read), therefore
    converges to the same set.  Exact replay of a conditional Replace
    does not: re-run over an image that ran ahead of it, it can fire
    where the live one had not, or no-op where it had fired.

    Because the last record on a key decides it, recovery computes
    forced replay without replaying: a first pass folds the image's
    keys and then the tail, in log order, into a per-key last-effect
    set ({!Last_effect}; Insert present, Delete absent, Replace
    [remove] absent then [add] present), and a second pass hands the
    keys that end present, in ascending order, to the structure's
    bulk loader ([load_ascending]), which builds the fresh, unshared
    structure bottom-up.  The recovered set is the one per-record
    forced replay would build, with no update at all: no search,
    descriptor or CAS per recovered key, and none for a key that a
    later record undoes.

    {2 Durability contract}

    A mutation is applied to the in-memory structure and then appended
    to the log, both under the lock of its key's stripe (a fixed array
    of mutexes indexed by a hash of the key; a Replace takes both of its
    keys' stripes, in ascending order).  Two mutations of one key
    therefore reach the log in the order the structure linearized them,
    whichever sessions issued them.  {!barrier} commits this domain's
    records, and the records its reads, failed updates and snapshots
    observed, which another domain may have applied but not yet
    written: the patserve server calls it once per window of pipelined
    requests, before the window's acknowledgements are written, so the
    window costs one group-commit [write].  In {!Sync} mode the commit
    is also fsynced, so an acknowledged operation survives power loss; in
    {!Async} mode it is not, so an acknowledged operation has reached
    the operating system and survives a process crash ([kill -9]) but
    not power loss.  Recovery therefore restores {e every acknowledged
    operation} of the crash its mode covers, in the order the live
    structure took them: per key the log order is the linearization
    order, across sessions too, so a reopened store holds the set a
    [member] would have answered before the restart.  A crash can lose
    an unacknowledged mutation, and with it only mutations logged after
    it.  Under process crash ([kill -9]) every completed [write]
    survives; under power loss the guarantee covers operations up to
    the last completed fsync.  A checkpoint's view can still hold a
    mutation applied but not yet logged (see {!checkpoint}). *)

(** The last effect of every key a recovery touches, as a set of the
    keys that end present: an open-addressing table from a key's 32-key
    word ([k lsr 5]) to that word's presence bits.  Its size follows
    the words touched, never the universe: a store over [2^62] keys
    that logged a few hundred of them recovers through a table of a
    few hundred slots. *)
module Last_effect = struct
  type t = {
    mutable words : int array;  (** word index, or [-1] in a free slot *)
    mutable masks : int array;  (** presence bits of the word's keys *)
    mutable used : int;  (** slots holding a word *)
    mutable shift : int;  (** [63 - log2 (Array.length words)] *)
  }

  let create () =
    { words = Array.make 64 (-1); masks = Array.make 64 0; used = 0; shift = 57 }

  (* Fibonacci hashing: the top bits of the 63-bit product. *)
  let[@inline] home t w = (w * 0x1E3779B97F4A7C15) lsr t.shift

  (* The slot holding [w], or the free slot where it belongs: a loop of
     its arguments, not a closure, so a probe allocates nothing. *)
  let rec probe words w m i =
    let x = Array.unsafe_get words i in
    if x = w || x = -1 then i else probe words w m ((i + 1) land m)

  let slot t w = probe t.words w (Array.length t.words - 1) (home t w)

  let grow t =
    let words = t.words and masks = t.masks in
    let n = 2 * Array.length words in
    t.words <- Array.make n (-1);
    t.masks <- Array.make n 0;
    t.shift <- t.shift - 1;
    Array.iteri
      (fun i w ->
        if w <> -1 then begin
          let j = slot t w in
          t.words.(j) <- w;
          t.masks.(j) <- masks.(i)
        end)
      words

  (** [add t k]: [k] is present. *)
  let add t k =
    let w = k lsr 5 in
    let i = slot t w in
    let i =
      if t.words.(i) = w then i
      else begin
        t.words.(i) <- w;
        t.used <- t.used + 1;
        if 2 * t.used <= Array.length t.words then i
        else begin
          grow t;
          slot t w
        end
      end
    in
    t.masks.(i) <- t.masks.(i) lor (1 lsl (k land 31))

  (** [remove t k]: [k] is absent.  A key never added is absent
      already, so it takes no slot. *)
  let remove t k =
    let w = k lsr 5 in
    let i = slot t w in
    if t.words.(i) = w then t.masks.(i) <- t.masks.(i) land lnot (1 lsl (k land 31))

  let rec popcount n m = if m = 0 then n else popcount (n + 1) (m land (m - 1))

  (** The present keys, ascending. *)
  let to_ascending t =
    let live = Array.make t.used 0 and n = ref 0 and keys = ref 0 in
    Array.iteri
      (fun i w ->
        let m = t.masks.(i) in
        if w <> -1 && m <> 0 then begin
          live.(!n) <- w;
          incr n;
          keys := popcount !keys m
        end)
      t.words;
    let live = Array.sub live 0 !n in
    Array.sort Int.compare live;
    let out = Array.make !keys 0 and j = ref 0 in
    Array.iter
      (fun w ->
        let m = ref t.masks.(slot t w) and k = ref (w lsl 5) in
        while !m <> 0 do
          if !m land 1 <> 0 then begin
            out.(!j) <- !k;
            incr j
          end;
          m := !m lsr 1;
          incr k
        done)
      live;
    out
end

(** What {!Make} needs of a set: the concurrent set with replace, and a
    bulk loader for recovery. *)
module type SET = sig
  include Dset_intf.CONCURRENT_SET_WITH_REPLACE

  val load_ascending : t -> int array -> unit
  (** [load_ascending t keys] fills [t], fresh from [create] and not
      yet shared, with strictly ascending [keys] (see
      {!Core.Patricia.load_ascending}). *)
end

module Make (S : SET) = struct
  type mode =
    | Ephemeral  (** recover at open, log nothing (read-only durability) *)
    | Async  (** log every mutation; {!barrier} writes, never fsyncs *)
    | Sync  (** log + group-commit fsync; {!barrier} writes and fsyncs *)

  let mode_name = function
    | Ephemeral -> "none"
    | Async -> "async"
    | Sync -> "sync"

  type recovery_info = {
    checkpoint_seq : int option;  (** [replay_from] of the loaded image *)
    checkpoint_keys : int;
    checkpoints_skipped : int;  (** newer-but-corrupt images passed over *)
    wal_records : int;  (** valid records found in the log *)
    wal_replayed : int;  (** records past the cut, folded into the set *)
    wal_segments : int;
    torn_tail : bool;
        (** the log ended at a bad CRC; a logging open truncated it *)
    last_seq : int;  (** highest durable sequence number recovered *)
    keys_loaded : int;  (** keys the bulk loader put in the structure *)
    elapsed_s : float;  (** wall time [open_] spent recovering *)
    scan_s : float;
        (** of which reading the checkpoint, scanning the log and
            folding the last effects *)
    build_s : float;  (** of which building the structure *)
  }

  type t = {
    dir : string;
    universe : int;
    mode : mode;
    set : S.t;
    writer : Wal.Writer.t option;
    info : recovery_info;
    last_logged : int ref Domain.DLS.key;
    stripes : Mutex.t array;
        (* per-key locks held across apply + append, so per key the log
           order is the structure's order *)
    stripe_seqs : int array;
        (* the seq of each stripe's last appended record, written and
           read under that stripe's lock *)
    ckpt_mu : Mutex.t;
    retention : (unit -> int option) Atomic.t;
        (* checkpoint GC floor: lowest WAL seq some attached consumer
           (a replication tailer) still needs; [None] = unconstrained *)
    lock : Unix.file_descr option Atomic.t;  (** held by a writer until {!close} *)
  }

  let rec mkdirs dir =
    if dir <> "" && not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  (* One process writes a directory at a time.  A live writer appends
     to the last segment, which an offline compaction deletes, so both
     take an exclusive [lockf] on [dir/LOCK].  The lock is per process:
     it keeps a second process out, not a second store in this one. *)
  let lock_dir dir =
    let fd =
      Unix.openfile (Filename.concat dir "LOCK")
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o644
    in
    match Unix.lockf fd Unix.F_TLOCK 0 with
    | () -> fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
        Unix.close fd;
        failwith
          (Printf.sprintf "Persist.Store: %s is in use by another process" dir)

  (* Everything [open_] does after locking: recover the directory into a
     fresh structure and, in the logging modes, start its writer. *)
  let recover ~dir ~universe ~mode ?segment_bytes t0 =
    let ckpt =
      match Checkpoint.load_newest ~dir ~universe with
      | Result.Ok c -> c
      | Result.Error msg -> failwith ("Persist.Store: " ^ msg)
    in
    (* Pass 1: the image, then the tail in log order, into the
       last-effect set.  The structure is not touched. *)
    let effects = Last_effect.create () in
    let check k =
      if k < 0 || k >= universe then
        failwith
          (Printf.sprintf "Persist.Store: recovered key %d is outside universe %d"
             k universe)
    in
    let present k =
      check k;
      Last_effect.add effects k
    and absent k =
      check k;
      Last_effect.remove effects k
    in
    let replay_from =
      match ckpt with
      | Some c ->
          List.iter present c.Checkpoint.keys;
          c.Checkpoint.replay_from
      | None -> -1
    in
    let fold ~seq:_ op a b =
      match op with
      | Wal.Op_insert -> present a
      | Wal.Op_delete -> absent a
      | Wal.Op_replace ->
          absent a;
          present b
    in
    (* Only the writer, which holds the directory lock, truncates a torn
       tail: a read-only open may be looking at a live writer's batch
       in progress. *)
    let scan =
      match Wal.scan ~dir ~replay_from ~repair:(mode <> Ephemeral) ~f:fold with
      | Result.Ok s -> s
      | Result.Error msg -> failwith ("Persist.Store: " ^ msg)
    in
    (* Pass 2: the present keys, ascending, built into the structure. *)
    let keys = Last_effect.to_ascending effects in
    let t1 = Obs.Clock.now_ns () in
    let set = S.create ~universe () in
    S.load_ascending set keys;
    let t2 = Obs.Clock.now_ns () in
    let last_seq = max scan.Wal.last_seq replay_from in
    let info =
      {
        checkpoint_seq = Option.map (fun c -> c.Checkpoint.replay_from) ckpt;
        checkpoint_keys =
          (match ckpt with Some c -> List.length c.Checkpoint.keys | None -> 0);
        checkpoints_skipped =
          (match ckpt with Some c -> c.Checkpoint.skipped | None -> 0);
        wal_records = scan.Wal.records;
        wal_replayed = scan.Wal.replayed;
        wal_segments = scan.Wal.segments;
        torn_tail = scan.Wal.torn;
        last_seq;
        keys_loaded = Array.length keys;
        elapsed_s = float_of_int (t2 - t0) /. 1e9;
        scan_s = float_of_int (t1 - t0) /. 1e9;
        build_s = float_of_int (t2 - t1) /. 1e9;
      }
    in
    let writer =
      match mode with
      | Ephemeral -> None
      | Async | Sync ->
          Some
            (Wal.Writer.create ~dir ~start_seq:(last_seq + 1) ?segment_bytes
               ~fsync:(mode = Sync) ())
    in
    (set, info, writer)

  (* A power of two: a key's stripe is the top bits of its Fibonacci
     hash, so keys that share their low bits still spread. *)
  let stripe_count = 64
  let[@inline] stripe k = (k * 0x1E3779B97F4A7C15) lsr 57

  (** [open_ ~dir ~universe ~mode ()] recovers the state persisted in
      [dir] (creating it if absent) into a fresh [S.t] and, in the
      logging modes, locks [dir] and starts the group-commit writer on a
      new segment.
      @raise Failure if another process holds [dir] in a logging mode,
      or on corruption that is not a recoverable torn tail
      (a bad record with more log after it, a checkpoint for a
      different universe, or a key outside [0, universe)). *)
  let open_ ~dir ~universe ~mode ?segment_bytes () =
    let t0 = Obs.Clock.now_ns () in
    mkdirs dir;
    let lock = if mode = Ephemeral then None else Some (lock_dir dir) in
    match recover ~dir ~universe ~mode ?segment_bytes t0 with
    | exception e ->
        Option.iter Unix.close lock;
        raise e
    | set, info, writer ->
        {
          dir;
          universe;
          mode;
          set;
          writer;
          info;
          last_logged = Domain.DLS.new_key (fun () -> ref (-1));
          stripes = Array.init stripe_count (fun _ -> Mutex.create ());
          stripe_seqs = Array.make stripe_count (-1);
          ckpt_mu = Mutex.create ();
          retention = Atomic.make (fun () -> None);
          lock = Atomic.make lock;
        }

  let recovery_info t = t.info
  let mode t = t.mode
  let underlying t = t.set
  let dir t = t.dir

  (** The store's WAL writer, for consumers that stream or pin the log
      (the replication primary's tailer).  [None] in {!Ephemeral}. *)
  let wal_writer t = t.writer

  (** Highest WAL sequence number the {e calling} domain's answers
      depend on: its own records, and those its reads and failed
      updates observed — the per-domain stamp {!barrier} waits on.  A
      replication layer running a sync-ack barrier needs the same stamp
      to know which sequence its followers must acknowledge. *)
  let last_logged_here t = !(Domain.DLS.get t.last_logged)

  (** Install the checkpoint-GC retention hook: a closure returning the
      lowest WAL sequence number still needed by an attached log
      consumer ([None] = no constraint).  Segments that may contain
      records at or past the returned floor survive checkpointing. *)
  let set_retention_hook t f = Atomic.set t.retention f

  (* Raise the calling domain's barrier stamp to [seq]. *)
  let[@inline] depends_on t seq =
    let last = Domain.DLS.get t.last_logged in
    if seq > !last then last := seq

  (* Log the record of a mutation of keys [a] and [b], under their
     stripe locks. *)
  let log t a b r =
    match t.writer with
    | None -> ()
    | Some w ->
        let seq = Wal.Writer.append w r in
        depends_on t seq;
        t.stripe_seqs.(stripe a) <- seq;
        t.stripe_seqs.(stripe b) <- seq

  (* A mutation of keys [a] and [b] returned [false], under their stripe
     locks: its answer depends on the last records of those stripes,
     which hold every logged write it can have observed, since a
     mutation appends before it releases its stripes. *)
  let observed t a b =
    if Option.is_some t.writer then
      depends_on t (max t.stripe_seqs.(stripe a) t.stripe_seqs.(stripe b))

  (* Mutations: apply to the structure, then publish the acknowledged
     effect.  A [false] result changed nothing and is not logged, but
     its answer waits for the writes it observed.  When the store logs,
     both steps run under the stripe locks of the keys [a] and [b] the
     mutation touches, the lower first, so two mutations never wait on
     each other in a cycle. *)
  let locked t a b f =
    match t.writer with
    | None -> f ()
    | Some _ ->
        let a = stripe a and b = stripe b in
        if a = b then Mutex.protect t.stripes.(a) f
        else
          Mutex.protect t.stripes.(min a b) @@ fun () ->
          Mutex.protect t.stripes.(max a b) f

  let insert t k =
    locked t k k @@ fun () ->
    let ok = S.insert t.set k in
    if ok then log t k k (Wal.Insert k) else observed t k k;
    ok

  let delete t k =
    locked t k k @@ fun () ->
    let ok = S.delete t.set k in
    if ok then log t k k (Wal.Delete k) else observed t k k;
    ok

  let replace t ~remove ~add =
    locked t remove add @@ fun () ->
    let ok = S.replace t.set ~remove ~add in
    if ok then log t remove add (Wal.Replace { remove; add })
    else observed t remove add;
    ok

  (* A read waits out its key's stripe after reading the structure: a
     mutation it observed may still be between its apply and its
     append, and the read's answer depends on that record. *)
  let member t k =
    let ok = S.member t.set k in
    (match t.writer with
    | None -> ()
    | Some _ ->
        let i = stripe k in
        Mutex.lock t.stripes.(i);
        let seq = t.stripe_seqs.(i) in
        Mutex.unlock t.stripes.(i);
        depends_on t seq);
    ok

  let size t = S.size t.set
  let to_list t = S.to_list t.set

  (** Atomic frozen view of the current contents (the structure's
      snapshot capability).  The view may hold mutations still between
      their apply and their append, so the calling domain's barrier
      stamp is raised to the last assigned sequence number, read once
      every stripe has been waited out after the view was taken. *)
  let snapshot t =
    let v = S.snapshot t.set in
    (match t.writer with
    | None -> ()
    | Some w ->
        Array.iter
          (fun m ->
            Mutex.lock m;
            Mutex.unlock m)
          t.stripes;
        depends_on t (Wal.Writer.last_assigned w));
    v

  (** Newest {e assigned} WAL sequence number — the [cut] a scan page
      or checkpoint taken {e after} reading it may be paired with:
      mutations apply to the structure before they log, so every record
      [<= scan_cut t] is already visible to a snapshot taken later.
      Falls back to the recovered [last_seq] when the store does not
      log (Ephemeral). *)
  let scan_cut t =
    match t.writer with
    | Some w -> Wal.Writer.last_assigned w
    | None -> t.info.last_seq

  (** Commit this domain's most recent logged mutation, and every
      record its reads and failed updates observed: return once they
      are written ({!Async}) or written and fsynced ({!Sync}), leading
      the group commit if none is in progress.  An acknowledgement must
      not be released before this returns; the patserve server calls
      it once per processed frame window, which is what makes group
      commit pay (one [write], and one fsync in {!Sync}, per window of
      pipelined requests, not per request).  No-op in {!Ephemeral}. *)
  let barrier t =
    match t.writer with
    | Some w ->
        let last = !(Domain.DLS.get t.last_logged) in
        if last >= 0 then Wal.Writer.wait_durable w last
    | None -> ()

  (** Group-commit backlog: records appended but not yet taken by a
      commit, about {!Wal.Writer.batch_limit} at most while commits keep
      up.  0 when the store does not log.  Cheap enough to be sampled by
      the progress watchdog on every health evaluation. *)
  let queue_depth t =
    match t.writer with Some w -> Wal.Writer.queue_depth w | None -> 0

  (** Write a checkpoint of the current contents beside live traffic and
      delete WAL segments it makes obsolete.  Returns
      [(keys_serialized, segments_deleted)].  Serialized against itself
      with a mutex; safe against concurrent mutations (see
      {!Checkpoint} on why the image + tail replay is consistent).

      The image is drawn from an atomic frozen {!S.snapshot} taken
      {e after} the WAL cut [s0] is read — mutations apply to the
      structure before they log, so every record [<= s0] is inside the
      view and every record the view might additionally contain has
      [seq > s0] and is replayed (forced, so idempotently) on recovery.
      Records the view holds are made durable before the image is
      written; only a mutation applied but not yet logged when the
      view was taken can be in the image without being in the log.  A
      structure without the snapshot capability falls back to the
      weakly-consistent [S.to_list] walk, which is exact when the
      store is quiescent and sound under live insert/delete traffic
      (replay overwrites anything the walk half-saw); only live
      Replace traffic needs the frozen view.

      Without a writer ({!Ephemeral}: an offline compaction) the last
      segment goes too, so the directory is locked as {!open_} locks it.
      @raise Failure if another process is writing the directory. *)
  let checkpoint t =
    Mutex.lock t.ckpt_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.ckpt_mu) @@ fun () ->
    (* With no writer here, the directory must not have one elsewhere
       either: this checkpoint deletes the last segment. *)
    let lock = if t.writer = None then Some (lock_dir t.dir) else None in
    Fun.protect ~finally:(fun () -> Option.iter Unix.close lock) @@ fun () ->
    let s0 = scan_cut t in
    let keys =
      match S.snapshot t.set with
      | Some v ->
          List.rev (v.Dset_intf.v_fold ~init:[] ~f:(fun acc k -> k :: acc))
      | None -> S.to_list t.set
    in
    (* The image supersedes everything <= s0 and may hold records past
       it: make every record logged so far durable before the image is
       on disk, so neither a deleted segment nor a crash leaves the
       image ahead of the log. *)
    Option.iter
      (fun w -> Wal.Writer.wait_durable w (Wal.Writer.last_assigned w))
      t.writer;
    ignore
      (Checkpoint.write ~dir:t.dir ~universe:t.universe ~replay_from:s0 ~keys
        : string);
    let keep_from = (Atomic.get t.retention) () in
    (* With no writer nothing is appended past the recovered log, so
       its last segment can go too. *)
    let log_end = if t.writer = None then Some t.info.last_seq else None in
    let deleted =
      Wal.delete_obsolete_segments ~dir:t.dir ~upto:s0 ?keep_from ?log_end ()
    in
    (List.length keys, deleted)

  (** Commit every logged record, seal the log with a final fsync and
      release the directory lock.  The store must not be mutated
      afterwards. *)
  let close t =
    Option.iter Wal.Writer.stop t.writer;
    Option.iter Unix.close (Atomic.exchange t.lock None)
end
