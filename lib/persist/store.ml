(** A durable concurrent set: any [CONCURRENT_SET_WITH_REPLACE] fronted
    by the segmented WAL ({!Wal}) and checkpoint images
    ({!Checkpoint}).

    Opening a store recovers: load the newest valid checkpoint, replay
    the WAL tail ([seq > replay_from]) with {e forced} semantics,
    truncating a torn tail at the first bad CRC, then start a fresh
    segment for new appends.  Forced replay is idempotent over any
    image: every logged record is a mutation that succeeded, so each
    one asserts its effect (an inserted or [add]ed key present, a
    deleted or [remove]d key absent) and the last record on a key
    decides it, whatever the state it lands on.  Replaying the same log
    twice, or over an image that already holds a suffix of its effects
    (a checkpoint's snapshot is taken after its cut is read), therefore
    converges to the same set.  Exact replay of a conditional Replace
    does not: re-run over an image that ran ahead of it, it can fire
    where the live one had not, or no-op where it had fired.

    {2 Durability contract}

    Mutations are applied to the in-memory structure first and published
    to the log after; acknowledgements gated on {!barrier} (mode
    {!Sync}) are only released once the group commit holding the
    operation is on disk.  Recovery therefore restores {e every
    synchronously-acknowledged operation}, and restores operations in
    their per-session (per-connection) order — an acknowledged operation
    also orders before anything issued after its ack was observed,
    because the ack itself waited for the fsync.  Two {e concurrent,
    unacknowledged} mutations of the same key from different sessions
    may be recovered in either order (the WAL records them in publish
    order, which can differ from the structure's internal linearization
    of that race); sessions that need cross-session ordering must wait
    for acks, which is the usual contract of a replicated log.  Under
    process crash ([kill -9]) every completed [write] survives; under
    power loss the guarantee covers operations up to the last completed
    fsync. *)

module Make (S : Dset_intf.CONCURRENT_SET_WITH_REPLACE) = struct
  type mode =
    | Ephemeral  (** recover at open, log nothing (read-only durability) *)
    | Async  (** log every mutation, never fsync, never wait *)
    | Sync  (** log + group-commit fsync; {!barrier} gates acks *)

  let mode_name = function
    | Ephemeral -> "none"
    | Async -> "async"
    | Sync -> "sync"

  type recovery_info = {
    checkpoint_seq : int option;  (** [replay_from] of the loaded image *)
    checkpoint_keys : int;
    checkpoints_skipped : int;  (** newer-but-corrupt images passed over *)
    wal_records : int;  (** valid records found in the log *)
    wal_replayed : int;  (** records actually applied (past the cut) *)
    wal_segments : int;
    torn_tail : bool;  (** a torn tail was truncated at a bad CRC *)
    last_seq : int;  (** highest durable sequence number recovered *)
  }

  type t = {
    dir : string;
    universe : int;
    mode : mode;
    set : S.t;
    writer : Wal.Writer.t option;
    info : recovery_info;
    last_logged : int ref Domain.DLS.key;
    ckpt_mu : Mutex.t;
    retention : (unit -> int option) Atomic.t;
        (* checkpoint GC floor: lowest WAL seq some attached consumer
           (a replication tailer) still needs; [None] = unconstrained *)
  }

  let rec mkdirs dir =
    if dir <> "" && not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  (* Forced replay, as a replication follower applies: a logged
     Replace succeeded, so it asserts [remove] absent and [add]
     present. *)
  let apply set = function
    | Wal.Insert k -> ignore (S.insert set k : bool)
    | Wal.Delete k -> ignore (S.delete set k : bool)
    | Wal.Replace { remove; add } ->
        ignore (S.delete set remove : bool);
        ignore (S.insert set add : bool)

  (** [open_ ~dir ~universe ~mode ()] recovers the state persisted in
      [dir] (creating it if absent) into a fresh [S.t] and, in the
      logging modes, starts the group-commit writer on a new segment.
      @raise Failure on corruption that is not a recoverable torn tail
      (a bad record with more log after it, or a checkpoint for a
      different universe). *)
  let open_ ~dir ~universe ~mode ?segment_bytes () =
    mkdirs dir;
    let set = S.create ~universe () in
    let ckpt =
      match Checkpoint.load_newest ~dir ~universe with
      | Result.Ok c -> c
      | Result.Error msg -> failwith ("Persist.Store: " ^ msg)
    in
    let replay_from =
      match ckpt with
      | Some c ->
          List.iter (fun k -> ignore (S.insert set k : bool)) c.Checkpoint.keys;
          c.Checkpoint.replay_from
      | None -> -1
    in
    let scan =
      match Wal.scan ~dir ~replay_from ~f:(fun ~seq:_ r -> apply set r) with
      | Result.Ok s -> s
      | Result.Error msg -> failwith ("Persist.Store: " ^ msg)
    in
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
    {
      dir;
      universe;
      mode;
      set;
      writer;
      info;
      last_logged = Domain.DLS.new_key (fun () -> ref (-1));
      ckpt_mu = Mutex.create ();
      retention = Atomic.make (fun () -> None);
    }

  let recovery_info t = t.info
  let mode t = t.mode
  let underlying t = t.set
  let dir t = t.dir

  (** The store's WAL writer, for consumers that stream or pin the log
      (the replication primary's tailer).  [None] in {!Ephemeral}. *)
  let wal_writer t = t.writer

  (** Highest WAL sequence number logged by the {e calling} domain —
      the per-domain stamp {!barrier} waits on.  A replication layer
      running a sync-ack barrier needs the same stamp to know which
      sequence its followers must acknowledge. *)
  let last_logged_here t = !(Domain.DLS.get t.last_logged)

  (** Install the checkpoint-GC retention hook: a closure returning the
      lowest WAL sequence number still needed by an attached log
      consumer ([None] = no constraint).  Segments that may contain
      records at or past the returned floor survive checkpointing. *)
  let set_retention_hook t f = Atomic.set t.retention f

  let log t r =
    match t.writer with
    | None -> ()
    | Some w -> (Domain.DLS.get t.last_logged) := Wal.Writer.append w r

  (* Mutations: apply to the structure, then publish the acknowledged
     effect.  A [false] result changed nothing and is not logged. *)

  let insert t k =
    let ok = S.insert t.set k in
    if ok then log t (Wal.Insert k);
    ok

  let delete t k =
    let ok = S.delete t.set k in
    if ok then log t (Wal.Delete k);
    ok

  let replace t ~remove ~add =
    let ok = S.replace t.set ~remove ~add in
    if ok then log t (Wal.Replace { remove; add });
    ok

  let member t k = S.member t.set k
  let size t = S.size t.set
  let to_list t = S.to_list t.set

  (** Atomic frozen view of the current contents (the structure's
      snapshot capability, untouched by the WAL layer). *)
  let snapshot t = S.snapshot t.set

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

  (** Block until this domain's most recent logged mutation is durable.
      In {!Sync} mode an acknowledgement must not be released before
      this returns; the patserve server calls it once per processed
      frame window, which is what makes group commit pay (one fsync per
      window of pipelined requests, not per request).  No-op in the
      other modes. *)
  let barrier t =
    match t.writer with
    | Some w when t.mode = Sync ->
        let last = !(Domain.DLS.get t.last_logged) in
        if last >= 0 then Wal.Writer.wait_durable w last
    | _ -> ()

  (** Group-commit backlog: records enqueued for the log domain but not
      yet durable.  0 when the store does not log.  Cheap enough to be
      sampled by the progress watchdog on every health evaluation. *)
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
      Replace traffic needs the frozen view. *)
  let checkpoint t =
    Mutex.lock t.ckpt_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.ckpt_mu) @@ fun () ->
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
    let deleted =
      Wal.delete_obsolete_segments ~dir:t.dir ~upto:s0 ?keep_from ()
    in
    (List.length keys, deleted)

  (** Stop the log domain after draining every accepted record (final
      fsync included).  The store must not be mutated afterwards. *)
  let close t = Option.iter Wal.Writer.stop t.writer
end
