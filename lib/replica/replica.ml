(** Primary/follower replication with verifiable sync.

    The WAL ({!Persist.Wal}) already totally orders every acknowledged
    mutation of a store; this module ships that order over the patserve
    wire protocol and keeps the copies honest:

    - {!Primary}: accepts [SUBSCRIBE] connections handed off by the
      server ({!Server.repl}), streams WAL records as [LOGRECS] pushes
      from a per-subscription {!Persist.Wal.Tail} cursor (blocking on
      group-commit progress, so a push never carries bytes that could
      still be torn), consumes [LOGACK] progress acknowledgements, and
      — in sync-ack mode — lets the serving barrier wait until every
      attached follower has applied a given sequence number before the
      client's acknowledgement is released.  Attached cursors pin their
      WAL segments against checkpoint GC through the store's retention
      hook.
    - {!Follower}: subscribes from its persisted watermark and applies
      records through the {e normal store mutation path} with forced
      semantics — every applied record re-logs into the follower's own
      WAL, so the follower's crash recovery is the ordinary
      {!Persist.Store} open path, verbatim.  The watermark (highest
      applied {e primary} sequence) is only persisted after the
      follower's own log caught up, so a recovered watermark never
      overstates durable state and the re-subscribed suffix replays
      idempotently (insert means present, delete means absent — the
      same argument that makes recovery replay idempotent).
    - {!Hash}: order-dependent range hashing over any ascending key
      fold.  Because the Patricia trie is history-independent (one
      canonical shape per key set), two replicas with equal key sets
      hash equal on every prefix, and a [HASHCHECK] descent locates a
      divergent subtree in one round trip per trie level — O(log n)
      total ({!Hash.locate}).
    - {!Watermark}, {!Gate}, {!Metrics}: watermark file plumbing, the
      follower's read-staleness/read-only admission gate, and the
      [patserve_repl_*] metric families. *)

module Protocol = Server.Protocol

let write_all fd b off len =
  let rec go off remaining =
    if remaining > 0 then
      match Unix.write fd b off remaining with
      | n -> go (off + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off len

let send_response fd ~seq result =
  let b = Buffer.create 64 in
  Protocol.encode_response b { Protocol.seq; result };
  let bb = Buffer.to_bytes b in
  write_all fd bb 0 (Bytes.length bb)

(* ------------------------------------------------------------------ *)
(* Metrics *)

module Metrics = struct
  let records_streamed = Obs.Counter.create ()
  let records_applied = Obs.Counter.create ()
  let acks = Obs.Counter.create ()
  let subscriptions = Obs.Counter.create ()
  let subscribe_rejects = Obs.Counter.create ()
  let hashchecks = Obs.Counter.create ()
  let promotions = Obs.Counter.create ()
  let sync_ack_waits = Obs.Counter.create ()

  (* Lag is instantaneous state of the live primary/follower, not a
     cumulative counter; whichever role is active registers sampling
     closures (same pattern as [Persist.Metrics.queue_depth]). *)
  let lag_records_source : (unit -> int) option Atomic.t = Atomic.make None
  let lag_bytes_source : (unit -> int) option Atomic.t = Atomic.make None

  let set_lag_sources ~records ~bytes =
    Atomic.set lag_records_source records;
    Atomic.set lag_bytes_source bytes

  let sample src =
    match Atomic.get src with Some f -> ( try f () with _ -> 0) | None -> 0

  let lag_records () = sample lag_records_source
  let lag_bytes () = sample lag_bytes_source

  let reset () =
    List.iter Obs.Counter.reset
      [
        records_streamed;
        records_applied;
        acks;
        subscriptions;
        subscribe_rejects;
        hashchecks;
        promotions;
        sync_ack_waits;
      ]

  let snapshot () =
    [
      ("records_streamed", Obs.Counter.sum records_streamed);
      ("records_applied", Obs.Counter.sum records_applied);
      ("acks", Obs.Counter.sum acks);
      ("subscriptions", Obs.Counter.sum subscriptions);
      ("subscribe_rejects", Obs.Counter.sum subscribe_rejects);
      ("hashchecks", Obs.Counter.sum hashchecks);
      ("promotions", Obs.Counter.sum promotions);
      ("sync_ack_waits", Obs.Counter.sum sync_ack_waits);
      ("lag_records", lag_records ());
      ("lag_bytes", lag_bytes ());
    ]

  (** Append the [patserve_repl_*] families to an exposition; the shape
      [Harness.Live.add_extra_producer] expects. *)
  let emit b =
    let open Obs.Prometheus in
    let c name help v =
      counter b ~name ~help (float_of_int (Obs.Counter.sum v))
    in
    c "patserve_repl_records_streamed_total"
      "WAL records streamed to followers (LOGRECS pushes)" records_streamed;
    c "patserve_repl_records_applied_total"
      "Replicated records applied by this follower" records_applied;
    c "patserve_repl_acks_total"
      "LOGACK progress acknowledgements (received by a primary or sent \
       by a follower)"
      acks;
    c "patserve_repl_subscriptions_total"
      "SUBSCRIBE streams accepted by this primary" subscriptions;
    c "patserve_repl_subscribe_rejects_total"
      "SUBSCRIBE requests rejected (history no longer retained, \
       stopping, or not a primary)"
      subscribe_rejects;
    c "patserve_repl_hashchecks_total" "HASHCHECK subtree hash requests"
      hashchecks;
    c "patserve_repl_promotions_total"
      "PROMOTE operations executed (seal WAL, flip to primary)" promotions;
    c "patserve_repl_sync_ack_waits_total"
      "Serving barriers that waited for follower acknowledgements \
       (sync-ack mode)"
      sync_ack_waits;
    gauge b ~name:"patserve_repl_lag_records"
      ~help:
        "Replication lag in records (primary: head minus slowest \
         attached follower ack; follower: primary head minus applied)"
      (float_of_int (lag_records ()));
    gauge b ~name:"patserve_repl_lag_bytes"
      ~help:"Replication lag in WAL bytes not yet consumed"
      (float_of_int (lag_bytes ()))
end

(* ------------------------------------------------------------------ *)
(* Anti-entropy range hashing *)

module Hash = struct
  (* Hash values live in 62 bits: the wire's i64 fields reject values
     that do not round-trip through OCaml's 63-bit int, and keeping the
     sign bit clear sidesteps negative-literal surprises. *)
  let mask = 0x3FFFFFFFFFFFFFFF
  let empty = 0x243F6A8885A308D lor 1 (* pi digits; any fixed nonzero seed *)

  (* SplitMix64-style avalanche of one key, folded in sequentially:
     order-dependent, so equal ascending folds hash equal — which is
     the only property needed, since both sides fold the same canonical
     ascending order. *)
  let mix acc k =
    let z = (k + 0x1E3779B97F4A7C15) land max_int in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
    let z = z lxor (z lsr 31) in
    ((acc * 0x100000001B3) lxor z) land mask

  (* Deterministic combiner for an internal node from its two child
     hashes: the node hash carries no information beyond the children,
     but sending all three lets the checker compare the node in the
     same round trip it uses to pick the divergent child. *)
  let combine l r = (((l * 0x100000001B3) lxor r) + 0x9E3779B9) land mask

  (** Ascending fold over stored keys in [\[lo, hi\]], monomorphic in
      the accumulator — the one capability a served structure must
      provide for anti-entropy ([Patricia.fold_range] pruned descent,
      or any sorted iteration). *)
  type fold = lo:int -> hi:int -> init:int -> f:(int -> int -> int) -> int

  let range (fold : fold) ~lo ~hi =
    if lo > hi then empty else fold ~lo ~hi ~init:empty ~f:mix

  (** Key range covered by the [len]-bit prefix [prefix] of a
      [width]-bit keyspace. *)
  let prefix_range ~width ~prefix ~len =
    let span = width - len in
    let lo = prefix lsl span in
    (lo, lo + (1 lsl span) - 1)

  (** The [(node, left, right)] hashes HASHCHECK answers: [left]/[right]
      are the child prefixes' range hashes, [node] their combination —
      except at full depth, where the range is a single key and the
      node hash is the range hash itself (children report [0]). *)
  let hashes (fold : fold) ~width ~prefix ~len =
    if len < 0 || len > width then
      Result.Error (Printf.sprintf "prefix length %d outside [0, %d]" len width)
    else if prefix < 0 || (len < 62 && prefix >= 1 lsl len) then
      Result.Error (Printf.sprintf "prefix %d wider than %d bits" prefix len)
    else begin
      Obs.Counter.incr Metrics.hashchecks;
      if len = width then begin
        let lo, hi = prefix_range ~width ~prefix ~len in
        Result.Ok (range fold ~lo ~hi, 0, 0)
      end
      else begin
        let llo, lhi = prefix_range ~width ~prefix:(2 * prefix) ~len:(len + 1) in
        let rlo, rhi =
          prefix_range ~width ~prefix:((2 * prefix) + 1) ~len:(len + 1)
        in
        let l = range fold ~lo:llo ~hi:lhi in
        let r = range fold ~lo:rlo ~hi:rhi in
        Result.Ok (combine l r, l, r)
      end
    end

  (** Descend from the root comparing local subtree hashes against a
      remote replica's, one [HASHCHECK] round trip per level.  Returns
      [(divergent_key_range, round_trips)]: [None] when the replicas
      hash equal at the root, [Some (lo, hi)] the unit (or narrowest
      divergent) key range otherwise.  Round trips are [<= width + 1 =
      O(log n)] — the acceptance criterion the test asserts. *)
  let locate (fold : fold) ~width ~(remote : prefix:int -> len:int -> int * int * int) =
    let rec go prefix len rts =
      let rnode, rleft, rright = remote ~prefix ~len in
      match hashes fold ~width ~prefix ~len with
      | Result.Error msg -> failwith ("Replica.Hash.locate: " ^ msg)
      | Result.Ok (lnode, lleft, lright) ->
          if lnode = rnode then (None, rts)
          else if len = width then (Some (prefix_range ~width ~prefix ~len), rts)
          else if lleft <> rleft then go (2 * prefix) (len + 1) (rts + 1)
          else if lright <> rright then go ((2 * prefix) + 1) (len + 1) (rts + 1)
          else
            (* node differs but both children agree: impossible for the
               deterministic combiner; treat as divergence here. *)
            (Some (prefix_range ~width ~prefix ~len), rts)
    in
    go 0 0 1
end

(* ------------------------------------------------------------------ *)
(* Watermark: the follower's persisted replication position *)

module Watermark = struct
  let filename = "REPL_WATERMARK"
  let path ~dir = Filename.concat dir filename

  (** Highest primary sequence number known applied {e and} covered by
      the follower's own durable log; [None] if never written. *)
  let read ~dir =
    match open_in (path ~dir) with
    | ic ->
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        (try int_of_string_opt (String.trim (input_line ic))
         with End_of_file -> None)
    | exception Sys_error _ -> None

  (** Atomic write (tmp + fsync + rename), same discipline as
      checkpoint images: a torn watermark must never be readable. *)
  let write ~dir seq =
    let tmp = path ~dir ^ ".tmp" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    (Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
     let s = Bytes.of_string (string_of_int seq ^ "\n") in
     write_all fd s 0 (Bytes.length s);
     Unix.fsync fd);
    Unix.rename tmp (path ~dir)
end

(* ------------------------------------------------------------------ *)
(* Primary: stream the WAL to subscribed followers *)

module Primary = struct
  type sub = {
    id : int;
    fd : Unix.file_descr;
    sub_seq : int;  (** every push is tagged with the SUBSCRIBE seq *)
    acked : int Atomic.t;  (** highest LOGACK applied_seq received *)
    tail_pos : int Atomic.t;  (** next WAL seq the cursor will deliver *)
    lag_b : int Atomic.t;  (** unconsumed WAL bytes behind the cursor *)
    alive : bool Atomic.t;
    mutable dom : unit Domain.t option;
  }

  type t = {
    dir : string;
    writer : Persist.Wal.Writer.t;
    sync_ack : bool;
    ack_timeout_s : float;
    mu : Mutex.t;
    acked_cond : Condition.t;
    mutable subs : sub list;
    mutable next_id : int;
    mutable stopping : bool;
  }

  let create ~dir ~writer ?(sync_ack = false) ?(ack_timeout_s = 10.0) () =
    {
      dir;
      writer;
      sync_ack;
      ack_timeout_s;
      mu = Mutex.create ();
      acked_cond = Condition.create ();
      subs = [];
      next_id = 0;
      stopping = false;
    }

  let live_subs t =
    Mutex.lock t.mu;
    let subs = List.filter (fun s -> Atomic.get s.alive) t.subs in
    Mutex.unlock t.mu;
    subs

  let subscriber_count t = List.length (live_subs t)

  (** Checkpoint-GC floor for {!Persist.Store.Make.set_retention_hook}:
      the earliest WAL position some attached cursor still needs. *)
  let retention_floor t () =
    match live_subs t with
    | [] -> None
    | subs ->
        Some
          (List.fold_left
             (fun acc s -> min acc (Atomic.get s.tail_pos))
             max_int subs)

  (** Primary-side lag of the slowest attached follower, in records:
      newest assigned sequence minus the slowest acknowledged one.  0
      with no followers attached — an unreplicated primary is not
      "lagging", it is alone. *)
  let lag_records t =
    match live_subs t with
    | [] -> 0
    | subs ->
        let head = Persist.Wal.Writer.last_assigned t.writer in
        List.fold_left
          (fun acc s -> max acc (head - Atomic.get s.acked))
          0 subs

  let lag_bytes t =
    List.fold_left (fun acc s -> max acc (Atomic.get s.lag_b)) 0 (live_subs t)

  let mark_dead t s =
    if Atomic.compare_and_set s.alive true false then begin
      Mutex.lock t.mu;
      t.subs <- List.filter (fun s' -> s'.id <> s.id) t.subs;
      (* Sync-ack waiters must re-evaluate: a dead follower no longer
         gates acknowledgements (availability over blocking forever on
         a vanished replica). *)
      Condition.broadcast t.acked_cond;
      Mutex.unlock t.mu;
      (try Unix.shutdown s.fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error (_, _, _) -> ());
      Obs.Net.close_noerr s.fd
    end

  let record_to_op = function
    | Persist.Wal.Insert k -> Protocol.Insert k
    | Persist.Wal.Delete k -> Protocol.Delete k
    | Persist.Wal.Replace { remove; add } -> Protocol.Replace { remove; add }

  (* Drain whatever LOGACKs the follower has sent without blocking; the
     streamer polls this between pushes.  Returns [false] when the
     connection is gone. *)
  let drain_acks t s reader scratch =
    let rec read_ready ok =
      if not ok then false
      else
        match Unix.select [ s.fd ] [] [] 0.0 with
        | [], _, _ -> true
        | _ :: _, _, _ -> (
            match Unix.read s.fd scratch 0 (Bytes.length scratch) with
            | 0 -> false
            | n ->
                Protocol.Reader.feed reader scratch n;
                read_ready (decode_frames ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_ready ok
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                true
            | exception Unix.Unix_error (_, _, _) -> false)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_ready ok
        | exception Unix.Unix_error (_, _, _) -> false
    and decode_frames () =
      match Protocol.Reader.next_payload reader with
      | `None -> true
      | `Bad _ -> false
      | `Payload (buf, off, len) -> (
          match Protocol.decode_request buf ~off ~len with
          | Result.Ok { Protocol.op = Protocol.Logack { applied_seq }; _ } ->
              Obs.Counter.incr Metrics.acks;
              let rec raise_to v =
                let cur = Atomic.get s.acked in
                if v > cur && not (Atomic.compare_and_set s.acked cur v) then
                  raise_to v
              in
              raise_to applied_seq;
              Mutex.lock t.mu;
              Condition.broadcast t.acked_cond;
              Mutex.unlock t.mu;
              decode_frames ()
          | Result.Ok _ | Result.Error _ ->
              (* Anything but LOGACK on a subscription stream is a
                 protocol violation; drop the stream. *)
              false)
    in
    read_ready true

  let stream_loop t s tail =
    let reader = Protocol.Reader.create () in
    let scratch = Bytes.create 65536 in
    let buf = Buffer.create 65536 in
    let rec loop () =
      if Atomic.get s.alive && not t.stopping then
        if not (drain_acks t s reader scratch) then mark_dead t s
        else begin
          (* Short wait: this loop is the only reader of both event
             sources (new durable WAL records, incoming LOGACKs on the
             socket), so its cycle time bounds the sync-ack latency a
             barrier-blocked worker sees.  2ms keeps that bound tight
             at the cost of an idle poll per subscription. *)
          let batch =
            Persist.Wal.Tail.next_batch tail ~max_records:4096 ~timeout_s:0.002
          in
          Atomic.set s.tail_pos (Persist.Wal.Tail.pos_seq tail);
          Atomic.set s.lag_b (Persist.Wal.Tail.lag_bytes tail);
          (match batch with
          | [] -> ()
          | recs ->
              let head_seq = Persist.Wal.Writer.last_assigned t.writer in
              Buffer.clear buf;
              Protocol.encode_response buf
                {
                  Protocol.seq = s.sub_seq;
                  result =
                    Protocol.Logrecs
                      {
                        head_seq;
                        recs =
                          List.map
                            (fun (rseq, r) ->
                              { Protocol.rseq; rop = record_to_op r })
                            recs;
                      };
                };
              let bb = Buffer.to_bytes buf in
              (match write_all s.fd bb 0 (Bytes.length bb) with
              | () -> Obs.Counter.add Metrics.records_streamed (List.length recs)
              | exception Unix.Unix_error (_, _, _) -> mark_dead t s));
          loop ()
        end
    in
    (match loop () with
    | () -> ()
    | exception _ -> ());
    mark_dead t s;
    Persist.Wal.Tail.close tail

  (** The {!Server.repl} [subscribe] hook: takes ownership of a
      handed-off connection, answers the SUBSCRIBE request, and serves
      it from a dedicated streamer domain. *)
  let subscribe t ~fd ~seq ~from_seq =
    let reject msg =
      Obs.Counter.incr Metrics.subscribe_rejects;
      (try send_response fd ~seq (Protocol.Error msg)
       with Unix.Unix_error (_, _, _) -> ());
      Obs.Net.close_noerr fd
    in
    Mutex.lock t.mu;
    let stopping = t.stopping in
    Mutex.unlock t.mu;
    if stopping then reject "primary is shutting down"
    else begin
      (* Nagle + delayed ACK would add ~40ms to every push/ack round
         trip, which the sync-ack barrier would eat in full. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error (_, _, _) -> ());
      match
        Persist.Wal.Tail.open_ ~dir:t.dir ~writer:t.writer ~from_seq ()
      with
      | Result.Error msg -> reject msg
      | Result.Ok tail -> (
          let s =
            {
              id = 0;
              fd;
              sub_seq = seq;
              acked = Atomic.make (from_seq - 1);
              tail_pos = Atomic.make from_seq;
              lag_b = Atomic.make 0;
              alive = Atomic.make true;
              dom = None;
            }
          in
          (* Register before confirming: once the follower sees the
             confirmation it may rely on sync-ack gating, so the sub
             must already be in the barrier's sight. *)
          Mutex.lock t.mu;
          let s = { s with id = t.next_id } in
          t.next_id <- t.next_id + 1;
          t.subs <- s :: t.subs;
          Mutex.unlock t.mu;
          match send_response fd ~seq (Protocol.Bool true) with
          | exception Unix.Unix_error (_, _, _) ->
              mark_dead t s;
              Persist.Wal.Tail.close tail
          | () ->
              Obs.Counter.incr Metrics.subscriptions;
              s.dom <- Some (Domain.spawn (fun () -> stream_loop t s tail)))
    end

  (** Sync-ack barrier tail: block until every follower attached {e at
      entry} has acknowledged applying [seq] (their in-memory state
      contains it; its effects are queued in their own logs).  Bounded
      by [ack_timeout_s] — a wedged follower degrades to async
      replication rather than wedging the primary's serving path; dead
      followers stop gating immediately.  No-op with [seq < 0], in
      async mode, or with no followers attached. *)
  let wait_acked t seq =
    if t.sync_ack && seq >= 0 then begin
      let gating = live_subs t in
      if gating <> [] then begin
        Obs.Counter.incr Metrics.sync_ack_waits;
        let deadline = Unix.gettimeofday () +. t.ack_timeout_s in
        let caught_up () =
          List.for_all
            (fun s -> (not (Atomic.get s.alive)) || Atomic.get s.acked >= seq)
            gating
        in
        Mutex.lock t.mu;
        let rec wait () =
          if (not (caught_up ())) && Unix.gettimeofday () < deadline then begin
            (* Timed wakeups: OCaml's Condition has no deadline, so the
               broadcast path is the fast wakeup and this bounds the
               slow one. *)
            Condition.broadcast t.acked_cond;
            Mutex.unlock t.mu;
            Unix.sleepf 0.0005;
            Mutex.lock t.mu;
            wait ()
          end
        in
        wait ();
        Mutex.unlock t.mu
      end
    end

  let stop t =
    Mutex.lock t.mu;
    t.stopping <- true;
    let subs = t.subs in
    Condition.broadcast t.acked_cond;
    Mutex.unlock t.mu;
    List.iter (fun s -> mark_dead t s) subs;
    List.iter (fun s -> Option.iter Domain.join s.dom) subs
end

(* ------------------------------------------------------------------ *)
(* Follower: subscribe, apply through the store, acknowledge *)

module Follower = struct
  (** How the follower touches its local store: forced application (the
      record's effect must hold afterwards, result booleans are
      irrelevant) plus the commit that follows each acknowledged batch
      and gates watermark persistence. *)
  type store_ops = {
    apply_insert : int -> unit;
    apply_delete : int -> unit;
    wal_sync : unit -> unit;
        (** commit the follower's own WAL up to everything applied so
            far; run once the applied batches are acknowledged, before
            the follower blocks for more *)
  }

  type t = {
    addr : string;
    port : int;
    ops : store_ops;
    watermark_dir : string option;
    fd : Unix.file_descr;
    applied : int Atomic.t;  (** highest primary seq applied *)
    head : int Atomic.t;  (** primary head_seq from the last push *)
    unapplied_bytes : int Atomic.t;
        (** received-but-unapplied payload bytes — nonzero while the
            apply loop is stalled mid-batch *)
    stopping : bool Atomic.t;
    failed : string option Atomic.t;
    mutable dom : unit Domain.t option;
    watermark_every : int;
  }

  let applied_seq t = Atomic.get t.applied
  let head_seq t = Atomic.get t.head
  let lag_records t = max 0 (Atomic.get t.head - Atomic.get t.applied)
  let lag_bytes t = Atomic.get t.unapplied_bytes
  let failure t = Atomic.get t.failed

  (* Approximate wire size of one replicated record, for the
     unapplied-bytes gauge. *)
  let rec_bytes = function
    | Protocol.Replace _ -> 8 + 1 + 16
    | _ -> 8 + 1 + 8

  let persist_watermark t =
    match t.watermark_dir with
    | None -> ()
    | Some dir ->
        (* Order matters: the follower's own log must cover every
           applied record before the watermark claims them, so a
           recovered watermark never points past recoverable state. *)
        t.ops.wal_sync ();
        Watermark.write ~dir (Atomic.get t.applied)

  let apply_batch t ~head_seq recs =
    Atomic.set t.head (max head_seq (Atomic.get t.head));
    Atomic.set t.unapplied_bytes
      (List.fold_left (fun a { Protocol.rop; _ } -> a + rec_bytes rop) 0 recs);
    let applied_since = ref 0 in
    List.iter
      (fun { Protocol.rseq; rop } ->
        Chaos.point Chaos.Repl_apply;
        (match rop with
        | Protocol.Insert k -> t.ops.apply_insert k
        | Protocol.Delete k -> t.ops.apply_delete k
        | Protocol.Replace { remove; add } ->
            (* Forced semantics, exactly like recovery replay: the
               record asserts [remove] absent and [add] present. *)
            t.ops.apply_delete remove;
            t.ops.apply_insert add
        | _ -> ());
        Atomic.set t.applied rseq;
        Obs.Counter.incr Metrics.records_applied;
        incr applied_since;
        Atomic.set t.unapplied_bytes
          (max 0 (Atomic.get t.unapplied_bytes - rec_bytes rop)))
      recs;
    !applied_since

  let recv_loop t reader =
    let scratch = Bytes.create 65536 in
    let since_watermark = ref 0 in
    let uncommitted = ref false in
    let fail msg = Atomic.set t.failed (Some msg) in
    let rec frames () =
      if Atomic.get t.stopping then ()
      else
        match Protocol.Reader.next_payload reader with
        | `Bad msg -> fail ("subscription stream desynchronized: " ^ msg)
        | `Payload (buf, off, len) -> (
            match Protocol.decode_response buf ~off ~len with
            | Result.Error msg -> fail ("bad frame from primary: " ^ msg)
            | Result.Ok { Protocol.result = Protocol.Logrecs { head_seq; recs }; _ }
              ->
                let n = apply_batch t ~head_seq recs in
                since_watermark := !since_watermark + n;
                (* Acknowledge applied progress; the primary's sync-ack
                   barrier blocks on exactly this number. *)
                let ack = Buffer.create 32 in
                Protocol.encode_request ack
                  {
                    Protocol.seq = 2;
                    op = Protocol.Logack { applied_seq = Atomic.get t.applied };
                  };
                let bb = Buffer.to_bytes ack in
                (match write_all t.fd bb 0 (Bytes.length bb) with
                | () -> Obs.Counter.incr Metrics.acks
                | exception Unix.Unix_error (e, _, _) ->
                    fail ("ack write: " ^ Unix.error_message e));
                uncommitted := true;
                if !since_watermark >= t.watermark_every then begin
                  since_watermark := 0;
                  uncommitted := false;
                  persist_watermark t
                end;
                frames ()
            | Result.Ok { Protocol.result = Protocol.Error msg; _ } ->
                fail ("primary error: " ^ msg)
            | Result.Ok _ -> frames ())
        | `None -> (
            (* Every frame read so far is applied and acknowledged:
               commit them to the follower's own log before blocking
               for more.  Their acks do not wait for this write (or
               fsync), and the batches of one read share a commit. *)
            if !uncommitted then begin
              uncommitted := false;
              t.ops.wal_sync ()
            end;
            match Unix.read t.fd scratch 0 (Bytes.length scratch) with
            | 0 ->
                if not (Atomic.get t.stopping) then
                  fail "primary closed the subscription"
            | n ->
                Protocol.Reader.feed reader scratch n;
                frames ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> frames ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                (* recv timeout: re-check stopping, then keep waiting *)
                frames ()
            | exception Unix.Unix_error (e, _, _) ->
                if not (Atomic.get t.stopping) then
                  fail ("subscription read: " ^ Unix.error_message e))
    in
    frames ();
    persist_watermark t

  (** Connect to the primary and stream from [from_seq] (typically
      [Watermark.read + 1]; the overlap with already-applied state is
      harmless because application is forced).  The subscription is
      confirmed synchronously — an [Error] (history no longer retained,
      not a primary) surfaces here, loudly — then applied on a
      dedicated domain. *)
  let start ?(addr = "127.0.0.1") ~port ~from_seq ?watermark_dir
      ?(watermark_every = 512) ops =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      (* Bounded reads so stop requests are noticed within 200ms even
         with an idle primary. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2
    with
    | exception Unix.Unix_error (e, _, _) ->
        Obs.Net.close_noerr fd;
        Result.Error ("connect to primary: " ^ Unix.error_message e)
    | () -> (
        let sub = Buffer.create 32 in
        Protocol.encode_request sub
          { Protocol.seq = 1; op = Protocol.Subscribe { from_seq } };
        let bb = Buffer.to_bytes sub in
        match write_all fd bb 0 (Bytes.length bb) with
        | exception Unix.Unix_error (e, _, _) ->
            Obs.Net.close_noerr fd;
            Result.Error ("subscribe: " ^ Unix.error_message e)
        | () -> (
            (* Synchronous confirmation read: one response frame. *)
            let reader = Protocol.Reader.create () in
            let scratch = Bytes.create 4096 in
            let rec confirm () =
              match Protocol.Reader.next_payload reader with
              | `Bad msg -> Result.Error msg
              | `Payload (buf, off, len) -> Protocol.decode_response buf ~off ~len
              | `None -> (
                  match Unix.read fd scratch 0 (Bytes.length scratch) with
                  | 0 -> Result.Error "primary closed before confirming"
                  | n ->
                      Protocol.Reader.feed reader scratch n;
                      confirm ()
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> confirm ()
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                      confirm ()
                  | exception Unix.Unix_error (e, _, _) ->
                      Result.Error (Unix.error_message e))
            in
            match confirm () with
            | Result.Error msg ->
                Obs.Net.close_noerr fd;
                Result.Error ("subscribe: " ^ msg)
            | Result.Ok { Protocol.result = Protocol.Error msg; _ } ->
                Obs.Net.close_noerr fd;
                Result.Error ("subscribe rejected: " ^ msg)
            | Result.Ok { Protocol.result = Protocol.Bool true; _ } ->
                let t =
                  {
                    addr;
                    port;
                    ops;
                    watermark_dir;
                    fd;
                    applied = Atomic.make (from_seq - 1);
                    head = Atomic.make (from_seq - 1);
                    unapplied_bytes = Atomic.make 0;
                    stopping = Atomic.make false;
                    failed = Atomic.make None;
                    dom = None;
                    watermark_every;
                  }
                in
                (* The apply domain inherits the confirmation reader:
                   any stream bytes that arrived in the same read as
                   the confirmation are already buffered in it. *)
                t.dom <- Some (Domain.spawn (fun () -> recv_loop t reader));
                Result.Ok t
            | Result.Ok _ ->
                Obs.Net.close_noerr fd;
                Result.Error "subscribe: unexpected confirmation"))

  (** Snapshot-bootstrap: populate a {e fresh} follower store from a
      live primary's frozen SCAN pages instead of replaying its whole
      WAL history — the remedy when {!start} is rejected with "resync
      required" (the subscription position was checkpointed away on the
      primary).

      Streams the primary's contents page by page (each page drawn
      from an atomic frozen snapshot on the primary), applies every key
      through [apply_insert] (re-logging into the follower's own WAL as
      usual), and returns [(from_seq, keys_loaded)] where [from_seq] is
      the position to pass to {!start}: the {e first} page's [cut] + 1.
      Every mutation the primary logged at or before that cut is inside
      its page's snapshot (pages after the first are newer snapshots,
      so their cuts are at least as high), and every record past it is
      replayed by the subscription with the follower's forced
      application — the same half-seen-then-overwritten argument that
      makes watermark-overlap replay idempotent.  The caller must only
      run this against a store with no other writers (a fresh or
      wiped data directory). *)
  let bootstrap ?(addr = "127.0.0.1") ~port ops =
    match Server.Client.connect ~addr ~port () with
    | exception e ->
        Result.Error ("bootstrap connect: " ^ Printexc.to_string e)
    | c -> (
        Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
        let cut = ref None in
        let loaded = ref 0 in
        match
          Server.Client.scan
            ~f:(fun p ->
              if !cut = None then cut := Some p.Server.Client.cut;
              List.iter ops.apply_insert p.Server.Client.keys;
              loaded := !loaded + List.length p.Server.Client.keys)
            c
        with
        | (_ : int list) -> (
            ops.wal_sync ();
            match !cut with
            | Some cut -> Result.Ok (cut + 1, !loaded)
            | None -> Result.Error "bootstrap scan returned no pages")
        | exception e ->
            Result.Error ("bootstrap scan: " ^ Printexc.to_string e))

  (** Detach: stop the apply domain, close the socket, persist a final
      watermark.  Idempotent. *)
  let stop t =
    if not (Atomic.exchange t.stopping true) then begin
      (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error (_, _, _) -> ())
    end;
    (match t.dom with
    | Some d ->
        t.dom <- None;
        Domain.join d
    | None -> ());
    Obs.Net.close_noerr t.fd
end

(* ------------------------------------------------------------------ *)
(* Follower admission gate *)

module Gate = struct
  (** The follower's per-request verdict for {!Server.start}'s [?gate]:
      mutations are refused (a follower is a read-only replica — the
      primary owns the write order), reads are served while the
      follower's applied position is within [staleness] records of the
      primary's head and declined BUSY past it. *)
  let follower ~staleness ~lag ~retry_after_ms : Protocol.op -> _ = function
    | Protocol.Member _ | Protocol.Size | Protocol.Hashcheck _
    | Protocol.Scan _ | Protocol.Range _ ->
        if lag () > staleness then `Busy_gate retry_after_ms else `Proceed
    | Protocol.Batch ops
      when List.for_all
             (function Protocol.Member _ -> true | _ -> false)
             ops ->
        if lag () > staleness then `Busy_gate retry_after_ms else `Proceed
    | Protocol.Insert _ | Protocol.Delete _ | Protocol.Replace _
    | Protocol.Batch _ ->
        `Refuse "read-only follower: send mutations to the primary"
    | Protocol.Subscribe _ ->
        `Refuse "followers do not serve subscriptions"
    | Protocol.Logack _ | Protocol.Promote -> `Proceed
end

(** A {!Server.repl} [subscribe] hook for nodes that are not primaries:
    answer with an error and close — a follower must reject SUBSCRIBE
    without wedging the handed-off socket. *)
let reject_subscribe ~reason ~fd ~seq ~from_seq:_ =
  Obs.Counter.incr Metrics.subscribe_rejects;
  (try send_response fd ~seq (Protocol.Error reason)
   with Unix.Unix_error (_, _, _) -> ());
  Obs.Net.close_noerr fd
