(** One serving node: the PAT trie behind the patserve protocol, with
    its durable store, replication role, watchdog, metrics endpoint and
    flight recorder wired together once.  [patbench serve], the crash
    fuzzer's children and the tests all run this composition.

    {!start} opens (and recovers) the store, subscribes a follower or
    wires a primary, and starts the server; {!tick} runs the periodic
    checkpoint at whatever cadence its caller polls; {!stop} drains the
    server and tears everything down in order.  The start failures an
    operator can act on are values ({!start_error}), never an exit
    inside the library.  Progress lines (recovery, bootstrap, PROMOTE,
    checkpoints) go to the [?log] callback of {!start}. *)

(* [Core.Patricia.create]'s optional [?record_stats] keeps it out of
   [CONCURRENT_SET_WITH_REPLACE] verbatim; the ref lets a node switch
   descent accounting on for the recovered trie too (set before
   [Store.open_], read once at create). *)
let record_stats = ref false

(** The durable store over PAT. *)
module Store = Persist.Store.Make (struct
  include Core.Patricia

  let create ~universe () =
    Core.Patricia.create ~universe ~record_stats:!record_stats ()

  let snapshot = Core.Patricia.snapshot_capability
end)

let pp_recovery ppf (ri : Store.recovery_info) =
  Format.fprintf ppf
    "recovered: checkpoint %s (%d keys%s), wal %d segments / %d records / %d \
     replayed%s, last seq %d, %d keys loaded in %.1f ms (scan %.1f, build %.1f)"
    (match ri.Store.checkpoint_seq with
    | Some s -> Printf.sprintf "@%d" s
    | None -> "none")
    ri.Store.checkpoint_keys
    (if ri.Store.checkpoints_skipped > 0 then
       Printf.sprintf ", %d corrupt skipped" ri.Store.checkpoints_skipped
     else "")
    ri.Store.wal_segments ri.Store.wal_records ri.Store.wal_replayed
    (if ri.Store.torn_tail then ", torn tail" else "")
    ri.Store.last_seq ri.Store.keys_loaded (ri.Store.elapsed_s *. 1e3)
    (ri.Store.scan_s *. 1e3) (ri.Store.build_s *. 1e3)

(* ------------------------------------------------------------------ *)
(* The store as served operations, as a follower's apply target, and
   as a hashed key fold. *)

(** Anti-entropy hash tree width: enough prefix bits to cover the whole
    key universe, so a HASHCHECK descent bottoms out at a single key
    after [width] levels — the O(log n) bound. *)
let hash_width universe =
  let w = ref 0 in
  while 1 lsl !w < universe do
    incr w
  done;
  !w

(** The store's keys as a {!Replica.Hash.fold}. *)
let fold store ~lo ~hi ~init ~f =
  Core.Patricia.fold_range (Store.underlying store) ~lo ~hi ~init ~f

(** The served operations over whichever store [r] holds: PROMOTE
    swaps a freshly recovered store in behind the same closures. *)
let server_ops r =
  Server.
    {
      insert = (fun k -> Store.insert !r k);
      delete = (fun k -> Store.delete !r k);
      member = (fun k -> Store.member !r k);
      replace = (fun ~remove ~add -> Store.replace !r ~remove ~add);
      size = (fun () -> Store.size !r);
      snapshot = (fun () -> Store.snapshot !r);
      scan_cut = (fun () -> Store.scan_cut !r);
    }

(** Forced application through the normal store path: the
    result-conditional logging means every effect that changed the
    trie lands in the follower's own WAL, so crash recovery is the
    ordinary open path, verbatim. *)
let follower_ops r =
  Replica.Follower.
    {
      apply_insert = (fun k -> ignore (Store.insert !r k : bool));
      apply_delete = (fun k -> ignore (Store.delete !r k : bool));
      wal_sync = (fun () -> Store.barrier !r);
    }

(* ------------------------------------------------------------------ *)
(* Configuration: one field per [patbench serve] flag. *)

type config = {
  port : int;  (** set protocol port; 0 binds an ephemeral one *)
  range : int;  (** key universe *)
  domains : int;  (** worker domains sharing the listening socket *)
  metrics_port : int option;
      (** Prometheus, [/healthz], [/debug/slowlog] and [/debug/shape] *)
  seconds : float option;
      (** serving deadline, kept by the caller's loop: a node never
          stops on its own *)
  data_dir : string option;  (** durable state; [None] = in-memory *)
  durability : Store.mode;
  checkpoint_s : float option;  (** checkpoint period, run by {!tick} *)
  trace_out : string option;  (** fused Perfetto trace, written at {!stop} *)
  runtime_events : bool;  (** GC/STW spans and [patserve_gc_*] families *)
  max_conns : int option;
  idle_timeout_s : float option;
  queue_deadline_ms : float option;
  soft_buffer_kb : int;
  hard_buffer_kb : int;
  follow : (string * int) option;  (** primary to follow *)
  bootstrap : bool;
      (** snapshot-bootstrap a fresh store when the follow position was
          checkpointed away on the primary *)
  staleness : int;
      (** follower read bound and [repl_lag] watchdog threshold, in
          records *)
  repl_sync : bool;  (** acks wait for every attached follower *)
}

let default_config =
  {
    port = 7113;
    range = 65_536;
    domains = 4;
    metrics_port = None;
    seconds = None;
    data_dir = None;
    durability = Store.Sync;
    checkpoint_s = None;
    trace_out = None;
    runtime_events = false;
    max_conns = None;
    idle_timeout_s = None;
    queue_deadline_ms = None;
    soft_buffer_kb = 256;
    hard_buffer_kb = 4096;
    follow = None;
    bootstrap = false;
    staleness = 1024;
    repl_sync = false;
  }

type start_error =
  | Follow_needs_data_dir  (** replication streams the WAL *)
  | Follow_needs_log  (** durability none: the follower re-logs records *)
  | Resync_required of { from_seq : int; reason : string }
      (** the primary no longer retains history back to [from_seq] *)
  | Bootstrap_not_fresh of { keys : int }
      (** bootstrap pages only insert, so stale local keys would survive *)
  | Follow_failed of string
  | Bootstrap_failed of string
  | Bind_failed of { port : int; reason : string }
      (** the server's or the metrics port could not be bound; the
          opened store and the watchdog have been torn down again *)

(* What a storage backend hands the server: the served operations, the
   live trie (shape census, descent histogram), the ack barrier, the
   periodic and final work, and the replication hooks. *)
type backend = {
  ops : Server.ops;
  trie : unit -> Core.Patricia.t;
  barrier : unit -> unit;
  tick : unit -> unit;
  teardown : unit -> unit;
  banner : string;
  repl : Server.repl option;
  gate : (Server.Protocol.op -> Server.gate_verdict) option;
}

type t = {
  srv : Server.t;
  backend : backend;
  wd : Obs.Watchdog.t;
  metrics : Obs.Serve.t option;
  runtime : Obs.Runtime.t option;
  recorder : (Obs.Trace.t * string) option;
  log : string -> unit;
}

let in_memory cfg =
  (* Descent accounting rides on the metrics endpoint: striped per
     domain, so it does not serialize the served trie. *)
  let trie =
    Core.Patricia.create ~universe:cfg.range
      ~record_stats:(cfg.metrics_port <> None) ()
  in
  {
    ops =
      Server.
        {
          insert = Core.Patricia.insert trie;
          delete = Core.Patricia.delete trie;
          member = Core.Patricia.member trie;
          replace =
            (fun ~remove ~add -> Core.Patricia.replace trie ~remove ~add);
          size = (fun () -> Core.Patricia.size trie);
          snapshot = (fun () -> Core.Patricia.snapshot_capability trie);
          scan_cut = (fun () -> -1);
        };
    trie = (fun () -> trie);
    barrier = ignore;
    tick = ignore;
    teardown = ignore;
    banner = "in-memory";
    repl = None;
    gate = None;
  }

let contains_resync msg =
  let n = String.length msg in
  let rec go i = i + 6 <= n && (String.sub msg i 6 = "resync" || go (i + 1)) in
  go 0

(* Subscribe from the persisted watermark; when the primary checkpointed
   that history away and [bootstrap] is set, stream its frozen SCAN
   pages into the (fresh) store first and subscribe from their cut. *)
let follow ~log cfg ~dir store (host, port) =
  let fops = follower_ops store in
  let subscribe from_seq =
    Replica.Follower.start ~addr:host ~port ~from_seq ~watermark_dir:dir fops
  in
  let from_seq =
    match Replica.Watermark.read ~dir with Some w -> w + 1 | None -> 0
  in
  match subscribe from_seq with
  | Ok f -> Ok f
  | Error msg when not (contains_resync msg) -> Error (Follow_failed msg)
  | Error reason when not cfg.bootstrap ->
      Error (Resync_required { from_seq; reason })
  | Error _ when Store.size !store > 0 ->
      Error (Bootstrap_not_fresh { keys = Store.size !store })
  | Error _ -> (
      match Replica.Follower.bootstrap ~addr:host ~port fops with
      | Error msg -> Error (Bootstrap_failed msg)
      | Ok (bs_from, keys) ->
          log
            (Printf.sprintf
               "patserve: snapshot-bootstrap streamed %d keys from %s:%d; \
                subscribing from seq %d"
               keys host port bs_from);
          (* Stamp the watermark before subscribing so a crash in the
             gap re-subscribes from the cut, not from seq 0. *)
          Replica.Watermark.write ~dir (bs_from - 1);
          Result.map_error (fun m -> Follow_failed m) (subscribe bs_from))

let durable ~log ?segment_bytes cfg dir =
  let mode = cfg.durability in
  let open_ () = Store.open_ ~dir ~universe:cfg.range ~mode ?segment_bytes () in
  record_stats := cfg.metrics_port <> None;
  (* Behind a ref: PROMOTE swaps in a freshly recovered store (seal the
     WAL, re-run open-time recovery, start a new writer) while the
     serving closures stay in place. *)
  let store = ref (open_ ()) in
  Persist.Metrics.set_queue_depth_source
    (Some (fun () -> Store.queue_depth !store));
  log (Format.asprintf "patserve: %a" pp_recovery (Store.recovery_info !store));
  (* Replication roles.  A durable node is always willing to be a
     primary (it has a WAL to stream); with [follow] it starts as a
     follower instead and becomes a primary only through PROMOTE. *)
  let primary = ref None and follower = ref None in
  let wire_primary () =
    Option.iter
      (fun w ->
        let p =
          Replica.Primary.create ~dir ~writer:w ~sync_ack:cfg.repl_sync ()
        in
        Store.set_retention_hook !store (Replica.Primary.retention_floor p);
        primary := Some p)
      (Store.wal_writer !store)
  in
  let started =
    match cfg.follow with
    | None -> Ok (wire_primary ())
    | Some (host, port) ->
        follow ~log cfg ~dir store (host, port)
        |> Result.map (fun f ->
               log
                 (Printf.sprintf
                    "patserve: following %s:%d (staleness bound %d records%s)"
                    host port cfg.staleness
                    (if cfg.repl_sync then ", will sync-ack after promotion"
                     else ""));
               follower := Some f)
  in
  match started with
  | Error e ->
      Persist.Metrics.set_queue_depth_source None;
      Store.close !store;
      Error e
  | Ok () ->
      let lag ~of_follower ~of_primary () =
        match (!follower, !primary) with
        | Some f, _ -> of_follower f
        | None, Some p -> of_primary p
        | None, None -> 0
      in
      Replica.Metrics.set_lag_sources
        ~records:
          (Some
             (lag ~of_follower:Replica.Follower.lag_records
                ~of_primary:Replica.Primary.lag_records))
        ~bytes:
          (Some
             (lag ~of_follower:Replica.Follower.lag_bytes
                ~of_primary:Replica.Primary.lag_bytes));
      let width = hash_width cfg.range in
      let repl_mu = Mutex.create () in
      let promote () =
        Mutex.lock repl_mu;
        Fun.protect ~finally:(fun () -> Mutex.unlock repl_mu) @@ fun () ->
        match !follower with
        | None ->
            (* Already a primary (or promoted concurrently): PROMOTE is
               idempotent by design — the crash fuzzer promotes twice
               on purpose. *)
            Ok ()
        | Some f ->
            (* Detach (final watermark persisted), seal the follower's
               WAL, and flip to primary through the ordinary open-time
               recovery. *)
            Replica.Follower.stop f;
            follower := None;
            Store.close !store;
            store := open_ ();
            wire_primary ();
            Obs.Counter.incr Replica.Metrics.promotions;
            log
              (Format.asprintf "patserve: promoted to primary: %a" pp_recovery
                 (Store.recovery_info !store));
            Ok ()
      in
      let repl =
        Server.
          {
            subscribe =
              (fun ~fd ~seq ~from_seq ->
                match !primary with
                | Some p -> Replica.Primary.subscribe p ~fd ~seq ~from_seq
                | None ->
                    Replica.reject_subscribe
                      ~reason:
                        "not a primary: followers do not serve subscriptions"
                      ~fd ~seq ~from_seq);
            hashcheck =
              (fun ~prefix ~len ->
                Replica.Hash.hashes (fold !store) ~width ~prefix ~len);
            promote;
          }
      in
      let gate op =
        match !follower with
        | None -> `Proceed
        | Some f ->
            Replica.Gate.follower ~staleness:cfg.staleness
              ~lag:(fun () -> Replica.Follower.lag_records f)
              ~retry_after_ms:25 op
      in
      let checkpoint () =
        let keys, deleted = Store.checkpoint !store in
        log
          (Printf.sprintf "patserve: checkpoint (%d keys, %d segments freed)"
             keys deleted)
      in
      let last_ckpt = ref (Unix.gettimeofday ()) in
      let tick () =
        match cfg.checkpoint_s with
        | Some every
          when mode <> Store.Ephemeral
               && Unix.gettimeofday () -. !last_ckpt >= every ->
            checkpoint ();
            last_ckpt := Unix.gettimeofday ()
        | _ -> ()
      in
      let teardown () =
        (* Detach replication first: the follower's stop persists a
           final watermark, the primary's joins its streamers. *)
        Option.iter Replica.Follower.stop !follower;
        follower := None;
        Option.iter Replica.Primary.stop !primary;
        primary := None;
        Replica.Metrics.set_lag_sources ~records:None ~bytes:None;
        (* Final image makes the next open cheap; the writer must still
           be running (checkpoint awaits durability). *)
        if mode <> Store.Ephemeral then checkpoint ();
        Store.close !store;
        Persist.Metrics.set_queue_depth_source None
      in
      Ok
        {
          ops = server_ops store;
          trie = (fun () -> Store.underlying !store);
          barrier =
            (fun () ->
              Store.barrier !store;
              (* Sync-ack: the acknowledgement additionally waits until
                 every attached follower has applied this domain's last
                 logged record. *)
              match !primary with
              | Some p ->
                  Replica.Primary.wait_acked p (Store.last_logged_here !store)
              | None -> ());
          tick;
          teardown;
          banner =
            Printf.sprintf "durability=%s dir=%s%s" (Store.mode_name mode) dir
              (match cfg.follow with
              | Some (h, p) -> Printf.sprintf " follower-of=%s:%d" h p
              | None -> "");
          repl = Some repl;
          gate = Some gate;
        }

(* The metrics endpoint: harness live families, the trie's counters
   (repro_trie_*_total: attempts, retries by cause, helps), the server,
   WAL and replication families, the watchdog verdict, runtime events,
   and the structure forensics — the shape census (pat_shape_*; an O(n)
   read-only walk per scrape) and the descent-depth histogram.  Each
   reads [b.trie ()] at scrape time, so it follows PROMOTE's swap. *)
let serve_metrics ~log ~wd ~runtime b port =
  Harness.Live.set_enabled true;
  Harness.Live.set_stats_source
    (Some
       (fun () ->
         Option.fold ~none:[] ~some:Core.Patricia.stats_to_alist
           (Core.Patricia.stats_snapshot (b.trie ()))));
  Harness.Live.clear_extra_producers ();
  List.iter Harness.Live.add_extra_producer
    [
      Server.Metrics.emit;
      Persist.Metrics.emit;
      Replica.Metrics.emit;
      Obs.Watchdog.emit wd;
    ];
  if runtime <> None then Harness.Live.add_extra_producer Obs.Runtime.emit;
  Harness.Live.add_extra_producer (fun p ->
      Option.iter (Obs.Shape.emit p) (Core.Patricia.census (b.trie ())));
  Harness.Live.add_extra_producer (fun p ->
      Option.iter
        (Obs.Prometheus.histogram_summary p ~name:"pat_descent_depth"
           ~help:"Nodes visited per search (descent depth)")
        (Core.Patricia.descent_summary (b.trie ())));
  let json doc = ("application/json", Obs.Json.to_string doc ^ "\n") in
  let routes =
    [
      ("/debug/slowlog", fun () -> json (Obs.Slowlog.to_json Server.slowlog));
      ( "/debug/shape",
        fun () ->
          json
            (match Core.Patricia.census (b.trie ()) with
            | Some c -> Obs.Shape.to_json c
            | None -> Obs.Json.Null) );
    ]
  in
  let s =
    Obs.Serve.start ~port ~routes ~health:(Obs.Watchdog.healthz wd)
      Harness.Live.prometheus
  in
  log
    (Printf.sprintf "serving metrics on http://127.0.0.1:%d/metrics"
       (Obs.Serve.port s));
  s

let detach_metrics () =
  Harness.Live.set_stats_source None;
  Harness.Live.clear_extra_producers ();
  Harness.Live.set_enabled false

let serve ~log cfg b =
  (* Flight recorder: the same trace ring collects trie attempt spans,
     per-connection request/stage spans and runtime-events GC spans, so
     one Perfetto file shows all three layers aligned. *)
  let recorder =
    Option.map (fun p -> (Obs.Trace.create ~capacity:65536 (), p)) cfg.trace_out
  in
  Option.iter (fun (r, _) -> Obs.Trace.set_recorder (Some r)) recorder;
  let runtime =
    if not cfg.runtime_events then None
    else
      match Obs.Runtime.start () with
      | Ok rt ->
          log "patserve: runtime-events collector attached";
          Some rt
      | Error m ->
          (* Never fatal: degraded observability beats a dead server. *)
          log
            (Printf.sprintf
               "patserve: warning: runtime-events unavailable (%s), \
                continuing without GC telemetry"
               m);
          None
  in
  let wd = Obs.Watchdog.create () in
  Obs.Watchdog.gauge wd ~name:"wal-queue" ~degraded_above:10_000
    ~stalled_above:100_000 Persist.Metrics.queue_depth;
  (* Replication lag rides the same watchdog: past the staleness bound
     /healthz reports "degraded: repl_lag".  Reads 0 on an unreplicated
     node (no lag sources installed). *)
  Obs.Watchdog.gauge wd ~name:"repl_lag" ~degraded_above:cfg.staleness
    Replica.Metrics.lag_records;
  Obs.Watchdog.start_monitor wd;
  let limits =
    {
      Server.default_limits with
      Server.max_conns = cfg.max_conns;
      idle_timeout_s = cfg.idle_timeout_s;
      queue_deadline_ns =
        Option.map (fun ms -> int_of_float (ms *. 1e6)) cfg.queue_deadline_ms;
      soft_buffer_bytes = cfg.soft_buffer_kb * 1024;
      hard_buffer_bytes = cfg.hard_buffer_kb * 1024;
    }
  in
  (* A port that cannot be bound undoes everything started so far: the
     store (closed after a final checkpoint), the watchdog, the runtime
     collector and the recorder. *)
  let bind_failed port e =
    b.teardown ();
    Obs.Watchdog.stop_monitor wd;
    Option.iter Obs.Runtime.stop runtime;
    if recorder <> None then Obs.Trace.set_recorder None;
    Error (Bind_failed { port; reason = Unix.error_message e })
  in
  match
    Server.start ~port:cfg.port ~domains:cfg.domains ~barrier:b.barrier
      ~watchdog:wd ~limits ?repl:b.repl ?gate:b.gate b.ops
  with
  | exception Unix.Unix_error (e, _, _) -> bind_failed cfg.port e
  | srv -> (
      log
        (Printf.sprintf
           "patserve: %d domains on 127.0.0.1:%d, range (0, %d), %s"
           cfg.domains (Server.port srv) cfg.range b.banner);
      Option.iter
        (fun m ->
          log (Printf.sprintf "patserve: admission limit %d connections" m))
        cfg.max_conns;
      match Option.map (serve_metrics ~log ~wd ~runtime b) cfg.metrics_port with
      | exception Unix.Unix_error (e, _, _) ->
          Server.stop ~drain_s:0.0 srv;
          detach_metrics ();
          bind_failed (Option.value cfg.metrics_port ~default:0) e
      | metrics -> Ok { srv; backend = b; wd; metrics; runtime; recorder; log })

(** Start a node.  [segment_bytes] sizes the WAL segments of a durable
    node (small segments put rotations inside a crash fuzzer's kill
    windows); [log] receives the progress lines [patbench serve]
    prints. *)
let start ?(log = ignore) ?segment_bytes cfg =
  match (cfg.data_dir, cfg.follow) with
  | None, Some _ -> Error Follow_needs_data_dir
  | Some _, Some _ when cfg.durability = Store.Ephemeral ->
      Error Follow_needs_log
  | None, None -> serve ~log cfg (in_memory cfg)
  | Some dir, _ ->
      Result.bind (durable ~log ?segment_bytes cfg dir) (serve ~log cfg)

let port t = Server.port t.srv

(** Periodic work: a checkpoint once [checkpoint_s] has elapsed since
    the last.  Call it at least as often as the checkpoint period. *)
let tick t = t.backend.tick ()

(** Drain and stop the server, detach replication, write a final
    checkpoint, close the store, and write the fused trace. *)
let stop t =
  Server.stop ~drain_s:1.0 t.srv;
  t.backend.teardown ();
  Obs.Watchdog.stop_monitor t.wd;
  Option.iter Obs.Runtime.stop t.runtime;
  (* Write the trace only after the runtime collector's final drain so
     the last GC spans make it into the file. *)
  Option.iter
    (fun (r, path) ->
      Obs.Trace.set_recorder None;
      Obs.Perfetto.write ~path r;
      t.log
        (Printf.sprintf
           "patserve: fused trace written to %s (%d events retained, %d \
            dropped)"
           path
           (List.length (Obs.Trace.dump r))
           (Obs.Trace.dropped r)))
    t.recorder;
  Option.iter
    (fun s ->
      Obs.Serve.stop s;
      detach_metrics ())
    t.metrics
