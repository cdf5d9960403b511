(* patbench — benchmark CLI for the Patricia-trie repro.

   Each experiment is a subcommand with flags.  [figure] runs entries of
   the evaluation table in lib/harness (the paper's Figures 8-11, the
   configurations it mentions without plotting, and our ablations of
   PAT); the rest are our own measurements and tools:

     patbench figure --id 8,9 --threads 1,2,4 --seconds 2 --trials 4
     patbench figure --id medium-contention
     patbench figure --id helping,seq --range 1000
     patbench figure --id contention --backoff
     patbench scan --threads 1,2 --baseline-json scan.json
*)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common options *)

let threads_arg =
  let doc = "Comma-separated list of thread counts to sweep." in
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "threads" ] ~doc)

let seconds_arg =
  let doc = "Seconds per timed trial." in
  Arg.(value & opt float 1.0 & info [ "seconds" ] ~doc)

let trials_arg =
  let doc = "Trials per data point (mean and stddev are reported)." in
  Arg.(value & opt int 3 & info [ "trials" ] ~doc)

let seed_arg =
  let doc = "Base random seed for workloads and prefill." in
  Arg.(value & opt int 2013 & info [ "seed" ] ~doc)

let csv_arg =
  let doc = "Also print data points as CSV rows (structure,threads,mean,stddev)." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let metrics_arg =
  let doc =
    "Write a machine-readable metrics file (JSON): per data point latency \
     percentiles, PAT's contention counters, GC deltas, and raw throughput \
     samples (schema in EXPERIMENTS.md, \"Observability\")."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~doc ~docv:"PATH")

let baseline_arg =
  let doc =
    "Write a throughput baseline (JSON): one {figure, structure, threads, \
     mean_ops_s, stddev_ops_s} row per data point, the input of \
     test/compare_bench.exe (see EXPERIMENTS.md, \"Throughput regression \
     gate\")."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline-json" ] ~doc ~docv:"PATH")

let backoff_arg =
  let doc =
    "Enable bounded exponential backoff with jitter in the retry loops of \
     the structures under test (PAT and PAT-VLK).  Off by default so the \
     paper's figures are reproduced with the unmodified algorithm; see \
     EXPERIMENTS.md, \"Fault injection & progress\"."
  in
  Arg.(value & flag & info [ "backoff" ] ~doc)

let trace_out_arg =
  let doc =
    "Record every trie update attempt as a span in per-domain ring buffers \
     and write the merged timeline as Chrome trace-event JSON to $(docv) at \
     exit — open it in Perfetto (ui.perfetto.dev) or chrome://tracing, one \
     track per domain.  Ring overflow keeps the most recent attempts and is \
     reported, never silent."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"PATH")

let serve_arg =
  let doc =
    "Serve live metrics over HTTP on 127.0.0.1:$(docv) for the whole run: \
     GET /metrics returns Prometheus text (throughput counter, latency \
     quantiles, PAT's attempt and retry-cause counters, GC state), GET \
     /healthz returns ok.  Port 0 binds an ephemeral port (printed at \
     startup).  Implies latency recording and PAT's counters."
  in
  Arg.(value & opt (some int) None & info [ "serve" ] ~doc ~docv:"PORT")

let set_backoff b = Chaos.Backoff.set_enabled b

(* Install the flight recorder around one subcommand invocation: the
   attempt-span trace ring (--trace-out) and the live scrape endpoint
   (--serve).  Teardown always runs — the trace file survives a failing
   sweep. *)
let with_flight_recorder ~trace_out ~serve f =
  let tr =
    Option.map (fun _ -> Obs.Trace.create ~capacity:16384 ()) trace_out
  in
  Option.iter (fun t -> Obs.Trace.set_recorder (Some t)) tr;
  let server =
    Option.map
      (fun port ->
        Harness.Live.set_enabled true;
        let s = Obs.Serve.start ~port Harness.Live.prometheus in
        Format.printf "serving metrics on http://127.0.0.1:%d/metrics@."
          (Obs.Serve.port s);
        Format.print_flush ();
        s)
      serve
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Obs.Serve.stop server;
      Harness.Live.set_enabled false;
      Obs.Trace.set_recorder None;
      (match (tr, trace_out) with
      | Some t, Some path ->
          Obs.Perfetto.write ~path t;
          Format.printf
            "@.perfetto trace written to %s (%d events retained, %d dropped)@."
            path
            (List.length (Obs.Trace.dump t))
            (Obs.Trace.dropped t)
      | _ -> ());
      Format.print_flush ())
    f

let config ~seconds ~trials ~seed threads =
  Harness.
    { threads; seconds; trials; warmup_seconds = min 0.3 (seconds /. 2.0); seed }

(* Output files are per-invocation state: [with_outputs] switches each
   sink on when its path is given, every sweep appends its rows, and
   the files are written once at the end. *)
type sink = { mutable on : bool; mutable rows : Obs.Json.t list }

let metrics_sink = { on = false; rows = [] }
let baseline_sink = { on = false; rows = [] }
let emit sink row = if sink.on then sink.rows <- row :: sink.rows

let baseline_row ~figure ~structure ~threads (dp : Harness.datapoint) =
  emit baseline_sink
    Obs.Json.(
      Obj
        [
          ("figure", Str figure);
          ("structure", Str structure);
          ("threads", Int threads);
          ("mean_ops_s", Float dp.Harness.mean);
          ("stddev_ops_s", Float dp.Harness.stddev);
        ])

let with_outputs ~threads_list ~seconds ~trials ~seed ?metrics ?baseline f =
  let open Obs.Json in
  let config =
    Obj
      [
        ("seconds_per_trial", Float seconds);
        ("trials", Int trials);
        ("threads", Arr (List.map (fun t -> Int t) threads_list));
        ("seed", Int seed);
        ("available_cores", Int (Domain.recommended_domain_count ()));
        ("backoff", Bool (Chaos.Backoff.enabled ()));
        ("chaos_injection", Bool (Chaos.enabled ()));
      ]
  in
  let write what sink path =
    let doc =
      Obj
        [
          ("schema_version", Int 1);
          ("benchmark", Str "bin/patbench.exe");
          ("config", config);
          ("datapoints", Arr (List.rev sink.rows));
        ]
    in
    match to_file path doc with
    | () ->
        Format.printf "@.%s written to %s (%d datapoints)@." what path
          (List.length sink.rows)
    | exception Sys_error m ->
        Format.eprintf "@.cannot write %s file: %s@." what m;
        exit 1
  in
  let outputs =
    [
      ("metrics", metrics_sink, metrics);
      ("baseline", baseline_sink, baseline);
    ]
  in
  List.iter
    (fun (_, sink, path) ->
      sink.on <- path <> None;
      sink.rows <- [])
    outputs;
  let r = f () in
  List.iter
    (fun (what, sink, path) -> Option.iter (write what sink) path)
    outputs;
  r

(* [key] names the rows in the output files. *)
let run_sweep ~threads_list ~seconds ~trials ~seed ~csv ~key ~title subjects
    workload =
  Format.printf "@.=== %s ===@." title;
  (* Metrics files and the live endpoint both want latency recording and
     PAT's internal counters; the bare sweep stays uninstrumented. *)
  let instrumented = metrics_sink.on || Harness.Live.enabled () in
  let subjects =
    (* With metrics on, swap PAT for its counter-enabled twin so the
       "counters" object is populated. *)
    if instrumented then
      List.map
        (fun s ->
          if s.Harness.label = Core.Patricia.name then Harness.pat_subject_stats
          else s)
        subjects
    else subjects
  in
  let rows =
    List.map
      (fun subject ->
        let label = subject.Harness.label in
        ( label,
          List.map
            (fun threads ->
              let full =
                Harness.run_subject_full ~record_latency:instrumented
                  subject workload
                  (config ~seconds ~trials ~seed threads)
              in
              emit metrics_sink
                (Harness.datapoint_full_to_json ~section:key ~label workload
                   ~threads full);
              baseline_row ~figure:key ~structure:label ~threads
                full.Harness.dp;
              full)
            threads_list ))
      subjects
  in
  Harness.pp_series Format.std_formatter ~title ~threads_list
    (List.map
       (fun (label, fulls) ->
         (label, List.map (fun f -> f.Harness.dp) fulls))
       rows);
  (* Per-operation coordination counts, for subjects that record them
     (PAT when instrumented, and in the helping entry), under the
     throughput they explain. *)
  List.iter
    (fun (label, fulls) ->
      if List.exists (fun f -> f.Harness.counters <> []) fulls then
        List.iter
          (fun (what, value) ->
            Format.printf "%-8s" label;
            List.iter
              (fun f ->
                match value f with
                | Some v -> Format.printf "%14.5f" v
                | None -> Format.printf "%14s" "-")
              fulls;
            Format.printf "  %s@." what)
          [
            ("attempts/op", fun f -> Harness.per_op f "attempts");
            ("flag failures/op", fun f -> Harness.per_op f "flag_failures");
            ( "flagged-ancestor restarts/op",
              fun f -> Harness.per_op f "flagged_ancestor" );
            ("conflicts/op", fun f -> Harness.per_op f "conflicts");
            ("child CAS lost/op", fun f -> Harness.per_op f "child_cas_lost");
            ("helps/op", fun f -> Harness.per_op f "helps_given");
            ("backtracks/op", fun f -> Harness.per_op f "backtracks");
            ( "nodes/search",
              fun f -> Harness.descent_mean f.Harness.counters );
          ])
    rows;
  if csv then
    List.iter
      (fun (label, fulls) ->
        List.iter2
          (fun threads f ->
            Format.printf "csv,%s,%d,%.0f,%.0f@." label threads
              f.Harness.dp.Harness.mean f.Harness.dp.Harness.stddev)
          threads_list fulls)
      rows;
  Format.print_flush ()

(* ------------------------------------------------------------------ *)
(* figure subcommand: entries of the evaluation table *)

let figure_cmd =
  let id_arg =
    let ids =
      List.map (fun e -> (e.Harness.id, e.Harness.id)) Harness.experiments
    in
    let doc =
      "Comma-separated entries of the evaluation table to run: the paper's \
       figures 8, 9, 10 and 11 (the default), or configurations it mentions \
       without plotting: medium-contention (range 10^3), \
       i15-d15-f70-uniform, clustered-runs (runs of 50, 200 and 1000) and \
       kary-arity (the k-ary tree at k = 2..32); or ablations of PAT: \
       replace (against a non-atomic delete+insert), helping (retry, help \
       and backtrack rates at ranges 10^2, 10^4, 10^6), width (ranges 2^8 \
       to 2^24), seq (against the sequential trie, one thread), vlk \
       (against PAT-VLK) and contention (ranges 100 and 1000; run it with \
       and without $(b,--backoff))."
    in
    Arg.(
      value & opt (list (enum ids)) Harness.paper_figures & info [ "id" ] ~doc)
  in
  let range_arg =
    let doc =
      "Override the key range of every panel (defaults to the table's)."
    in
    Arg.(value & opt (some int) None & info [ "range" ] ~doc)
  in
  let run ids range threads_list seconds trials seed csv metrics baseline
      backoff trace_out serve =
    set_backoff backoff;
    with_flight_recorder ~trace_out ~serve @@ fun () ->
    with_outputs ~threads_list ~seconds ~trials ~seed ?metrics ?baseline
    @@ fun () ->
    List.iter
      (fun id ->
        let e = List.find (fun e -> e.Harness.id = id) Harness.experiments in
        List.iter
          (fun p ->
            let workload = Harness.panel_workload ?range p in
            let key = p.Harness.key in
            run_sweep
              ~threads_list:(Harness.entry_threads e threads_list)
              ~seconds ~trials ~seed ~csv ~key
              ~title:(key ^ ": " ^ Harness.describe workload)
              e.Harness.subjects workload)
          e.Harness.panels)
      ids
  in
  let doc = "Run entries of the paper's evaluation (Section V) table." in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(
      const run $ id_arg $ range_arg $ threads_arg $ seconds_arg $ trials_arg
      $ seed_arg $ csv_arg $ metrics_arg $ baseline_arg $ backoff_arg
      $ trace_out_arg $ serve_arg)

(* ------------------------------------------------------------------ *)
(* serve subcommand: the trie behind the patserve binary protocol *)

module Pstore = Node.Store

let serve_cmd =
  let d = Node.default_config in
  let port_arg =
    let doc = "TCP port to serve the set protocol on (0 = ephemeral)." in
    Arg.(value & opt int d.port & info [ "port" ] ~doc)
  in
  let range_arg =
    Arg.(
      value & opt int d.range
      & info [ "range" ] ~doc:"Key range (universe) of the served trie.")
  in
  let domains_arg =
    let doc = "Worker domains sharing the listening socket." in
    Arg.(value & opt int d.domains & info [ "domains" ] ~doc)
  in
  let metrics_port_arg =
    let doc =
      "Also serve Prometheus metrics over HTTP on 127.0.0.1:$(docv): the \
       harness live families plus per-opcode patserve request counters and \
       latency histograms.  Port 0 binds an ephemeral port."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~doc ~docv:"PORT")
  in
  let seconds_opt_arg =
    let doc = "Stop (with a graceful drain) after this many seconds; \
               without it, serve until SIGINT/SIGTERM." in
    Arg.(value & opt (some float) None & info [ "seconds" ] ~doc)
  in
  let data_dir_arg =
    let doc =
      "Durable state directory (WAL segments + checkpoints).  On startup the \
       newest valid checkpoint is loaded and the log tail replayed; without \
       this flag the served set is purely in-memory."
    in
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~doc ~docv:"DIR")
  in
  let durability_arg =
    let doc =
      "With --data-dir: $(b,none) recovers but logs nothing; $(b,async) \
       logs every mutation and acknowledgements wait for the window's \
       group-commit write, so every acked mutation survives kill -9 but not \
       power loss; $(b,sync) also fsyncs that write, so every acked \
       mutation survives kill -9 and power loss."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Pstore.Ephemeral);
               ("async", Pstore.Async);
               ("sync", Pstore.Sync);
             ])
          d.durability
      & info [ "durability" ] ~doc)
  in
  let checkpoint_s_arg =
    let doc =
      "Write a checkpoint of the live trie every $(docv) seconds (beside \
       traffic, no pause) and delete WAL segments it supersedes."
    in
    Arg.(
      value & opt (some float) None & info [ "checkpoint-s" ] ~doc ~docv:"SECS")
  in
  let serve_trace_arg =
    let doc =
      "Record the fused server timeline — trie update attempts, per-request \
       stage spans on one Perfetto track per connection, and (with \
       --runtime-events) GC/STW spans on runtime tracks — and write it as \
       Chrome trace-event JSON to $(docv) at shutdown."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"PATH")
  in
  let runtime_events_arg =
    let doc =
      "Subscribe a collector domain to OCaml runtime events: GC pause and \
       STW spans are fused into the --trace-out timeline and exported as \
       patserve_gc_* metric families.  If the runtime-events subsystem \
       cannot start, the server logs a warning and keeps serving."
    in
    Arg.(value & flag & info [ "runtime-events" ] ~doc)
  in
  let max_conns_arg =
    let doc =
      "Admission control: accept at most $(docv) simultaneous connections \
       across all workers; beyond it a new connection gets one BUSY frame \
       (with a retry-after hint) and is closed.  Without it, no limit."
    in
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~doc ~docv:"N")
  in
  let idle_timeout_arg =
    let doc =
      "Reap connections with no traffic and no pending output for $(docv) \
       seconds.  Without it, idle connections are kept forever."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout-s" ] ~doc ~docv:"SECS")
  in
  let queue_deadline_arg =
    let doc =
      "Per-request queue deadline: a request that waited more than $(docv) \
       milliseconds behind earlier frames of its pipeline window is answered \
       BUSY instead of executed.  Without it, no deadline."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "queue-deadline-ms" ] ~doc ~docv:"MS")
  in
  let soft_buffer_arg =
    let doc =
      "Per-connection output-buffer soft cap in KiB: above it the \
       connection is no longer read from, so the client's pipelining stalls \
       instead of growing the buffer (backpressure)."
    in
    Arg.(value & opt int d.soft_buffer_kb & info [ "soft-buffer-kb" ] ~doc ~docv:"KIB")
  in
  let hard_buffer_arg =
    let doc =
      "Per-connection output-buffer hard cap in KiB: a connection still \
       above it after a flush attempt is evicted (counted and logged)."
    in
    Arg.(value & opt int d.hard_buffer_kb & info [ "hard-buffer-kb" ] ~doc ~docv:"KIB")
  in
  let follow_arg =
    let doc =
      "Start as a replication follower of the primary at $(docv): subscribe \
       to its WAL stream from the persisted watermark, apply every record \
       through the normal store path (re-logged into this server's own WAL), \
       serve reads within --staleness, and refuse mutations until PROMOTE.  \
       Requires --data-dir with --durability async or sync."
    in
    let parse s =
      match String.rindex_opt s ':' with
      | Some i -> (
          let host = String.sub s 0 i in
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some p when p > 0 && host <> "" -> Ok (host, p)
          | _ -> Error (`Msg ("expected HOST:PORT, got " ^ s)))
      | None -> Error (`Msg ("expected HOST:PORT, got " ^ s))
    in
    let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "follow" ] ~doc ~docv:"HOST:PORT")
  in
  let bootstrap_arg =
    let doc =
      "With --follow: if subscribing from the persisted watermark is \
       rejected because the primary checkpointed that history away \
       (\"resync required\"), snapshot-bootstrap instead of exiting — \
       stream the primary's contents as frozen SCAN pages into this \
       (fresh, empty) store, then subscribe from the pages' WAL cut.  \
       Refused on a store that recovered any keys: bootstrap pages only \
       insert, so stale local keys would survive."
    in
    Arg.(value & flag & info [ "bootstrap" ] ~doc)
  in
  let staleness_arg =
    let doc =
      "Follower read staleness bound: MEMBER/SIZE are served while this \
       replica's applied position is within $(docv) records of the \
       primary's head, and declined BUSY past it (the watchdog reports \
       degraded: repl_lag at the same threshold)."
    in
    Arg.(value & opt int d.staleness & info [ "staleness" ] ~doc ~docv:"RECORDS")
  in
  let repl_sync_arg =
    let doc =
      "Sync-ack replication (primary side): a mutation's acknowledgement \
       additionally waits until every attached follower has applied it, so \
       an acked write survives losing the primary outright.  Without it \
       followers trail asynchronously."
    in
    Arg.(value & flag & info [ "repl-sync" ] ~doc)
  in
  let config port range domains metrics_port seconds data_dir durability
      checkpoint_s trace_out runtime_events max_conns idle_timeout_s
      queue_deadline_ms soft_buffer_kb hard_buffer_kb follow bootstrap
      staleness repl_sync =
    {
      Node.port;
      range;
      domains;
      metrics_port;
      seconds;
      data_dir;
      durability;
      checkpoint_s;
      trace_out;
      runtime_events;
      max_conns;
      idle_timeout_s;
      queue_deadline_ms;
      soft_buffer_kb;
      hard_buffer_kb;
      follow;
      bootstrap;
      staleness;
      repl_sync;
    }
  in
  (* The resync-class start errors exit 3: the follower is not broken,
     it is stale past the primary's retained history.  An orchestrator
     matches on 3 to trigger the resync remedy instead of a blind
     restart loop. *)
  let start_failed (cfg : Node.config) e =
    let host, port = Option.value cfg.Node.follow ~default:("", 0) in
    let stale fmt =
      Format.kfprintf
        (fun ppf ->
          Format.pp_print_flush ppf ();
          exit 3)
        Format.err_formatter fmt
    in
    match e with
    | Node.Follow_needs_data_dir ->
        `Error
          (false, "--follow requires --data-dir (replication streams the WAL)")
    | Node.Follow_needs_log ->
        `Error
          ( false,
            "--follow requires --durability async or sync (the follower \
             re-logs applied records)" )
    | Node.Resync_required { from_seq; reason } ->
        stale
          "patserve: cannot follow %s:%d: %s@.patserve: the primary no longer \
           retains WAL history back to seq %d — snapshot-bootstrap this \
           follower instead: wipe its --data-dir and re-run with --bootstrap \
           to stream the primary's frozen SCAN pages and subscribe from their \
           WAL cut.@."
          host port reason from_seq
    | Node.Bootstrap_not_fresh { keys } ->
        stale
          "patserve: --bootstrap needs a fresh store, but %s recovered %d \
           keys; wipe the --data-dir first (bootstrap pages only insert, so \
           stale local keys would survive).@."
          (Option.value cfg.Node.data_dir ~default:"") keys
    | Node.Follow_failed m -> `Error (false, "cannot follow: " ^ m)
    | Node.Bootstrap_failed m -> `Error (false, "snapshot-bootstrap: " ^ m)
    | Node.Bind_failed { port; reason } ->
        `Error (false, Printf.sprintf "cannot listen on port %d: %s" port reason)
  in
  let run (cfg : Node.config) =
    match Node.start ~log:print_endline cfg with
    | Error e -> start_failed cfg e
    | Ok node ->
        let stopping = Atomic.make false in
        let request_stop _ = Atomic.set stopping true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) cfg.Node.seconds
        in
        let expired () =
          match deadline with
          | Some d -> Unix.gettimeofday () >= d
          | None -> false
        in
        while not (Atomic.get stopping || expired ()) do
          (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          Node.tick node
        done;
        print_endline "patserve: draining and stopping";
        Node.stop node;
        (match Obs.Slowlog.dump Server.slowlog with
        | [] -> ()
        | entries ->
            let shown = List.filteri (fun i _ -> i < 10) entries in
            Format.printf
              "patserve: slowest requests (top %d of %d admitted, %d slots)@."
              (List.length shown)
              (Obs.Slowlog.inserted Server.slowlog)
              (Obs.Slowlog.capacity Server.slowlog);
            List.iter
              (fun e -> Format.printf "  %a@." Obs.Slowlog.pp_entry e)
              shown);
        `Ok ()
  in
  let doc = "Serve the Patricia trie over the patserve binary protocol." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run
        $ (const config $ port_arg $ range_arg $ domains_arg $ metrics_port_arg
         $ seconds_opt_arg $ data_dir_arg $ durability_arg $ checkpoint_s_arg
         $ serve_trace_arg $ runtime_events_arg $ max_conns_arg
         $ idle_timeout_arg $ queue_deadline_arg $ soft_buffer_arg
         $ hard_buffer_arg $ follow_arg $ bootstrap_arg $ staleness_arg
         $ repl_sync_arg)))

(* ------------------------------------------------------------------ *)
(* recover subcommand: offline recovery / inspection of a data dir *)

let recover_cmd =
  let data_dir_arg =
    let doc = "Durable state directory to recover." in
    Arg.(
      required
      & opt (some string) None
      & info [ "data-dir" ] ~doc ~docv:"DIR")
  in
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ]
          ~doc:"Key range (universe) the directory was served with.")
  in
  let compact_arg =
    let doc =
      "After recovering, write a fresh checkpoint of the recovered state and \
       delete the WAL segments it supersedes, the last one included.  Fails \
       if a server is writing the directory."
    in
    Arg.(value & flag & info [ "compact" ] ~doc)
  in
  let run dir range compact =
    match Pstore.open_ ~dir ~universe:range ~mode:Pstore.Ephemeral () with
    | exception Failure m -> `Error (false, m)
    | store -> (
        Format.printf "%a@." Node.pp_recovery (Pstore.recovery_info store);
        Format.printf "recovered set: %d keys@." (Pstore.size store);
        match Core.Patricia.check_invariants (Pstore.underlying store) with
        | Result.Error m ->
            `Error (false, "recovered trie violates invariants: " ^ m)
        | Result.Ok () ->
            match if compact then Some (Pstore.checkpoint store) else None with
            | exception Failure m -> `Error (false, m)
            | compacted ->
                Option.iter
                  (fun (keys, deleted) ->
                    Format.printf
                      "compacted: checkpoint with %d keys, %d segments \
                       deleted@."
                      keys deleted)
                  compacted;
                Format.print_flush ();
                `Ok ())
  in
  let doc =
    "Recover a --data-dir offline: load the newest valid checkpoint, replay \
     the WAL tail (truncating a torn tail), verify the trie's structural \
     invariants and report what was recovered."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(ret (const run $ data_dir_arg $ range_arg $ compact_arg))

(* ------------------------------------------------------------------ *)
(* load subcommand: the load generator against a running server *)

let load_cmd =
  let addr_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt int 7113 & info [ "port" ] ~doc:"Server port.")
  in
  let domains_arg =
    let doc = "Generator domains (one connection each)." in
    Arg.(value & opt int 4 & info [ "domains" ] ~doc)
  in
  let depth_arg =
    let doc = "Pipeline window: requests kept in flight per connection." in
    Arg.(value & opt int 16 & info [ "depth" ] ~doc)
  in
  let seconds_arg' =
    Arg.(value & opt float 5.0 & info [ "seconds" ] ~doc:"Load duration.")
  in
  let pct name dflt =
    Arg.(value & opt int dflt & info [ name ] ~doc:(name ^ " percentage"))
  in
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (must match the server's).")
  in
  let scrape_port_arg =
    let doc =
      "Scrape the server's Prometheus endpoint on 127.0.0.1:$(docv) at the \
       end of the run and embed the server-side per-opcode stage p50/p99 and \
       WAL fsync p99 in the report — the cross-check that client-observed \
       tail latency matches what the server accounted for."
    in
    Arg.(
      value & opt (some int) None & info [ "scrape-port" ] ~doc ~docv:"PORT")
  in
  let open_loop_arg =
    let doc =
      "Open pacing: make $(docv) requests per second (total across \
       domains) due on a fixed schedule instead of keeping --depth in \
       flight — the instrument for measuring overload.  Sheds, BUSY \
       declines, lost requests and disconnects are counted, not failed \
       on; latency still runs from each request's due time."
    in
    Arg.(
      value & opt (some float) None & info [ "open-loop" ] ~doc ~docv:"RATE")
  in
  let scan_every_arg =
    let doc =
      "Mix one SCAN page per $(docv) generated requests into the workload \
       (0 = never).  Each generator runs a resumable cursor and verifies \
       every page against the cursor contract."
    in
    Arg.(value & opt int 0 & info [ "scan-every" ] ~doc ~docv:"N")
  in
  let scan_count_arg =
    Arg.(
      value & opt int 256
      & info [ "scan-count" ] ~doc:"Page size for generated SCANs.")
  in
  let run addr port domains depth seconds insert delete find replace range seed
      metrics scrape open_loop scan_every scan_count =
    match Harness.Mix.v ~insert ~delete ~find ~replace () with
    | exception Invalid_argument m -> `Error (false, m)
    | mix -> (
        let pacing =
          match open_loop with
          | Some rate -> Server.Loadgen.Open rate
          | None -> Server.Loadgen.Closed depth
        in
        let cfg =
          Server.Loadgen.
            {
              addr;
              port;
              domains;
              pacing;
              seconds;
              mix;
              universe = range;
              seed;
              journal = false;
              scrape_port = scrape;
              scan_every;
              scan_count;
            }
        in
        (* The retries ride out a shed from a server still reaping the
           generator's connections. *)
        let size () =
          let c = Server.Client.connect ~addr ~port ~retries:5 () in
          Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
          Server.Client.size c
        in
        try
          (* Size accounting baseline: works against a non-empty server
             too, the expectation is relative to what we found. *)
          let size_before = size () in
          let prefilled =
            Server.Loadgen.prefill ~addr ~port ~universe:range ~seed ()
          in
          Format.printf
            "load: prefilled %d keys (server had %d), running %s for %.1fs on \
             %d domains, %s@."
            prefilled size_before (Harness.Mix.to_string mix) seconds domains
            (match pacing with
            | Closed depth -> Printf.sprintf "depth %d" depth
            | Open rate -> Printf.sprintf "offering %.0f req/s" rate);
          Format.print_flush ();
          let r = Server.Loadgen.run cfg in
          let l = r.Server.Loadgen.latency and late = r.Server.Loadgen.late in
          Format.printf
            "load: offered %d, acked %d in %.2fs = %.0f ops/s goodput@.\
             load: busy %d, errors %d, lost %d, disconnects %d@.\
             load: latency ns (due to response) p50=%d p90=%d p99=%d \
             p99.9=%d max=%d@.\
             load: late ns (due to written) p50=%d p99=%d max=%d@."
            r.offered r.acked r.elapsed_s r.goodput r.busy r.errors r.lost
            r.disconnects l.Obs.Histogram.p50 l.Obs.Histogram.p90
            l.Obs.Histogram.p99 l.Obs.Histogram.p999 l.Obs.Histogram.max
            late.Obs.Histogram.p50 late.Obs.Histogram.p99
            late.Obs.Histogram.max;
          (* A lost request may or may not have executed, so no exact
             expectation exists once one is lost. *)
          let sizes =
            if r.lost > 0 then begin
              Format.printf
                "load: final size not checked: %d lost requests may or may \
                 not have executed@."
                r.lost;
              None
            end
            else begin
              let final = size () in
              let expected = size_before + prefilled + r.size_delta in
              Format.printf
                "load: final size %d, expected %d (replay of acknowledged \
                 ops)@."
                final expected;
              Some (final, expected)
            end
          in
          if r.scan_pages > 0 then
            Format.printf "load: %d scan pages verified (%d keys streamed)@."
              r.scan_pages r.scan_keys;
          (match r.server_metrics with
          | [] -> ()
          | kv ->
              Format.printf "load: server-side (scraped):";
              List.iter (fun (k, v) -> Format.printf " %s=%.0f" k v) kv;
              Format.printf "@.");
          Option.iter
            (fun path ->
              Obs.Json.to_file path (Server.Loadgen.report_to_json cfg r);
              Format.printf "load: report written to %s@." path)
            metrics;
          Format.print_flush ();
          match sizes with
          | _ when r.errors > 0 ->
              `Error (false, "load completed with application-level errors")
          | _ when open_loop = None && r.disconnects > 0 ->
              `Error
                ( false,
                  Printf.sprintf "%d generator connections were lost"
                    r.disconnects )
          | Some (final, expected) when final <> expected ->
              `Error
                ( false,
                  Printf.sprintf
                    "SIZE mismatch: server says %d, replay of acknowledged \
                     operations says %d — an acknowledged update was lost"
                    final expected )
          | _ -> `Ok ()
        with
        | Server.Client.Protocol_error m -> `Error (false, "protocol error: " ^ m)
        | Server.Client.Busy _ -> `Error (false, "the server stayed busy")
        | Unix.Unix_error (e, fn, _) ->
            `Error
              (false, Printf.sprintf "%s failed: %s" fn (Unix.error_message e)))
  in
  let doc =
    "Drive a running patserve server from one connection per generator \
     domain, paced closed (--depth in flight) or open (--open-loop RATE), \
     with latency timed from each request's due time, and verify the \
     final SIZE against a replay of the acknowledged operations."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      ret
        (const run $ addr_arg $ port_arg $ domains_arg $ depth_arg
       $ seconds_arg' $ pct "insert" 10 $ pct "delete" 10 $ pct "find" 0
       $ pct "replace" 80 $ range_arg $ seed_arg $ metrics_arg
       $ scrape_port_arg $ open_loop_arg $ scan_every_arg $ scan_count_arg))

(* ------------------------------------------------------------------ *)
(* analyze subcommand: structure forensics — shape census, bytes/key
   and descent-cost accounting for PAT vs PAT-VLK vs 4-ST on the same
   seeded half-full key set, or the census of a recovered --data-dir.
   This is the instrument behind EXPERIMENTS.md's "Anatomy of the
   raw-speed gap": it turns the PAT-vs-4-ST throughput difference into
   measured pointer dereferences per operation. *)

let analyze_cmd =
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (universe) of the analyzed stores.")
  in
  let seed_arg =
    Arg.(
      value & opt int 2013
      & info [ "seed" ] ~doc:"Seed of the half-fill permutation and probes.")
  in
  let probes_arg =
    Arg.(
      value & opt int 100_000
      & info [ "probes" ]
          ~doc:
            "Single-thread member probes per structure for the descent/time \
             micro-measure.")
  in
  let data_dir_arg =
    let doc =
      "Census a recovered durable store instead of fresh synthetic \
       structures: load the newest checkpoint + WAL tail (read-only, \
       durability none) and report the live trie's census."
    in
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~doc ~docv:"DIR")
  in
  let json_arg =
    let doc = "Write the full census/descent document as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"PATH")
  in
  let pp_census (c : Dset_intf.census) =
    Format.printf
      "%-8s %8d keys  %8d internal  %8d leaf  %d sentinel  depth \
       mean %.2f p99 %d max %d@."
      c.Dset_intf.structure c.Dset_intf.keys c.Dset_intf.internals
      c.Dset_intf.leaves c.Dset_intf.sentinels c.Dset_intf.leaf_depth.d_mean
      c.Dset_intf.leaf_depth.d_p99 c.Dset_intf.max_depth;
    Format.printf
      "%-8s %8.1f bytes/key measured  (%d words measured, %d words \
       estimated)@."
      "" c.Dset_intf.bytes_per_key c.Dset_intf.measured_words
      c.Dset_intf.est_words
  in
  let census_json label census descent =
    Obs.Json.Obj
      (("structure", Obs.Json.Str label)
       ::
       (match census with
       | Some c -> [ ("census", Obs.Shape.to_json c) ]
       | None -> [ ("census", Obs.Json.Null) ])
      @ descent)
  in
  let run range seed probes data_dir json_path =
    let write_json doc =
      match json_path with
      | None -> ()
      | Some path ->
          Obs.Json.to_file path doc;
          Format.printf "analysis written to %s@." path
    in
    match data_dir with
    | Some dir -> (
        match Pstore.open_ ~dir ~universe:range ~mode:Pstore.Ephemeral () with
        | exception Failure m -> `Error (false, m)
        | store ->
            Format.printf "%a@." Node.pp_recovery (Pstore.recovery_info store);
            let trie = Pstore.underlying store in
            (match Core.Patricia.census trie with
            | Some c ->
                pp_census c;
                write_json
                  (Obs.Json.Obj
                     [
                       ("schema", Obs.Json.Str "analyze/1");
                       ("range", Obs.Json.Int range);
                       ("data_dir", Obs.Json.Str dir);
                       ( "structures",
                         Obs.Json.Arr
                           [ census_json Core.Patricia.name (Some c) [] ] );
                     ])
            | None -> ());
            Format.print_flush ();
            `Ok ())
    | None ->
        (* The three structures the raw-speed question is about, all
           holding the same random half of the key range. *)
        let pat = Core.Patricia.create ~universe:range ~record_stats:true () in
        let vlk = Core.Patricia_vlk.create ~record_stats:true () in
        let kary = Kary.create ~universe:range ~record_stats:true () in
        let hex k = Printf.sprintf "%08x" k in
        let ops insert delete member =
          Harness.{ insert; delete; member; replace = None; stats = None }
        in
        let subjects =
          [
            ( Core.Patricia.name,
              ops (Core.Patricia.insert pat) (Core.Patricia.delete pat)
                (Core.Patricia.member pat),
              (fun () -> Core.Patricia.census pat),
              (fun () -> Core.Patricia.descent_stats pat),
              fun () -> Core.Patricia.descent_summary pat );
            ( Core.Patricia_vlk.name,
              ops
                (fun k -> Core.Patricia_vlk.insert vlk (hex k))
                (fun k -> Core.Patricia_vlk.delete vlk (hex k))
                (fun k -> Core.Patricia_vlk.member vlk (hex k)),
              (fun () -> Core.Patricia_vlk.census vlk),
              (fun () -> Core.Patricia_vlk.descent_stats vlk),
              fun () -> Core.Patricia_vlk.descent_summary vlk );
            ( Kary.name,
              ops (Kary.insert kary) (Kary.delete kary) (Kary.member kary),
              (fun () -> Kary.census kary),
              (fun () -> Kary.descent_stats kary),
              fun () -> Kary.descent_summary kary );
          ]
        in
        Format.printf
          "structure forensics: range (0, %d), %d keys (half-full), seed %d, \
           %d member probes@."
          range (range / 2) seed probes;
        let results =
          List.map
            (fun (label, (ops : Harness.ops), census, dstats, dsummary) ->
              (* The harness's half-full steady state, the same random
                 half for every structure. *)
              Harness.prefill ops range (Rng.of_int_seed seed);
              let delta before after key =
                match
                  (List.assoc_opt key before, List.assoc_opt key after)
                with
                | Some b, Some a -> a - b
                | _ -> 0
              in
              let d0 = Option.value ~default:[] (dstats ()) in
              let rng = Rng.of_int_seed (seed + 1) in
              let t0 = Obs.Clock.now_ns () in
              for _ = 1 to probes do
                ignore (ops.member (Rng.int rng range))
              done;
              let elapsed = Obs.Clock.now_ns () - t0 in
              let d1 = Option.value ~default:[] (dstats ()) in
              let nodes = delta d0 d1 "descent_nodes_find" in
              let searches = delta d0 d1 "descent_searches" in
              let probe_mean =
                if searches > 0 then
                  float_of_int nodes /. float_of_int searches
                else 0.0
              in
              let ns_per_probe = float_of_int elapsed /. float_of_int probes in
              let c = census () in
              (match c with Some c -> pp_census c | None -> ());
              Format.printf
                "%-8s %8.1f ns/probe  %.2f nodes/search (probe window)@.@."
                label ns_per_probe probe_mean;
              ( label,
                c,
                [
                  ( "descent",
                    Obs.Json.Obj
                      [
                        ("probes", Obs.Json.Int probes);
                        ("ns_per_probe", Obs.Json.Float ns_per_probe);
                        ("probe_mean_nodes", Obs.Json.Float probe_mean);
                        ( "depth",
                          match dsummary () with
                          | Some s -> Obs.Histogram.summary_to_json s
                          | None -> Obs.Json.Null );
                      ] );
                ] ))
            subjects
        in
        write_json
          (Obs.Json.Obj
             [
               ("schema", Obs.Json.Str "analyze/1");
               ("range", Obs.Json.Int range);
               ("seed", Obs.Json.Int seed);
               ("keys", Obs.Json.Int (range / 2));
               ( "structures",
                 Obs.Json.Arr
                   (List.map
                      (fun (label, c, descent) -> census_json label c descent)
                      results) );
             ]);
        Format.print_flush ();
        `Ok ()
  in
  let doc =
    "Structure forensics: shape census (node counts, depth and label \
     distributions, bytes per key) and single-thread descent cost for PAT, \
     PAT-VLK and 4-ST over the same seeded half-full key set — or the \
     census of a recovered --data-dir."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ range_arg $ seed_arg $ probes_arg $ data_dir_arg
       $ json_arg))

(* ------------------------------------------------------------------ *)
(* promote subcommand: failover — flip a follower to primary *)

let promote_cmd =
  let addr_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt int 7113 & info [ "port" ] ~doc:"Server port.")
  in
  let run addr port =
    match Server.Client.connect ~addr ~port () with
    | exception Unix.Unix_error (e, fn, _) ->
        `Error (false, Printf.sprintf "%s failed: %s" fn (Unix.error_message e))
    | c -> (
        match Server.Client.promote c with
        | true ->
            Server.Client.close c;
            Format.printf "promote: %s:%d is now a primary@." addr port;
            Format.print_flush ();
            `Ok ()
        | false ->
            Server.Client.close c;
            `Error (false, "server refused promotion")
        | exception Server.Client.Protocol_error m ->
            Server.Client.close c;
            `Error (false, "promote failed: " ^ m))
  in
  let doc =
    "Promote a running replication follower to primary: it detaches from \
     its stream, seals its WAL and flips through open-time recovery.  \
     Idempotent — promoting a primary succeeds without effect."
  in
  Cmd.v (Cmd.info "promote" ~doc) Term.(ret (const run $ addr_arg $ port_arg))

(* ------------------------------------------------------------------ *)
(* replicate subcommand: the cost of a copy — in-process primary plus
   0..N followers under load, async vs sync-ack, with convergence,
   verifiable-sync (root hash) and failover-time measurements.  This is
   the instrument behind EXPERIMENTS.md's "The cost of a copy". *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) -> ()

let replicate_cmd =
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (universe) of the replicated trie.")
  in
  let seconds_arg' =
    Arg.(value & opt float 5.0 & info [ "seconds" ] ~doc:"Load duration.")
  in
  let followers_arg =
    Arg.(
      value & opt int 1
      & info [ "followers" ] ~doc:"Followers attached to the primary (0..8).")
  in
  let sync_arg =
    let doc =
      "Sync-ack mode: client acknowledgements wait for every follower's \
       LOGACK (default: async, followers trail)."
    in
    Arg.(value & flag & info [ "sync" ] ~doc)
  in
  let seed_arg' =
    Arg.(value & opt int 2013 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let keep_arg =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the scratch data directories (default: \
                              delete them at exit).")
  in
  let run range seconds followers sync seed keep =
    if followers < 0 || followers > 8 then
      `Error (false, "replicate: --followers must be in 0..8")
    else begin
      let hash_width = Node.hash_width range in
      let base =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "patbench-replicate-%d" (Unix.getpid ()))
      in
      rm_rf base;
      let pdir = Filename.concat base "primary" in
      let fdir i = Filename.concat base (Printf.sprintf "follower%d" i) in
      let root_hash store =
        Replica.Hash.range (Node.fold store) ~lo:0 ~hi:((1 lsl hash_width) - 1)
      in
      let pstore = Pstore.open_ ~dir:pdir ~universe:range ~mode:Pstore.Sync () in
      let writer = Option.get (Pstore.wal_writer pstore) in
      let prim = Replica.Primary.create ~dir:pdir ~writer ~sync_ack:sync () in
      Pstore.set_retention_hook pstore (Replica.Primary.retention_floor prim);
      let barrier () =
        Pstore.barrier pstore;
        Replica.Primary.wait_acked prim (Pstore.last_logged_here pstore)
      in
      let repl =
        Server.
          {
            subscribe = Replica.Primary.subscribe prim;
            hashcheck =
              Replica.Hash.hashes (Node.fold pstore) ~width:hash_width;
            promote = (fun () -> Result.Ok ());
          }
      in
      let srv =
        Server.start ~port:0 ~domains:2 ~barrier ~repl
          (Node.server_ops (ref pstore))
      in
      let port = Server.port srv in
      let fstores =
        List.init followers (fun i ->
            Pstore.open_ ~dir:(fdir i) ~universe:range ~mode:Pstore.Sync ())
      in
      let fls =
        List.mapi
          (fun i st ->
            match
              Replica.Follower.start ~port ~from_seq:0
                ~watermark_dir:(fdir i)
                (Node.follower_ops (ref st))
            with
            | Result.Ok f -> f
            | Result.Error msg ->
                failwith (Printf.sprintf "follower %d: %s" i msg))
          fstores
      in
      Format.printf
        "replicate: %d follower(s), %s acks, range (0, %d), %.1fs load@."
        followers
        (if sync then "sync (wait for LOGACK)" else "async")
        range seconds;
      Format.print_flush ();
      (* Lag sampler: peak and mean primary-side lag during the load —
         the steady-state number the experiment is after. *)
      let sampling = Atomic.make true in
      let peak_lag = Atomic.make 0 in
      let lag_sum = Atomic.make 0 in
      let lag_n = Atomic.make 0 in
      let sampler =
        Domain.spawn (fun () ->
            while Atomic.get sampling do
              let l = Replica.Primary.lag_records prim in
              if l > Atomic.get peak_lag then Atomic.set peak_lag l;
              ignore (Atomic.fetch_and_add lag_sum l);
              ignore (Atomic.fetch_and_add lag_n 1);
              Unix.sleepf 0.01
            done)
      in
      let prefilled =
        Server.Loadgen.prefill ~addr:"127.0.0.1" ~port ~universe:range ~seed ()
      in
      let r =
        Server.Loadgen.run
          {
            Server.Loadgen.default_config with
            port;
            seconds;
            mix = Harness.Mix.v ~insert:10 ~delete:10 ~find:0 ~replace:80 ();
            universe = range;
            seed;
          }
      in
      Atomic.set sampling false;
      Domain.join sampler;
      let l = r.latency in
      Format.printf
        "replicate: prefill %d, %d ops in %.2fs = %.0f ops/s, %d errors@.\
         replicate: ack latency ns p50=%d p99=%d max=%d@."
        prefilled r.acked r.elapsed_s r.goodput r.errors l.Obs.Histogram.p50
        l.Obs.Histogram.p99 l.Obs.Histogram.max;
      (if followers > 0 then
         let mean =
           if Atomic.get lag_n > 0 then
             float_of_int (Atomic.get lag_sum) /. float_of_int (Atomic.get lag_n)
           else 0.0
         in
         Format.printf
           "replicate: steady-state lag mean %.1f records, peak %d records@."
           mean (Atomic.get peak_lag));
      (* Convergence: how long after the last acked write until every
         follower has applied the whole history. *)
      let head = Persist.Wal.Writer.last_assigned writer in
      let t0 = Obs.Clock.now_ns () in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec settle () =
        if
          List.for_all (fun f -> Replica.Follower.applied_seq f >= head) fls
          || Unix.gettimeofday () >= deadline
        then ()
        else begin
          Unix.sleepf 0.001;
          settle ()
        end
      in
      settle ();
      let converge_ms =
        float_of_int (Obs.Clock.now_ns () - t0) /. 1e6
      in
      List.iter
        (fun f ->
          match Replica.Follower.failure f with
          | Some m -> failwith ("follower failed: " ^ m)
          | None -> ())
        fls;
      if followers > 0 then
        Format.printf "replicate: convergence after last ack: %.1f ms@."
          converge_ms;
      (* Verifiable sync: equal key sets must hash equal (the trie is
         history-independent, so this is exactly set equality). *)
      let ph = root_hash pstore in
      let psize = Pstore.size pstore in
      let all_equal =
        List.for_all2
          (fun st _ -> root_hash st = ph && Pstore.size st = psize)
          fstores fls
      in
      Format.printf "replicate: primary %d keys, root hash %x; %s@." psize ph
        (if followers = 0 then "no followers to compare"
         else if all_equal then
           Printf.sprintf "all %d follower(s) hash-identical" followers
         else "FOLLOWER DIVERGENCE — root hashes differ");
      (* Failover budget: detach follower 0, seal its WAL, reopen via
         recovery — the exact PROMOTE path — and time it. *)
      let failover_ms =
        match (fls, fstores) with
        | f :: _, st :: _ ->
            let t0 = Obs.Clock.now_ns () in
            Replica.Follower.stop f;
            Pstore.close st;
            let promoted =
              Pstore.open_ ~dir:(fdir 0) ~universe:range ~mode:Pstore.Sync ()
            in
            let ms = float_of_int (Obs.Clock.now_ns () - t0) /. 1e6 in
            let ok = Pstore.size promoted = psize && root_hash promoted = ph in
            Pstore.close promoted;
            Format.printf
              "replicate: failover (seal + open-time recovery): %.1f ms, \
               promoted state %s@."
              ms
              (if ok then "identical to primary" else "DIVERGED");
            if not ok then failwith "promoted follower diverged from primary";
            Some ms
        | _ -> None
      in
      ignore (failover_ms : float option);
      (* Teardown: remaining followers, server, primary, stores. *)
      List.iteri (fun i f -> if i > 0 then Replica.Follower.stop f) fls;
      Server.stop ~drain_s:0.5 srv;
      Replica.Primary.stop prim;
      Pstore.close pstore;
      List.iteri (fun i st -> if i > 0 then Pstore.close st) fstores;
      if not keep then rm_rf base
      else Format.printf "replicate: data kept under %s@." base;
      Format.print_flush ();
      if followers > 0 && not all_equal then
        `Error (false, "follower divergence detected")
      else `Ok ()
    end
  in
  let doc =
    "Measure the cost of a copy: run a pipelined load against an in-process \
     replicated primary with 0..N followers (async or --sync acks), report \
     throughput, steady-state and convergence lag, verify the replicas \
     hash-identical, and time the failover (promotion) path."
  in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      ret
        (const run $ range_arg $ seconds_arg' $ followers_arg $ sync_arg
       $ seed_arg' $ keep_arg))

(* ------------------------------------------------------------------ *)
(* scan subcommand: what a frozen view costs — snapshot cost vs trie
   size (the O(1) claim), scan goodput vs range width, and writer
   throughput with a continuous scanner attached or with one page cut
   per 1 000 updates (the copy-on-descent overhead on the write path).
   In-process measurements of lib/core's snapshot machinery; the served
   SCAN path is exercised by `load --scan-every`.  At [threads] t the
   measured domain runs beside t - 1 churning writers; the gated
   "Scan (snapshot)", "Scan (goodput)" and "Scan (writer)" baseline rows
   are the snapshot rate, the widest range's goodput and the writer
   with a scanner attached. *)

let scan_cmd =
  let universe_arg =
    let doc = "Key universe; the trie is prefilled to half of it." in
    Arg.(value & opt int 65_536 & info [ "universe" ] ~doc)
  in
  let widths_arg =
    let doc = "Comma-separated range widths for the goodput sweep." in
    Arg.(value & opt (list int) [ 1_024; 8_192; 65_536 ] & info [ "widths" ] ~doc)
  in
  let run universe widths threads_list seconds trials seed csv baseline =
    if universe < 2 then `Error (false, "--universe must be at least 2")
    else if List.exists (fun t -> t < 1) threads_list then
      `Error (false, "--threads must be at least 1")
    else begin
      with_outputs ~threads_list ~seconds ~trials ~seed ?baseline @@ fun () ->
      let prefilled ?record_stats () =
        let t = Core.Patricia.create ~universe ?record_stats () in
        let rng = Rng.of_int_seed seed in
        for _ = 1 to universe / 2 do
          ignore (Core.Patricia.insert t (Rng.int rng universe) : bool)
        done;
        t
      in
      (* One uniform update: [kinds] 3 is i33-d33-r33, 10 is the
         ladder's i10-d10-r80. *)
      let churn ?(kinds = 3) t rng =
        let k = Rng.int rng universe in
        match Rng.int rng kinds with
        | 0 -> ignore (Core.Patricia.insert t k : bool)
        | 1 -> ignore (Core.Patricia.delete t k : bool)
        | _ ->
            ignore
              (Core.Patricia.replace t ~remove:k ~add:(Rng.int rng universe)
                : bool)
      in
      (* One rate sample: run [step] (returning a unit count) on the
         main domain for ~[seconds] with [bg] churning writer domains
         and, when [scanner], a domain folding whole frozen views in a
         loop.  All side domains are stopped and joined before the
         sample is returned, so trials don't bleed into each other. *)
      let rate ~bg ~scanner t step =
        let stop = Atomic.make false in
        let doms =
          List.init bg (fun i ->
              Domain.spawn (fun () ->
                  let rng = Rng.of_int_seed (seed + 17 + i) in
                  while not (Atomic.get stop) do
                    churn t rng
                  done))
          @
          if not scanner then []
          else
            [
              Domain.spawn (fun () ->
                  while not (Atomic.get stop) do
                    let v = Core.Patricia.snapshot t in
                    ignore
                      (Core.Patricia.View.fold v ~init:0 ~f:(fun n _ -> n + 1)
                        : int)
                  done);
            ]
        in
        let t0 = Unix.gettimeofday () in
        let deadline = t0 +. seconds in
        let count = ref 0.0 in
        while Unix.gettimeofday () < deadline do
          count := !count +. step ()
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        Atomic.set stop true;
        List.iter Domain.join doms;
        !count /. elapsed
      in
      (* [trials] samples, each on the trie and step [fresh] returns. *)
      let samples ~bg ~scanner fresh =
        Harness.mean_stddev
          (List.init trials (fun _ ->
               let t, step = fresh () in
               rate ~bg ~scanner t step))
      in
      let on_prefilled step () =
        let t = prefilled () in
        (t, step t)
      in
      let csv_rows = ref [] in
      let report name (dp : Harness.datapoint) unit_ =
        Printf.printf "  %-44s %14.1f ±%10.1f %s\n%!" name dp.mean dp.stddev
          unit_;
        csv_rows := (name, dp.mean, dp.stddev) :: !csv_rows
      in
      let churning t =
        if t = 1 then "quiesced"
        else Printf.sprintf "%d writer(s) churning" (t - 1)
      in
      Printf.printf
        "What a frozen view costs (universe %d, threads %s, %.1fs × %d trials)\n"
        universe
        (String.concat "," (List.map string_of_int threads_list))
        seconds trials;
      (* 1. Snapshot cost: O(1) in the number of keys, so empty vs
         half-full must land in the same ballpark; churn adds only the
         cost of resolving in-flight descriptors. *)
      Printf.printf "\nSnapshot cost (ns per snapshot):\n";
      let snap_step t () =
        for _ = 1 to 64 do
          ignore (Core.Patricia.snapshot t)
        done;
        64.0
      in
      let ns (dp : Harness.datapoint) =
        Harness.mean_stddev (List.map (fun r -> 1e9 /. r) dp.samples)
      in
      let empty () =
        let t = Core.Patricia.create ~universe () in
        (t, snap_step t)
      in
      report "empty trie, quiesced"
        (ns (samples ~bg:0 ~scanner:false empty))
        "ns";
      let keys = Core.Patricia.size (prefilled ()) in
      List.iter
        (fun threads ->
          let dp =
            samples ~bg:(threads - 1) ~scanner:false (on_prefilled snap_step)
          in
          report
            (Printf.sprintf "%d keys, %s" keys (churning threads))
            (ns dp) "ns";
          baseline_row ~figure:"Scan (snapshot)" ~structure:"PAT" ~threads dp)
        threads_list;
      (* 2. Goodput vs range width: each step freezes a fresh view and
         folds [0, width) out of it while the writers churn. *)
      Printf.printf "\nScan goodput (keys streamed per second):\n";
      let widest = List.fold_left max 0 widths in
      List.iter
        (fun w ->
          let step t () =
            let v = Core.Patricia.snapshot t in
            float_of_int
              (Core.Patricia.View.fold_range v ~lo:0 ~hi:(min w universe - 1)
                 ~init:0 ~f:(fun n _ -> n + 1))
          in
          List.iter
            (fun threads ->
              let dp =
                samples ~bg:(threads - 1) ~scanner:false (on_prefilled step)
              in
              report
                (Printf.sprintf "width %d, %s" (min w universe)
                   (churning threads))
                dp "keys/s";
              if w = widest then
                baseline_row ~figure:"Scan (goodput)" ~structure:"PAT" ~threads
                  dp)
            threads_list)
        widths;
      (* 3. The write path's side of the bargain: one measured writer
         (plus threads - 1 background ones) with and without a
         continuous whole-view scanner attached. *)
      Printf.printf "\nWriter throughput (measured domain, ops/s):\n";
      let writer_step ?kinds t =
        let rng = Rng.of_int_seed (seed + 5) in
        fun () ->
          churn ?kinds t rng;
          1.0
      in
      List.iter
        (fun threads ->
          let measure scanner =
            samples ~bg:(threads - 1) ~scanner (on_prefilled writer_step)
          in
          let quiet = measure false and scanned = measure true in
          report
            (Printf.sprintf "threads %d, no scanner" threads)
            quiet "ops/s";
          report
            (Printf.sprintf "threads %d, scanner attached" threads)
            scanned "ops/s";
          if quiet.mean > 0.0 then
            Printf.printf "  scanner overhead on the write path: %.1f%%\n"
              ((1.0 -. (scanned.mean /. quiet.mean)) *. 100.0);
          baseline_row ~figure:"Scan (writer)" ~structure:"PAT" ~threads
            scanned)
        threads_list;
      (* 4. One writer alone on the ladder's i10-d10-r80 mix, with and
         without a ~256-key page cut from a fresh snapshot after every
         1 000 of its updates (the ladder's scan-churn rate).  Each page
         makes every path stale again; the trie's counters show what
         renewing them costs per update. *)
      Printf.printf "\nPaged writer, alone, i10-d10-r80 (ops/s):\n";
      let paged name ~pages =
        let t = prefilled ~record_stats:true () in
        let churn_step = writer_step ~kinds:10 t in
        let updates = ref 0 and cursor = ref 0 in
        let step () =
          ignore (churn_step () : float);
          incr updates;
          if pages && !updates mod 1000 = 0 then begin
            let v = Core.Patricia.snapshot t in
            ignore
              (Core.Patricia.View.fold_range v ~lo:!cursor ~hi:(!cursor + 511)
                 ~init:0 ~f:(fun n _ -> n + 1)
                : int);
            cursor := (!cursor + 512) mod universe
          end;
          1.0
        in
        let before = Core.Patricia.stats_snapshot t in
        let dp = samples ~bg:0 ~scanner:false (fun () -> (t, step)) in
        report name dp "ops/s";
        (match (before, Core.Patricia.stats_snapshot t) with
        | Some a, Some b ->
            let per f =
              float_of_int (f b - f a) /. float_of_int (max 1 !updates)
            in
            Printf.printf
              "    attempts/update %.3f, renewals/update %.3f, renewal \
               descriptors/update %.3f\n"
              (per (fun s -> s.Core.Patricia.attempts))
              (per (fun s -> s.Core.Patricia.renewals))
              (per (fun s -> s.Core.Patricia.renew_paths))
        | _ -> ());
        dp.mean
      in
      let alone = paged "no pages" ~pages:false in
      let with_pages = paged "one page per 1 000 updates" ~pages:true in
      if with_pages > 0.0 then
        Printf.printf "  writer slowdown from paging: %.2fx\n"
          (alone /. with_pages);
      if csv then begin
        Printf.printf "\ndatapoint,mean,stddev\n";
        List.iter
          (fun (n, m, s) -> Printf.printf "%S,%f,%f\n" n m s)
          (List.rev !csv_rows)
      end;
      `Ok ()
    end
  in
  let doc =
    "Measure what a frozen view costs: snapshot latency vs trie size (the \
     O(1) claim), scan goodput vs range width under writer churn, and \
     writer throughput with a continuous scanner attached or paged once per \
     1 000 updates."
  in
  Cmd.v (Cmd.info "scan" ~doc)
    Term.(
      ret
        (const run $ universe_arg $ widths_arg $ threads_arg $ seconds_arg
       $ trials_arg $ seed_arg $ csv_arg $ baseline_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "Benchmarks for the non-blocking Patricia trie reproduction (ICDCS 2013)."
  in
  let info = Cmd.info "patbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figure_cmd;
            serve_cmd;
            load_cmd;
            recover_cmd;
            analyze_cmd;
            promote_cmd;
            replicate_cmd;
            scan_cmd;
          ]))
