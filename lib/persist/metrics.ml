(** Observability for the durability layer.

    Global rather than per-store, like [Server.Metrics]: a process hosts
    one logical store; tests reset between runs.  Counters are striped
    ([Obs.Counter]) because the append path is crossed by every server
    worker domain, and so are the fsync/batch histograms, which each
    group commit's leader records on whichever domain it runs. *)

let records = Obs.Counter.create ()
let bytes = Obs.Counter.create ()
let fsyncs = Obs.Counter.create ()
let rotations = Obs.Counter.create ()
let checkpoints = Obs.Counter.create ()
let checkpoint_keys = Obs.Counter.create ()
let segments_truncated = Obs.Counter.create ()
let torn_tails = Obs.Counter.create ()
let records_replayed = Obs.Counter.create ()
let sync_waits = Obs.Counter.create ()

let fsync_ns = Obs.Histogram.create ()
let batch_size = Obs.Histogram.create ()

(* The group-commit queue depth is instantaneous state of the live
   writer, not a cumulative counter; the store (or patbench) registers
   a sampling closure so the global exposition can include it. *)
let queue_depth_source : (unit -> int) option Atomic.t = Atomic.make None
let set_queue_depth_source f = Atomic.set queue_depth_source f

let queue_depth () =
  match Atomic.get queue_depth_source with
  | Some f -> ( try f () with _ -> 0)
  | None -> 0

let reset () =
  List.iter Obs.Counter.reset
    [
      records;
      bytes;
      fsyncs;
      rotations;
      checkpoints;
      checkpoint_keys;
      segments_truncated;
      torn_tails;
      records_replayed;
      sync_waits;
    ];
  Obs.Histogram.reset fsync_ns;
  Obs.Histogram.reset batch_size

(** Cumulative counters as an alist (tests, JSON reports). *)
let snapshot () =
  [
    ("records", Obs.Counter.sum records);
    ("bytes", Obs.Counter.sum bytes);
    ("fsyncs", Obs.Counter.sum fsyncs);
    ("rotations", Obs.Counter.sum rotations);
    ("checkpoints", Obs.Counter.sum checkpoints);
    ("checkpoint_keys", Obs.Counter.sum checkpoint_keys);
    ("segments_truncated", Obs.Counter.sum segments_truncated);
    ("torn_tails", Obs.Counter.sum torn_tails);
    ("records_replayed", Obs.Counter.sum records_replayed);
    ("sync_waits", Obs.Counter.sum sync_waits);
  ]

(** Append the persist metric families to an exposition; the shape
    [Harness.Live.set_extra_producer]/[add_extra_producer] expects. *)
let emit b =
  let open Obs.Prometheus in
  let c name help v =
    counter b ~name ~help (float_of_int (Obs.Counter.sum v))
  in
  c "patserve_wal_records_total" "Mutation records appended to the WAL" records;
  c "patserve_wal_bytes_total" "Bytes appended to WAL segments" bytes;
  c "patserve_wal_fsyncs_total" "Group-commit fsync calls on the WAL" fsyncs;
  c "patserve_wal_rotations_total" "WAL segment rotations" rotations;
  c "patserve_checkpoints_total" "Checkpoint images written" checkpoints;
  c "patserve_checkpoint_keys_total" "Keys serialized into checkpoint images"
    checkpoint_keys;
  c "patserve_wal_segments_truncated_total"
    "Obsolete WAL segments deleted after a checkpoint" segments_truncated;
  c "patserve_wal_torn_tails_total"
    "Recoveries that found a torn WAL tail at a bad CRC" torn_tails;
  c "patserve_wal_records_replayed_total"
    "WAL records replayed during recovery" records_replayed;
  c "patserve_wal_sync_waits_total"
    "Commit waits that found their record not yet durable" sync_waits;
  histogram_summary b ~name:"patserve_wal_fsync_ns"
    ~help:"WAL fsync latency per group commit, nanoseconds"
    (Obs.Histogram.snapshot fsync_ns);
  histogram_summary b ~name:"patserve_wal_batch_size"
    ~help:"Mutation records per group-commit batch"
    (Obs.Histogram.snapshot batch_size);
  gauge b ~name:"patserve_wal_queue_depth"
    ~help:"Records enqueued for group commit but not yet durable"
    (float_of_int (queue_depth ()))
