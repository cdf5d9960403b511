(** Concurrent-set benchmark harness reproducing the methodology of the
    paper's Section V: percentage operation mixes, uniform or clustered
    key distributions, half-full prefill, warm-up, timed trials on
    parallel domains, and mean/stddev reporting (the paper's error
    bars). *)

(** Operation mix in percent; components must sum to 100. *)
module Mix : sig
  type t = { insert : int; delete : int; find : int; replace : int }

  val v :
    ?insert:int -> ?delete:int -> ?find:int -> ?replace:int -> unit -> t
  (** @raise Invalid_argument unless the percentages sum to 100. *)

  val i5_d5_f90 : t  (** Figures 8 and 9 (top). *)

  val i50_d50_f0 : t  (** Figures 8 and 9 (bottom). *)

  val i15_d15_f70 : t  (** Figure 11. *)

  val i10_d10_r80 : t  (** Figure 10 (replace workload). *)

  val to_string : t -> string
  (** e.g. ["i5-d5-f90"], the paper's naming. *)
end

(** Uniform keys, or the paper's non-uniform workload: operations on
    runs of [n] consecutive keys from random starting points (the paper
    uses runs of 50). *)
type distribution = Uniform | Clustered of int

type workload = { universe : int; mix : Mix.t; dist : distribution }

type config = {
  threads : int;
  seconds : float;  (** length of each timed trial *)
  trials : int;
  warmup_seconds : float;
  seed : int;
}

val default_config : config

(** Operations of one structure instance, as closures so the runner is
    agnostic to the module behind them ([replace] is [None] for the five
    comparison structures, which is why Figure 10 is PAT-only).
    [stats], when present, returns a snapshot of the structure's internal
    contention counters, cumulative since creation; the runner diffs two
    snapshots around the timed window. *)
type ops = {
  insert : int -> bool;
  delete : int -> bool;
  member : int -> bool;
  replace : (int -> int -> bool) option;  (** remove, add *)
  stats : (unit -> (string * int) list) option;
}

type datapoint = { mean : float; stddev : float; samples : float list }

(** Deltas of [Gc.quick_stat] taken around the timed window (cheap, no
    stop-the-world; the per-domain fields reflect mostly the
    coordinating domain, the collection counts are global). *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(** What one timed trial reports beyond raw throughput: latency
    percentiles over the timed window (when latency recording was on),
    structure-internal counter deltas, and GC deltas. *)
type trial_metrics = {
  ops_per_sec : float;
  operations : int;  (** completed in the timed window, all domains *)
  latency : Obs.Histogram.summary option;
  counters : (string * int) list;
  gc : gc_delta;
}

val mean_stddev : float list -> datapoint

(** Live telemetry behind the scrape endpoint ([Obs.Serve]): a striped
    counter of completed operations and a sharded latency histogram the
    run loops bump while enabled, plus a [prometheus] producer rendering
    them together with chaos crossings, trace-ring drops, GC state and
    the registered structure's counters as [repro_trie_<name>_total]
    (for PAT: attempts, each retry cause, helps, backtracks and
    descriptors run).  Disabled (the default), each operation pays one
    atomic load and an untaken branch. *)
module Live : sig
  val set_enabled : bool -> unit
  (** Enabling from the disabled state resets the live counter,
      histogram and start time. *)

  val enabled : unit -> bool

  val tick : unit -> unit
  (** Count one completed operation (no latency sample). *)

  val op : int -> unit
  (** Count one completed operation with its latency in nanoseconds. *)

  val set_stats_source : (unit -> (string * int) list) option -> unit
  (** Register the structure-internal cumulative counter snapshot a
      scrape should expose; the trial runner does this automatically for
      subjects with [ops.stats], and a serving node for its trie. *)

  val set_extra_producer : (Obs.Prometheus.t -> unit) option -> unit
  (** Replace the extra-producer list with exactly this producer (or
      none).  Producers are appended to the exposition between the
      harness families and the GC gauges; each must emit complete
      metric families of its own (the exposition format wants each
      family's samples contiguous). *)

  val add_extra_producer : (Obs.Prometheus.t -> unit) -> unit
  (** Append one producer without disturbing the others — how the
      patserve server, the WAL metrics, the runtime-events collector
      and the watchdog each register independently for [patbench
      serve]'s single scrape endpoint. *)

  val clear_extra_producers : unit -> unit
  (** Remove every registered extra producer. *)

  val prometheus : unit -> string
  (** Render the full exposition (Prometheus text format 0.0.4). *)
end

val key_stream : distribution -> int -> Rng.t -> unit -> int
(** A generator of keys in [\[0, universe)] under the distribution. *)

val prefill : ops -> int -> Rng.t -> unit
(** Insert a uniformly random half of the universe in random order (the
    steady state of the paper's i50-d50 prefill; randomizing the order
    matters — a sorted sweep would degenerate the unbalanced trees). *)

val run_trial_full :
  ?record_latency:bool ->
  make_ops:(unit -> ops) ->
  workload ->
  config ->
  int ->
  trial_metrics * Obs.Histogram.t option
(** One prefill + warm-up + timed trial, measuring the timed window:
    ops/second, per-operation latency (when [record_latency], default
    [false]), counter deltas via [ops.stats], and [Gc.quick_stat]
    deltas.  The returned histogram is the trial's raw latency data, for
    merging across trials. *)

(** A data point plus observability: per-trial metrics, latency summary
    over all trials' samples, counter and GC totals across trials. *)
type datapoint_full = {
  dp : datapoint;
  trial_metrics : trial_metrics list;
  latency : Obs.Histogram.summary option;
  counters : (string * int) list;
  gc : gc_delta;
}

val run_full :
  ?record_latency:bool ->
  make_ops:(unit -> ops) ->
  workload ->
  config ->
  datapoint_full
(** [config.trials] independent trials on fresh structures, with full
    metrics collection. *)

(** {2 Structures and the evaluation table} *)

(** The paper's trie behind the common signature. *)
module Pat : Dset_intf.CONCURRENT_SET_WITH_REPLACE with type t = Core.Patricia.t

val structures : Dset_intf.packed list
(** The six structures of the paper's evaluation, in the order of its
    chart legends: PAT, 4-ST, BST, AVL, SL, Ctrie. *)

(** One structure (or variant) as the runner sees it. *)
type subject = { label : string; make : universe:int -> ops }

val pat_subject : subject

val pat_subject_stats : subject
(** PAT with [record_stats:true] and an [ops.stats] snapshot closure —
    the subject used when a metrics file is requested.  The counters are
    per-domain sharded, so enabling them does not add a shared CAS to
    the update path. *)

val all_subjects : subject list
(** {!structures} as subjects, in the same order. *)

(** One chart of an experiment.  [key] names its rows in metrics and
    baseline files (["Figure 8 (top)"]); the regression gate matches
    rows by it. *)
type panel = { key : string; workload : workload }

type experiment = {
  id : string;
  panels : panel list;
  subjects : subject list;
  threads : int list option;
      (** The thread counts this entry runs at whatever is requested
          ([seq]: one, the sequential trie's only correct setting);
          [None] runs the requested counts. *)
}

val experiments : experiment list
(** The evaluation's configurations, each stated once: ids ["8"],
    ["9"], ["10"] and ["11"] are Section V's figures;
    ["medium-contention"], ["i15-d15-f70-uniform"], ["clustered-runs"]
    and ["kary-arity"] are configurations the paper mentions without
    plotting; ["replace"], ["helping"], ["width"], ["seq"], ["vlk"] and
    ["contention"] are our ablations of PAT. *)

val entry_threads : experiment -> int list -> int list
(** The thread counts an entry runs when [requested] are asked for. *)

val panel_workload : ?range:int -> panel -> workload
(** The panel's workload, with its key range replaced by [range]. *)

val paper_figures : string list
(** The ids of Figures 8-11. *)

val run_subject : subject -> workload -> config -> datapoint

val run_subject_full :
  ?record_latency:bool -> subject -> workload -> config -> datapoint_full

val describe : workload -> string
(** e.g. ["uniform i5-d5-f90, range (0, 1000000)"]. *)

val gc_delta_to_json : gc_delta -> Obs.Json.t

val descent_mean : (string * int) list -> float option
(** Mean descent depth (nodes visited per search) derived from a
    counter alist containing the [descent_nodes_*]/[descent_searches]
    deltas of a timed window; [None] when the subject records no
    descent counters. *)

val per_op : datapoint_full -> string -> float option
(** A counter of {!datapoint_full.counters} per timed operation, over
    all trials; [None] when the subject does not record it. *)

val datapoint_full_to_json :
  section:string ->
  label:string ->
  workload ->
  threads:int ->
  datapoint_full ->
  Obs.Json.t
(** One metrics-file data point: identification (section/figure,
    structure label, workload, thread count), throughput mean/stddev and
    raw samples, the latency percentile summary, the structure's counter
    deltas, and the GC deltas.  Schema documented in EXPERIMENTS.md. *)

val pp_series :
  Format.formatter ->
  title:string ->
  threads_list:int list ->
  (string * datapoint list) list ->
  unit
(** Print one figure's series as a table: a row of means and a row of
    standard deviations per structure. *)
