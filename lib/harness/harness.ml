(** Concurrent-set benchmark harness reproducing the methodology of the
    paper's Section V:

    - operation mixes are given as percentages (e.g. i5-d5-f90);
    - keys are drawn uniformly from a range, or non-uniformly as runs of
      50 consecutive keys from a random starting point;
    - each data point is the mean of several timed trials on a structure
      prefilled to half-full, after a warm-up run; the standard deviation
      is reported (the paper's error bars);
    - throughput is total completed operations per second across all
      threads (OCaml domains). *)

(** Operation mix in percent; must sum to 100. *)
module Mix = struct
  type t = { insert : int; delete : int; find : int; replace : int }

  let v ?(insert = 0) ?(delete = 0) ?(find = 0) ?(replace = 0) () =
    if insert + delete + find + replace <> 100 then
      invalid_arg "Mix.v: percentages must sum to 100";
    { insert; delete; find; replace }

  let i5_d5_f90 = v ~insert:5 ~delete:5 ~find:90 ()
  let i50_d50_f0 = v ~insert:50 ~delete:50 ()
  let i15_d15_f70 = v ~insert:15 ~delete:15 ~find:70 ()
  let i10_d10_r80 = v ~insert:10 ~delete:10 ~replace:80 ()

  let to_string m =
    let parts =
      List.filter
        (fun (_, p) -> p > 0)
        [ ("i", m.insert); ("d", m.delete); ("f", m.find); ("r", m.replace) ]
    in
    String.concat "-" (List.map (fun (n, p) -> Printf.sprintf "%s%d" n p) parts)
end

(** Key distribution: uniform over the range, or the paper's non-uniform
    workload — operations on runs of [run_length] consecutive keys
    starting from a random key (Section V uses 50). *)
type distribution = Uniform | Clustered of int

type workload = {
  universe : int;
  mix : Mix.t;
  dist : distribution;
}

type config = {
  threads : int;
  seconds : float; (* length of each timed trial *)
  trials : int;
  warmup_seconds : float;
  seed : int;
}

let default_config =
  { threads = 4; seconds = 1.0; trials = 3; warmup_seconds = 0.3; seed = 2013 }

(** The operations of one structure instance, as closures so the runner is
    agnostic to the concrete module (and to whether replace exists).
    [stats], when present, snapshots the structure's internal contention
    counters (cumulative since creation); the runner diffs snapshots
    around the timed window. *)
type ops = {
  insert : int -> bool;
  delete : int -> bool;
  member : int -> bool;
  replace : (int -> int -> bool) option; (* remove add *)
  stats : (unit -> (string * int) list) option;
}

type datapoint = {
  mean : float; (* ops per second *)
  stddev : float;
  samples : float list;
}

(* Deltas of [Gc.quick_stat] around the timed window.  quick_stat is
   cheap and never stops the world, at the price of per-domain fields
   ([minor_words], [promoted_words]) reflecting mostly the coordinating
   domain; the collection counts and major words are global.  Good
   enough to spot an allocation regression between two runs of the same
   benchmark, which is what the metrics files are for. *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_delta_between (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

let gc_delta_add x y =
  {
    minor_words = x.minor_words +. y.minor_words;
    promoted_words = x.promoted_words +. y.promoted_words;
    major_words = x.major_words +. y.major_words;
    minor_collections = x.minor_collections + y.minor_collections;
    major_collections = x.major_collections + y.major_collections;
  }

let gc_delta_zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
  }

(** Everything one timed trial can report beyond raw throughput. *)
type trial_metrics = {
  ops_per_sec : float;
  operations : int; (* completed in the timed window, all domains *)
  latency : Obs.Histogram.summary option;
      (* per-operation latency over the timed window, all domains *)
  counters : (string * int) list;
      (* structure-internal counter deltas over the timed window *)
  gc : gc_delta;
}

(* ------------------------------------------------------------------ *)
(* Live telemetry: the state behind the scrape endpoint (Obs.Serve).

   The run loops below bump a striped ops counter and (on the latency
   path) a sharded histogram whenever live mode is on; the [prometheus]
   producer renders those together with the chaos crossings, trace-ring
   drops, the trie-internal counters (attempts and retries by cause
   among them) and GC state into one text exposition.  Same hot-path
   discipline as everything else in this file: live mode off costs one
   atomic load and an untaken branch per operation. *)

module Live = struct
  let active = Atomic.make false
  let ops_done = Obs.Counter.create ()
  let latency = Obs.Histogram.create ()
  let started_ns = ref 0

  (* The current structure's cumulative counter snapshot function
     ([ops.stats] of the instance under test), registered by the trial
     runner so a scrape can expose trie-internal counters.  Read only on
     scrape. *)
  let stats_source : (unit -> (string * int) list) option Atomic.t =
    Atomic.make None

  let set_stats_source f = Atomic.set stats_source f

  (* Extra metric producers appended to the exposition — how the
     patserve server, the durability layer, the runtime-events
     collector and the watchdog (none of which this library may depend
     on) get their families into the same scrape.  [set_extra_producer]
     replaces the whole list (the pre-existing single-producer API);
     [add_extra_producer] appends, so independent subsystems can
     register without knowing about each other. *)
  let extra_producers : (Obs.Prometheus.t -> unit) list Atomic.t =
    Atomic.make []

  let set_extra_producer = function
    | Some f -> Atomic.set extra_producers [ f ]
    | None -> Atomic.set extra_producers []

  let add_extra_producer f =
    let rec go () =
      let cur = Atomic.get extra_producers in
      if not (Atomic.compare_and_set extra_producers cur (cur @ [ f ])) then
        go ()
    in
    go ()

  let clear_extra_producers () = Atomic.set extra_producers []

  let set_enabled b =
    if b && not (Atomic.get active) then begin
      Obs.Counter.reset ops_done;
      Obs.Histogram.reset latency;
      started_ns := Obs.Clock.now_ns ()
    end;
    Atomic.set active b

  let enabled () = Atomic.get active

  (* Count one completed operation; [op] also records its latency. *)
  let[@inline] tick () = if Atomic.get active then Obs.Counter.incr ops_done

  let[@inline] op ns =
    if Atomic.get active then begin
      Obs.Counter.incr ops_done;
      Obs.Histogram.record latency ns
    end

  let prometheus () =
    let b = Obs.Prometheus.create () in
    let open Obs.Prometheus in
    gauge b ~name:"repro_up" ~help:"Benchmark process is serving metrics" 1.0;
    gauge b ~name:"repro_uptime_seconds"
      ~help:"Seconds since live telemetry was enabled"
      (float_of_int (Obs.Clock.now_ns () - !started_ns) /. 1e9);
    counter b ~name:"repro_ops_total"
      ~help:"Operations completed by benchmark workers since live start"
      (float_of_int (Obs.Counter.sum ops_done));
    histogram_summary b ~name:"repro_op_latency_ns"
      ~help:"Per-operation latency over the live window, nanoseconds"
      (Obs.Histogram.snapshot latency);
    (match Obs.Trace.recorder () with
    | Some tr ->
        counter b ~name:"repro_trace_dropped_events_total"
          ~help:"Flight-recorder events lost to ring overwrites"
          (float_of_int (Obs.Trace.dropped tr))
    | None -> ());
    List.iter
      (fun (site, n) ->
        counter b ~name:"repro_chaos_crossings_total"
          ~help:"Chaos injection-site crossings"
          ~labels:[ ("site", site) ]
          (float_of_int n))
      (Chaos.site_crossings ());
    (match Atomic.get stats_source with
    | Some f ->
        List.iter
          (fun (n, v) ->
            counter b
              ~name:("repro_trie_" ^ n ^ "_total")
              ~help:"Trie-internal contention counter (cumulative)"
              (float_of_int v))
          (f ())
    | None -> ());
    List.iter (fun f -> f b) (Atomic.get extra_producers);
    let g = Gc.quick_stat () in
    gauge b ~name:"repro_gc_minor_collections"
      ~help:"Cumulative minor collections"
      (float_of_int g.Gc.minor_collections);
    gauge b ~name:"repro_gc_major_collections"
      ~help:"Cumulative major collections"
      (float_of_int g.Gc.major_collections);
    gauge b ~name:"repro_gc_minor_words" ~help:"Cumulative minor words"
      g.Gc.minor_words;
    gauge b ~name:"repro_gc_major_words" ~help:"Cumulative major words"
      g.Gc.major_words;
    gauge b ~name:"repro_gc_heap_words" ~help:"Major heap size in words"
      (float_of_int g.Gc.heap_words);
    to_string b
end

let mean_stddev samples =
  let n = float_of_int (List.length samples) in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. n
  in
  { mean; stddev = sqrt var; samples }

(* ------------------------------------------------------------------ *)
(* Key generators *)

let key_stream dist universe rng =
  match dist with
  | Uniform -> fun () -> Rng.int rng universe
  | Clustered run_length ->
      let base = ref (Rng.int rng universe) in
      let off = ref 0 in
      fun () ->
        if !off >= run_length then begin
          base := Rng.int rng universe;
          off := 0
        end;
        let k = (!base + !off) mod universe in
        incr off;
        k

(* ------------------------------------------------------------------ *)
(* One timed trial *)

let run_loop ?latency ops workload stop rng =
  let next_key = key_stream workload.dist workload.universe rng in
  let m = workload.mix in
  let t_ins = m.Mix.insert in
  let t_del = t_ins + m.Mix.delete in
  let t_find = t_del + m.Mix.find in
  let do_op r k =
    if r < t_ins then ignore (ops.insert k)
    else if r < t_del then ignore (ops.delete k)
    else if r < t_find then ignore (ops.member k)
    else begin
      match ops.replace with
      | Some replace -> ignore (replace k (next_key ()))
      | None -> ignore (ops.member k)
    end
  in
  let count = ref 0 in
  (* Two loop bodies so the un-instrumented path pays no clock reads and
     no option test per operation.  Each runs an operation before it
     first reads [stop], so a domain that starts after the window closed
     still counts one. *)
  (match latency with
  | None ->
      while
        let r = Rng.int rng 100 in
        let k = next_key () in
        do_op r k;
        Live.tick ();
        incr count;
        not (Atomic.get stop)
      do
        ()
      done
  | Some hist ->
      while
        let r = Rng.int rng 100 in
        let k = next_key () in
        let t0 = Obs.Clock.now_ns () in
        do_op r k;
        let dt = Obs.Clock.now_ns () - t0 in
        Obs.Histogram.record hist dt;
        Live.op dt;
        incr count;
        not (Atomic.get stop)
      do
        ()
      done);
  !count

(* Prefill to half-full: insert a uniformly random half of the universe
   in random order — the steady state of the paper's i50-d50 prefill run.
   Insertion order matters: a sorted sweep would degenerate the
   non-rebalancing trees (BST, 4-ST) into linear lists and bias every
   measurement, which is why the paper prefills with random updates. *)
let prefill ops universe rng =
  let perm = Array.init universe Fun.id in
  for i = universe - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  for i = 0 to (universe / 2) - 1 do
    ignore (ops.insert perm.(i))
  done

let counters_of ops = match ops.stats with Some f -> f () | None -> []

(* Delta of two cumulative counter snapshots, keyed by the first. *)
let counter_deltas before after =
  List.map
    (fun (name, v0) ->
      match List.assoc_opt name after with
      | Some v1 -> (name, v1 - v0)
      | None -> (name, 0))
    before

(* One prefill + warm-up + timed trial.  Returns the trial's metrics and
   the latency histogram (when [record_latency]) so callers can merge
   histograms across trials for whole-datapoint percentiles. *)
let run_trial_full ?(record_latency = false) ~make_ops workload config
    trial_idx =
  let ops = make_ops () in
  (* Let a live scrape see this instance's internal counters.  Once per
     trial, not per operation, so no gating needed. *)
  (match ops.stats with Some _ -> Live.set_stats_source ops.stats | None -> ());
  let rng = Rng.of_int_seed (config.seed + (trial_idx * 7919)) in
  prefill ops workload.universe rng;
  let run_phase ?latency seconds =
    let stop = Atomic.make false in
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let worker d =
      Domain.spawn (fun () ->
          let rng = Rng.of_int_seed (config.seed + (trial_idx * 7919) + (d * 104729) + 1) in
          Atomic.incr ready;
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          run_loop ?latency ops workload stop rng)
    in
    let domains = List.init config.threads worker in
    (* Start barrier with a deadline: a worker that dies before checking
       in (OOM, uncaught exception in spawn) must fail the trial with a
       diagnostic, not wedge the whole benchmark in a silent spin. *)
    if
      not
        (Chaos.Backoff.wait_until ~timeout_s:30.0 (fun () ->
             Atomic.get ready >= config.threads))
    then begin
      (* Unblock any workers that did park on the barrier so they exit,
         then fail loudly.  Domains that never reached the barrier cannot
         be joined safely, so we don't try. *)
      Atomic.set go true;
      Atomic.set stop true;
      failwith
        (Printf.sprintf
           "harness: start barrier timed out after 30s: %d of %d workers \
            checked in"
           (Atomic.get ready) config.threads)
    end;
    let t0 = Unix.gettimeofday () in
    Atomic.set go true;
    Unix.sleepf seconds;
    Atomic.set stop true;
    let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
    let elapsed = Unix.gettimeofday () -. t0 in
    (total, float_of_int total /. elapsed)
  in
  if config.warmup_seconds > 0.0 then ignore (run_phase config.warmup_seconds);
  (* Latency, counters and GC are all measured over the timed window
     only: the histogram is created after warm-up and the cumulative
     counters are diffed around the phase. *)
  let hist = if record_latency then Some (Obs.Histogram.create ()) else None in
  let counters0 = counters_of ops in
  let gc0 = Gc.quick_stat () in
  let operations, ops_per_sec = run_phase ?latency:hist config.seconds in
  let gc1 = Gc.quick_stat () in
  let counters1 = counters_of ops in
  ( {
      ops_per_sec;
      operations;
      latency = Option.map Obs.Histogram.snapshot hist;
      counters = counter_deltas counters0 counters1;
      gc = gc_delta_between gc0 gc1;
    },
    hist )

(** A whole data point with observability: the throughput statistics
    plus per-trial metrics, the latency summary of all trials' samples
    merged, and counter/GC totals across trials. *)
type datapoint_full = {
  dp : datapoint;
  trial_metrics : trial_metrics list;
  latency : Obs.Histogram.summary option;
  counters : (string * int) list;
  gc : gc_delta;
}

let run_full ?(record_latency = false) ~make_ops workload config =
  let combined =
    if record_latency then Some (Obs.Histogram.create ()) else None
  in
  let trial_metrics =
    List.init config.trials (fun i ->
        let m, h =
          run_trial_full ~record_latency ~make_ops workload config i
        in
        (match (combined, h) with
        | Some into, Some h -> Obs.Histogram.merge_into ~into h
        | _ -> ());
        m)
  in
  let dp = mean_stddev (List.map (fun m -> m.ops_per_sec) trial_metrics) in
  let counters =
    match trial_metrics with
    | [] -> []
    | (first : trial_metrics) :: rest ->
        List.fold_left
          (fun acc (m : trial_metrics) ->
            List.map
              (fun (name, v) ->
                (name, v + Option.value ~default:0 (List.assoc_opt name m.counters)))
              acc)
          first.counters rest
  in
  let gc =
    List.fold_left
      (fun acc (m : trial_metrics) -> gc_delta_add acc m.gc)
      gc_delta_zero trial_metrics
  in
  {
    dp;
    trial_metrics;
    latency = Option.map Obs.Histogram.snapshot combined;
    counters;
    gc;
  }

(* ------------------------------------------------------------------ *)
(* The six structures of the paper's evaluation, each listed once. *)

(** The paper's trie behind the common signature (the stats switch of
    [Core.Patricia.create] is dropped). *)
module Pat : Dset_intf.CONCURRENT_SET_WITH_REPLACE with type t = Core.Patricia.t =
struct
  type t = Core.Patricia.t

  let name = Core.Patricia.name
  let create ~universe () = Core.Patricia.create ~universe ()
  let insert = Core.Patricia.insert
  let delete = Core.Patricia.delete
  let member = Core.Patricia.member
  let to_list = Core.Patricia.to_list
  let size = Core.Patricia.size
  let replace = Core.Patricia.replace
  let census = Core.Patricia.census
  let descent_stats = Core.Patricia.descent_stats

  (* The one real snapshot capability among the six: an O(1) frozen
     view, repackaged as the first-class traversal record of the common
     signature. *)
  let snapshot = Core.Patricia.snapshot_capability
end

(** 4-ST behind the common signature (the stats switch of [Kary.create]
    is dropped, as for {!Pat}). *)
module Kary_st : Dset_intf.CONCURRENT_SET with type t = Kary.t = struct
  include Kary

  let create ~universe () = Kary.create ~universe ()
end

let structures : Dset_intf.packed list =
  [
    Dset_intf.Packed (module Pat);
    Dset_intf.Packed (module Kary_st);
    Dset_intf.Packed (module Nbbst);
    Dset_intf.Packed (module Avl);
    Dset_intf.Packed (module Skiplist);
    Dset_intf.Packed (module Ctrie);
  ]

type subject = { label : string; make : universe:int -> ops }

let pat_subject_with ~record_stats =
  {
    label = Core.Patricia.name;
    make =
      (fun ~universe ->
        let t = Core.Patricia.create ~universe ~record_stats () in
        {
          insert = Core.Patricia.insert t;
          delete = Core.Patricia.delete t;
          member = Core.Patricia.member t;
          replace =
            Some (fun remove add -> Core.Patricia.replace t ~remove ~add);
          stats =
            (if record_stats then
               Some
                 (fun () ->
                   match Core.Patricia.stats_snapshot t with
                   | Some s -> Core.Patricia.stats_to_alist s
                   | None -> [])
             else None);
        });
  }

let pat_subject = pat_subject_with ~record_stats:false

(** PAT with its internal contention counters enabled (per-domain
    sharded, so the counters do not serialize the hot path).  Used when
    a metrics file is requested and by the [helping] entry; the plain
    {!pat_subject} stays completely uninstrumented for like-for-like
    figure reproduction. *)
let pat_subject_stats = pat_subject_with ~record_stats:true

(* The operations of a structure with no replace and no counters. *)
let plain_ops insert delete member =
  { insert; delete; member; replace = None; stats = None }

let set_subject (Dset_intf.Packed (module S)) =
  {
    label = S.name;
    make =
      (fun ~universe ->
        let t = S.create ~universe () in
        plain_ops (S.insert t) (S.delete t) (S.member t));
  }

(* PAT is the one structure with an atomic replace, which the packed
   signature does not carry. *)
let all_subjects =
  List.map
    (fun (Dset_intf.Packed (module S) as p) ->
      if S.name = Pat.name then pat_subject else set_subject p)
    structures

let kary_arity_subject k =
  {
    label = Printf.sprintf "%d-ST" k;
    make =
      (fun ~universe ->
        let t = Kary.create_k ~k ~universe () in
        plain_ops (Kary.insert t) (Kary.delete t) (Kary.member t));
  }

(* PAT's replace as a non-atomic delete then insert: the pair of states
   is transiently visible, unlike the real replace. *)
let del_ins_subject =
  {
    label = "del+ins";
    make =
      (fun ~universe ->
        let t = Core.Patricia.create ~universe () in
        {
          insert = Core.Patricia.insert t;
          delete = Core.Patricia.delete t;
          member = Core.Patricia.member t;
          replace =
            Some
              (fun remove add ->
                if Core.Patricia.delete t remove then begin
                  ignore (Core.Patricia.insert t add);
                  true
                end
                else false);
          stats = None;
        });
  }

(* The plain sequential trie: correct on one domain only. *)
let seq_subject =
  {
    label = Core.Patricia_seq.name;
    make =
      (fun ~universe ->
        let t = Core.Patricia_seq.create ~universe () in
        plain_ops (Core.Patricia_seq.insert t) (Core.Patricia_seq.delete t)
          (Core.Patricia_seq.member t));
  }

(* PAT-VLK over the same logical keys, each spelled as 8 hex digits. *)
let vlk_subject =
  {
    label = Core.Patricia_vlk.name;
    make =
      (fun ~universe:_ ->
        let t = Core.Patricia_vlk.create () in
        let key k = Printf.sprintf "%08x" k in
        {
          insert = (fun k -> Core.Patricia_vlk.insert t (key k));
          delete = (fun k -> Core.Patricia_vlk.delete t (key k));
          member = (fun k -> Core.Patricia_vlk.member t (key k));
          replace =
            Some
              (fun remove add ->
                Core.Patricia_vlk.replace t ~remove:(key remove) ~add:(key add));
          stats = None;
        });
  }

(* ------------------------------------------------------------------ *)
(* The evaluation's configurations, each stated once: Section V's
   Figures 8-11, the configurations the paper mentions without
   plotting, then our ablations of PAT.  A panel's key names its rows
   in metrics and baseline files, so the regression gate matches rows
   by it. *)

type panel = { key : string; workload : workload }

type experiment = {
  id : string;
  panels : panel list;
  subjects : subject list;
  threads : int list option;
}

let experiments =
  let panel key universe mix dist =
    { key; workload = { universe; mix; dist } }
  in
  let entry ?threads id panels subjects = { id; panels; subjects; threads } in
  let large = 1_000_000 in
  let top_bottom name universe =
    [
      panel (name ^ " (top)") universe Mix.i5_d5_f90 Uniform;
      panel (name ^ " (bottom)") universe Mix.i50_d50_f0 Uniform;
    ]
  in
  (* One update-only panel per range, for the PAT ablations. *)
  let ranges name universes =
    List.map
      (fun u ->
        panel (Printf.sprintf "%s, range %d" name u) u Mix.i50_d50_f0 Uniform)
      universes
  in
  [
    entry "8" (top_bottom "Figure 8" large) all_subjects;
    entry "9" (top_bottom "Figure 9" 100) all_subjects;
    (* No comparison structure has an atomic replace. *)
    entry "10"
      [ panel "Figure 10" large Mix.i10_d10_r80 Uniform ]
      [ pat_subject ];
    entry "11"
      [ panel "Figure 11" large Mix.i15_d15_f70 (Clustered 50) ]
      all_subjects;
    (* The paper says range 10^3 and a uniform i15-d15-f70 behave like
       Figure 8, and that longer runs hurt BST and 4-ST further. *)
    entry "medium-contention" (top_bottom "Medium contention" 1_000) all_subjects;
    entry "i15-d15-f70-uniform"
      [ panel "Uniform i15-d15-f70" large Mix.i15_d15_f70 Uniform ]
      all_subjects;
    entry "clustered-runs"
      (List.map
         (fun n ->
           panel (Printf.sprintf "Runs of %d" n) large Mix.i15_d15_f70
             (Clustered n))
         [ 50; 200; 1000 ])
      all_subjects;
    (* Brown and Helga's finding, which the paper adopts: k = 4 is the
       k-ary tree's sweet spot. *)
    entry "kary-arity"
      [ panel "k-ary arity" large Mix.i50_d50_f0 Uniform ]
      (List.map kary_arity_subject [ 2; 4; 8; 16; 32 ]);
    (* What atomicity costs over the naive composition, on Figure 10's
       workload. *)
    entry "replace"
      [ panel "Replace vs del+ins" large Mix.i10_d10_r80 Uniform ]
      [ pat_subject; del_ins_subject ];
    (* How often updates retry, fail to flag, help or back out as
       contention rises. *)
    entry "helping"
      (ranges "Helping" [ 100; 10_000; large ])
      [ pat_subject_stats ];
    (* Same mix, growing universe: longer keys and a taller trie, and
       (half full) more keys. *)
    entry "width"
      (ranges "Key width" [ 1 lsl 8; 1 lsl 12; 1 lsl 16; 1 lsl 20; 1 lsl 24 ])
      [ pat_subject ];
    (* The price of lock-freedom on one domain, the only one the
       sequential trie is correct on. *)
    entry "seq" ~threads:[ 1 ]
      (ranges "Coordination cost" [ 1_000; large ])
      [ pat_subject; seq_subject ];
    (* Section VI's unbounded keys against machine words. *)
    entry "vlk"
      (ranges "Unbounded keys" [ 65_536 ])
      [ pat_subject; vlk_subject ];
    (* The retry storms [--backoff] exists for: run once without it and
       once with it. *)
    entry "contention"
      (ranges "Contention" [ 100; 1_000 ])
      [ pat_subject ];
  ]

let paper_figures = [ "8"; "9"; "10"; "11" ]

let entry_threads e requested = Option.value e.threads ~default:requested

let panel_workload ?range p =
  match range with
  | Some universe -> { p.workload with universe }
  | None -> p.workload

let run_subject_full ?record_latency subject workload config =
  run_full ?record_latency
    ~make_ops:(fun () -> subject.make ~universe:workload.universe)
    workload config

let run_subject subject workload config =
  (run_subject_full subject workload config).dp

(* ------------------------------------------------------------------ *)
(* Metrics-file assembly: one JSON object per (structure, workload,
   threads) data point — the schema documented in EXPERIMENTS.md under
   "Observability" and validated by test/validate_metrics.ml. *)

let dist_string = function
  | Uniform -> "uniform"
  | Clustered n -> Printf.sprintf "clustered-%d" n

let describe w =
  Printf.sprintf "%s %s, range (0, %d)"
    (match w.dist with
    | Uniform -> "uniform"
    | Clustered n -> Printf.sprintf "runs of %d," n)
    (Mix.to_string w.mix) w.universe

let gc_delta_to_json (g : gc_delta) =
  Obs.Json.Obj
    [
      ("minor_words", Obs.Json.Float g.minor_words);
      ("promoted_words", Obs.Json.Float g.promoted_words);
      ("major_words", Obs.Json.Float g.major_words);
      ("minor_collections", Obs.Json.Int g.minor_collections);
      ("major_collections", Obs.Json.Int g.major_collections);
    ]

(* Mean descent depth over a timed window, derived from the cumulative
   descent counters when the subject records them: nodes visited across
   all opcodes divided by completed searches. *)
let descent_mean counters =
  match List.assoc_opt "descent_searches" counters with
  | Some searches when searches > 0 ->
      let prefix = "descent_nodes_" in
      let plen = String.length prefix in
      let nodes =
        List.fold_left
          (fun acc (n, v) ->
            if String.length n >= plen && String.sub n 0 plen = prefix then
              acc + v
            else acc)
          0 counters
      in
      Some (float_of_int nodes /. float_of_int searches)
  | _ -> None

(* The counters are summed over all trials, so the divisor is every
   trial's timed operations, not one trial's. *)
let per_op (full : datapoint_full) name =
  match List.assoc_opt name full.counters with
  | Some n ->
      let ops =
        List.fold_left
          (fun acc (m : trial_metrics) -> acc + m.operations)
          0 full.trial_metrics
      in
      if ops > 0 then Some (float_of_int n /. float_of_int ops) else None
  | None -> None

let datapoint_full_to_json ~section ~label workload ~threads
    (full : datapoint_full) =
  let open Obs.Json in
  Obj
    [
      ("figure", Str section);
      ("structure", Str label);
      ("mix", Str (Mix.to_string workload.mix));
      ("distribution", Str (dist_string workload.dist));
      ("universe", Int workload.universe);
      ("threads", Int threads);
      ("trials", Int (List.length full.dp.samples));
      ("throughput_mean_ops_s", Float full.dp.mean);
      ("throughput_stddev_ops_s", Float full.dp.stddev);
      ( "throughput_samples_ops_s",
        Arr (List.map (fun s -> Float s) full.dp.samples) );
      ( "latency",
        match full.latency with
        | Some s -> Obs.Histogram.summary_to_json s
        | None -> Null );
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) full.counters));
      ( "descent_mean_nodes",
        match descent_mean full.counters with Some m -> Float m | None -> Null
      );
      ("gc", gc_delta_to_json full.gc);
    ]

(* ------------------------------------------------------------------ *)
(* Figure-style reporting *)

let pp_series fmt ~title ~threads_list (rows : (string * datapoint list) list) =
  Format.fprintf fmt "## %s@." title;
  Format.fprintf fmt "%-8s" "threads";
  List.iter (fun t -> Format.fprintf fmt "%14d" t) threads_list;
  Format.fprintf fmt "@.";
  List.iter
    (fun (label, points) ->
      Format.fprintf fmt "%-8s" label;
      List.iter (fun p -> Format.fprintf fmt "%14.0f" p.mean) points;
      Format.fprintf fmt "@.";
      Format.fprintf fmt "%-8s" "  ±";
      List.iter (fun p -> Format.fprintf fmt "%14.0f" p.stddev) points;
      Format.fprintf fmt "@.")
    rows
