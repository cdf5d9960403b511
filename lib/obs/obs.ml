(** Observability toolkit for the Patricia-trie reproduction.

    The paper's whole story is contention behaviour — help rates, CAS
    retries, tail latencies under flag conflicts — yet naive
    instrumentation (shared atomic counters, timestamped logs behind a
    lock) becomes the hotspot it is supposed to measure.  Everything in
    this library is therefore sharded per domain on the write path and
    merged only on snapshot:

    - {!Counter}: cache-line-padded striped counters;
    - {!Histogram}: log-bucketed latency/retry histograms with
      p50/p90/p99/p99.9 extraction;
    - {!Trace}: fixed-capacity per-domain ring buffers of operation
      events and attempt spans for post-mortem debugging and the flight
      recorder (overflow is counted, never silent);
    - {!Perfetto}: Chrome trace-event JSON export of the trace rings,
      viewable in Perfetto / [chrome://tracing], one track per domain;
    - {!Attribution}: CAS-retry attribution — per-cause retry counters
      and attempt-depth histograms plus help-chain depth;
    - {!Prometheus}: text exposition (0.0.4) renderer for counters,
      gauges and histogram quantiles;
    - {!Net}: shared loopback TCP listener plumbing (ephemeral-port
      bind, select-polled accept, idempotent stop) used by {!Serve} and
      the patserve set server;
    - {!Serve}: dependency-free HTTP listener on a background domain
      serving [/metrics], [/healthz] (optionally wired to a
      {!Watchdog} verdict) and caller-supplied debug routes from a
      snapshot;
    - {!Slowlog}: lock-free slowest-K request table with per-stage
      latency breakdowns;
    - {!Watchdog}: heartbeat/gauge progress watchdog producing the
      structured ok/degraded/stalled health verdict;
    - {!Runtime}: OCaml 5 runtime-events collector fusing GC/STW
      pauses into the flight-recorder trace and [patserve_gc_*]
      metric families;
    - {!Shape}: trie shape census — exact depth/branching/footprint
      distributions accumulated by per-structure walkers, rendered as
      [pat_shape_*] families and the [/debug/shape] JSON document;
    - {!Json}: a dependency-free JSON emitter/parser for the
      machine-readable metrics files written by the benchmark drivers;
    - {!Clock}: the monotonic nanosecond clock behind all timestamps. *)

module Clock = Clock
module Json = Json
module Stripe = Stripe
module Counter = Counter
module Histogram = Histogram
module Trace = Trace
module Perfetto = Perfetto
module Attribution = Attribution
module Prometheus = Prometheus
module Net = Net
module Serve = Serve
module Slowlog = Slowlog
module Watchdog = Watchdog
module Runtime = Runtime
module Shape = Shape
