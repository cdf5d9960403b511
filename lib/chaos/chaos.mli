(** Fault injection and contention-robustness layer.

    The paper's central claim is that the trie is {e non-blocking}: a
    process stalled in the middle of an update — even one holding flags
    — can never prevent other processes from completing, because anyone
    who encounters a flagged node helps the owner's descriptor to
    completion (Section IV).  Happy-path concurrency tests exercise the
    helping machinery only by luck; this module makes the adversarial
    schedules deliberate and reproducible.

    Every CAS/flag/unflag/child-swap site in [Core.Patricia] (and
    [Core.Patricia_vlk]) is labelled with a {!site} and routed through
    {!point}.  With no policy installed, a crossing costs one atomic
    load and an untaken branch — the same pattern as the trie's disabled
    stats path.  A test installs a policy ({!set_policy} /
    {!with_policy}) to inject deterministic PRNG-driven delays
    ({!Policy.delays}) or to freeze a domain at a chosen site
    ({!Stall}), then audits the structure afterwards.

    The module also provides the bounded exponential backoff used by the
    trie's retry loops and the harness's start barrier ({!Backoff}) —
    graceful behaviour under contention instead of bare spinning. *)

(** Labels for the synchronization points of the trie's update protocol,
    in the order an update crosses them (figure/line references are to
    Shafiei's pseudocode), followed by the network-path sites of the
    patserve set server ([lib/server]). *)
type site =
  | Cache
      (** level cache (not in the paper): a search has read the hint in
          its key's slot and is about to read the hint's info field to
          decide whether to start there *)
  | Renew
      (** snapshot copy-on-descent (not in the paper): an update's search
          met a stale-generation internal node, built its live copy and
          is about to publish and run the renewal descriptor that swings
          the parent's child to it *)
  | Flag_cas  (** about to attempt a flag CAS on an internal node's
                  [info] field (help, lines 87-92) *)
  | Child_cas  (** all flags acquired, [flag_done] set; about to swing
                   one child pointer (lines 93-98).  For a general-case
                   replace this site is crossed twice: stalling on the
                   second crossing freezes the window between the two
                   child CASes, after the linearization point. *)
  | After_child_cas  (** one child CAS just performed *)
  | Unflag  (** update applied; about to release the flags in reverse
                order (lines 99-102) *)
  | Backtrack  (** flagging failed; about to back the flags out
                   (lines 103-106) *)
  | Retry  (** an update attempt failed and is about to restart from a
               fresh search — the site where contention backoff waits *)
  | Snap_swing
      (** snapshot (not in the paper): the holder CAS has superseded the
          old generation, and the snapshot is about to release the old
          root and help the descriptors published in the domains' slots.
          A policy stalling here leaves a committed descriptor of the
          old generation pending under the new one. *)
  | Net_accept  (** patserve: a connection was just accepted *)
  | Net_read  (** patserve: about to read from a connection socket *)
  | Net_write  (** patserve: about to write buffered responses *)
  | Net_decode  (** patserve: about to decode a complete request frame *)
  | Wal_append
      (** persist: a group-commit leader is about to write its batch to
          the active WAL segment.  A policy stalling here widens the
          window in which a crash leaves a torn or missing tail. *)
  | Wal_fsync  (** persist: about to fsync the active WAL segment *)
  | Wal_rotate
      (** persist: about to rotate to a fresh WAL segment (close + fsync
          the old one, create and header-stamp the new one) *)
  | Repl_apply
      (** replica: a follower is about to apply one streamed log record
          to its local store.  A policy stalling here makes the
          follower's [applied_seq] fall behind the primary's head — the
          lag-injection lever behind the staleness-bound tests. *)

val all_sites : site list
val site_name : site -> string
(** Stable lower-snake names, used in metrics and test output. *)

val active : bool Atomic.t
(** Whether a policy is installed.  Exposed so instrumented structures
    can gate their crossings on a single inlined atomic load; treat as
    read-only and use {!set_policy} to change it. *)

val hit : site -> unit
(** Count the crossing and run the installed policy.  Call only when
    {!active} was observed true; {!point} is the safe wrapper. *)

val point : site -> unit
(** [point s] is [if Atomic.get active then hit s] — the entry point an
    instrumented structure calls at each labelled site. *)

val set_policy : ?name:string -> (site -> unit) option -> unit
(** Install ([Some hook]) or remove ([None]) the global injection
    policy.  The hook runs on the crossing domain and may spin, yield or
    block; it must not itself operate on the structure under test.
    Installing a policy resets the crossing counters. *)

val with_policy : ?name:string -> (site -> unit) -> (unit -> 'a) -> 'a
(** [with_policy h f] installs [h], runs [f ()], and removes the policy
    even if [f] raises. *)

val enabled : unit -> bool
(** [Atomic.get active]. *)

val policy_name : unit -> string
(** Name of the installed policy, or ["none"] — recorded as chaos-mode
    metadata in the benchmark metrics files. *)

val points_crossed : unit -> int
(** Total site crossings since the current policy was installed. *)

val site_crossings : unit -> (string * int) list
(** Per-site crossing counts (name, count) since the current policy was
    installed, in declaration order. *)

(** Deterministic schedule perturbation: PRNG-driven delay bursts at
    injection points.  Per-domain SplitMix64 generators derived from the
    seed keep runs reproducible for a fixed domain/operation layout. *)
module Policy : sig
  val delays :
    ?sites:site list ->
    ?prob_per_mille:int ->
    ?max_spins:int ->
    seed:int ->
    unit ->
    site -> unit
  (** [delays ~seed ()] is a hook that, at each crossing of one of
      [sites] (default: all), spins for a random burst of up to
      [max_spins] (default 400) [Domain.cpu_relax] calls with
      probability [prob_per_mille]/1000 (default 250).  On an
      oversubscribed machine the bursts also invite preemption, widening
      the CAS windows they land in. *)
end

(** Sticky stalls: freeze the first domain that crosses a chosen site,
    simulating a process descheduled (or dead) in the middle of an
    update.  The stalled domain spins inside the hook until
    {!Stall.release}; every other domain passes the site freely, which
    is exactly the scenario the non-blocking property is about. *)
module Stall : sig
  type t

  val install : ?after:int -> site -> t
  (** [install ~after s] arms a stall that captures the domain making
      the [(after+1)]-th crossing of [s] (default: the first).  The
      returned handle is meant to be composed into the policy via
      {!hook}. *)

  val hook : t -> site -> unit
  (** The injection hook enforcing the stall; pass to {!set_policy}. *)

  val wait_stalled : ?timeout_s:float -> t -> bool
  (** Block (with backoff) until some domain is captured; [false] on
      timeout (default 10s). *)

  val stalled : t -> bool

  val release : t -> unit
  (** Let the captured domain resume.  Idempotent; also disarms an
      uncaptured stall. *)
end

(** Bounded exponential backoff with jitter for retry loops.

    The state is a plain [int] (the current spin cap), so threading it
    through a retry loop allocates nothing.  Jitter draws from a
    per-domain SplitMix64 generator: synchronized retry herds decorrelate
    instead of re-colliding, which is what flattens the contention
    cliff. *)
module Backoff : sig
  val enabled : unit -> bool

  val set_enabled : bool -> unit
  (** Toggle the trie's retry backoff globally (default [false], so the
      default benchmark configuration is byte-for-byte the paper's bare
      retry loop).  The benchmark driver exposes this as
      [patbench --backoff]. *)

  type t = int

  val init : t
  (** Initial spin cap. *)

  val wait : t -> t
  (** Spin for a jittered burst in [[cap/2, cap]] and return the doubled
      (bounded) cap.  Waits unconditionally — callers gate on
      {!enabled} so they can count the wait. *)

  val wait_until : ?timeout_s:float -> (unit -> bool) -> bool
  (** [wait_until pred] spins with exponential backoff until [pred ()]
      holds or [timeout_s] (default 10s) elapses; returns the final
      value of [pred ()].  Independent of {!enabled} — this is the
      deadline-guarded barrier wait used by the harness. *)

  val sleep : ?base_s:float -> ?cap_s:float -> ?floor_s:float -> t -> t
  (** [sleep cap] is {!wait}'s sleeping twin for waits measured in
      milliseconds: sleep a jittered duration in [[d/2, d]] where [d]
      grows from [base_s] (default 1ms) with the same doubling cap,
      bounded by [cap_s] (default 0.5s) and never below [floor_s]
      (default 0 — pass a server-provided retry-after hint here).
      Returns the doubled (bounded) state.  Used by the patserve
      client's BUSY/reconnect retry loop, where spinning would burn the
      very CPU the overloaded server needs.  Independent of
      {!enabled}. *)
end
