(* Fault injection and contention-robustness layer; see chaos.mli.

   Hot-path discipline: with no policy installed the only cost an
   instrumented structure pays per site is [Atomic.get active] plus an
   untaken branch (callers inline that test themselves and call [hit]
   only on the slow path).  Everything else here — counters, PRNG
   state, stall bookkeeping — is touched only while a policy is
   active, so it is allowed to be striped-but-ordinary code. *)

type site =
  | Cache
  | Renew
  | Flag_cas
  | Child_cas
  | After_child_cas
  | Unflag
  | Backtrack
  | Retry
  | Snap_swing
  | Net_accept
  | Net_read
  | Net_write
  | Net_decode
  | Wal_append
  | Wal_fsync
  | Wal_rotate
  | Repl_apply

let all_sites =
  [
    Cache;
    Renew;
    Flag_cas;
    Child_cas;
    After_child_cas;
    Unflag;
    Backtrack;
    Retry;
    Snap_swing;
    Net_accept;
    Net_read;
    Net_write;
    Net_decode;
    Wal_append;
    Wal_fsync;
    Wal_rotate;
    Repl_apply;
  ]

let site_name = function
  | Cache -> "cache"
  | Renew -> "renew"
  | Flag_cas -> "flag_cas"
  | Child_cas -> "child_cas"
  | After_child_cas -> "after_child_cas"
  | Unflag -> "unflag"
  | Backtrack -> "backtrack"
  | Retry -> "retry"
  | Snap_swing -> "snap_swing"
  | Net_accept -> "net_accept"
  | Net_read -> "net_read"
  | Net_write -> "net_write"
  | Net_decode -> "net_decode"
  | Wal_append -> "wal_append"
  | Wal_fsync -> "wal_fsync"
  | Wal_rotate -> "wal_rotate"
  | Repl_apply -> "repl_apply"

let site_index = function
  | Cache -> 0
  | Renew -> 1
  | Flag_cas -> 2
  | Child_cas -> 3
  | After_child_cas -> 4
  | Unflag -> 5
  | Backtrack -> 6
  | Retry -> 7
  | Snap_swing -> 8
  | Net_accept -> 9
  | Net_read -> 10
  | Net_write -> 11
  | Net_decode -> 12
  | Wal_append -> 13
  | Wal_fsync -> 14
  | Wal_rotate -> 15
  | Repl_apply -> 16

let n_sites = List.length all_sites

(* ------------------------------------------------------------------ *)
(* Global policy state *)

let active = Atomic.make false
let hook : (site -> unit) Atomic.t = Atomic.make (fun _ -> ())
let installed_name = Atomic.make "none"
let crossings = Array.init n_sites (fun _ -> Obs.Counter.create ())

let reset_counters () = Array.iter Obs.Counter.reset crossings

let hit s =
  Obs.Counter.incr crossings.(site_index s);
  (Atomic.get hook) s

let[@inline] point s = if Atomic.get active then hit s

let set_policy ?(name = "custom") = function
  | None ->
      Atomic.set active false;
      Atomic.set hook (fun _ -> ());
      Atomic.set installed_name "none"
  | Some h ->
      reset_counters ();
      Atomic.set installed_name name;
      Atomic.set hook h;
      Atomic.set active true

let with_policy ?name h f =
  set_policy ?name (Some h);
  Fun.protect ~finally:(fun () -> set_policy None) f

let enabled () = Atomic.get active
let policy_name () = Atomic.get installed_name

let points_crossed () =
  Array.fold_left (fun acc c -> acc + Obs.Counter.sum c) 0 crossings

let site_crossings () =
  List.map (fun s -> (site_name s, Obs.Counter.sum crossings.(site_index s))) all_sites

(* ------------------------------------------------------------------ *)
(* Per-domain PRNG state, shared by jittered backoff and delay policies.
   One generator per stripe (see Obs.Stripe): uncontended in the common
   case, merely correlated — never unsafe — if domain ids wrap. *)

let stripe_rngs seed =
  Array.init Obs.Stripe.count (fun i -> Rng.of_int_seed (seed + (i * 0x9E37)))

let[@inline] stripe_rng rngs = Array.unsafe_get rngs (Obs.Stripe.index ())

(* ------------------------------------------------------------------ *)

module Policy = struct
  let delays ?sites ?(prob_per_mille = 250) ?(max_spins = 400) ~seed () =
    if prob_per_mille < 0 || prob_per_mille > 1000 then
      invalid_arg "Chaos.Policy.delays: prob_per_mille must be in [0, 1000]";
    if max_spins < 1 then invalid_arg "Chaos.Policy.delays: max_spins must be >= 1";
    let wanted =
      match sites with
      | None -> fun _ -> true
      | Some l ->
          let mask =
            List.fold_left (fun m s -> m lor (1 lsl site_index s)) 0 l
          in
          fun s -> mask land (1 lsl site_index s) <> 0
    in
    let rngs = stripe_rngs seed in
    fun s ->
      if wanted s then begin
        let r = stripe_rng rngs in
        if Rng.int r 1000 < prob_per_mille then
          for _ = 1 to 1 + Rng.int r max_spins do
            Domain.cpu_relax ()
          done
      end
end

module Stall = struct
  (* State machine: Armed --capture--> Stalled --release--> Released.
     [remaining] counts the crossings to let pass before capturing; the
     arrival that fetches it at zero wins the capture CAS (there is at
     most one such arrival per armed stall, but the CAS keeps a
     concurrently released stall from re-capturing). *)
  let armed = 0
  and stalled_st = 1
  and released = 2

  type t = { at : site; remaining : int Atomic.t; state : int Atomic.t }

  let install ?(after = 0) at =
    if after < 0 then invalid_arg "Chaos.Stall.install: after must be >= 0";
    { at; remaining = Atomic.make after; state = Atomic.make armed }

  let hook t s =
    if s = t.at && Atomic.get t.state = armed then
      if Atomic.fetch_and_add t.remaining (-1) = 0 then
        if Atomic.compare_and_set t.state armed stalled_st then
          (* Captured: this domain now simulates a process descheduled
             mid-update.  Plain spin — the whole point is that it makes
             no further progress until released. *)
          while Atomic.get t.state = stalled_st do
            Domain.cpu_relax ()
          done

  let stalled t = Atomic.get t.state = stalled_st

  let release t = Atomic.set t.state released

  (* forward declaration dance avoided: Backoff is defined below, so use
     a local spin loop with the same shape for wait_stalled. *)
  let wait_stalled ?(timeout_s = 10.0) t =
    let deadline =
      Obs.Clock.now_ns () + int_of_float (timeout_s *. 1e9)
    in
    let rec go spins =
      if stalled t then true
      else if Obs.Clock.now_ns () > deadline then stalled t
      else begin
        for _ = 1 to spins do
          Domain.cpu_relax ()
        done;
        go (min (spins * 2) 4096)
      end
    in
    go 1
end

module Backoff = struct
  let on = Atomic.make false
  let enabled () = Atomic.get on
  let set_enabled b = Atomic.set on b

  type t = int

  let min_spins = 8
  let max_spins = 4096
  let init = min_spins
  let rngs = stripe_rngs 0x0ff5e7

  let wait cap =
    let r = stripe_rng rngs in
    let spins = (cap / 2) + Rng.int r ((cap / 2) + 1) in
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done;
    if cap >= max_spins then max_spins else cap * 2

  let wait_until ?(timeout_s = 10.0) pred =
    let deadline = Obs.Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
    let rec go cap =
      if pred () then true
      else if Obs.Clock.now_ns () > deadline then pred ()
      else go (wait cap)
    in
    go init

  (* Sleeping twin of [wait] for waits measured in milliseconds rather
     than cache misses: a network client backing off from an overloaded
     server must release the CPU, not spin on it.  The state is the same
     doubling [int] cap, reinterpreted as a duration scale, so the jitter
     and bounded-doubling behaviour match the spinning variant. *)
  let sleep ?(base_s = 0.001) ?(cap_s = 0.5) ?(floor_s = 0.0) cap =
    let r = stripe_rng rngs in
    let scale = float_of_int cap /. float_of_int min_spins in
    let full = Float.min cap_s (base_s *. scale) in
    (* Jitter in [full/2, full], never below the caller's floor (a
       server-provided retry-after hint). *)
    let jittered = (full /. 2.) +. (Rng.float r *. (full /. 2.)) in
    let d = Float.max floor_s jittered in
    if d > 0. then Unix.sleepf d;
    if cap >= max_spins then max_spins else cap * 2
end
