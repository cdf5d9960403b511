(** Fixed-capacity per-domain ring buffer of operation events.

    Post-mortem debugging aid for linearizability-test failures and the
    raw storage of the flight recorder ({!Perfetto}): each domain
    appends events (operation kind, key, outcome, retry count, monotonic
    timestamp — and, for attempt {e spans}, the attempt number, the
    retry cause / CAS site label and a duration) to its own ring with
    plain writes — no synchronization on the hot path — and [dump]
    stitches the rings back together in timestamp order once the run is
    quiescent.  With the default capacity of 1024 events per domain a
    failing schedule's last few thousand operations are always available
    without the tracing itself changing the schedule much.

    A domain's ring is created on its first event and found again
    through a domain-local key, so two live domains never share one.
    (A domain-id stripe, {!Stripe}, wraps once more than [Stripe.count]
    domains have been spawned; two writers of one ring would lose each
    other's events uncounted.)  Rings of finished domains stay
    registered, so their events survive into [dump].

    A full ring overwrites its oldest slot; each overwrite is counted in
    a per-ring [dropped] counter (plain single-writer int, like the ring
    itself) so loss is never silent: {!dropped} totals the overwrites
    and both {!to_json} and the benchmark drivers surface it. *)

type kind = Insert | Delete | Member | Replace | Custom of string

let kind_to_string = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Member -> "member"
  | Replace -> "replace"
  | Custom s -> s

type event = {
  kind : kind;
  key : int;
  ok : bool;
  retries : int;
  t_ns : int; (* Clock.now_ns at emission (span start for spans) *)
  domain : int; (* display track id: raw domain id, or a base-offset
                   track for connections / runtime-events rings *)
  attempt : int; (* attempt number within the operation; 0 for instants *)
  site : string; (* retry cause / CAS site label; "" for instants *)
  dur_ns : int; (* span duration; 0 marks an instant event *)
}

(* Track-id namespaces for the Perfetto export.  Plain domain tracks
   use the raw domain id; per-connection request-stage tracks and
   runtime-events (GC) tracks live at high offsets so they can never
   collide with a domain id. *)
let conn_track_base = 10_000
let runtime_track_base = 20_000

let is_span e = e.dur_ns > 0

type ring = {
  mutable next : int; (* slot for the next write *)
  mutable filled : int; (* number of valid slots, <= capacity *)
  mutable dropped : int; (* events overwritten after the ring filled *)
  buf : event array;
}

type t = {
  rings : ring list Atomic.t; (* every ring ever created, newest first *)
  mine : ring Domain.DLS.key; (* the calling domain's ring *)
  capacity : int;
}

let default_capacity = 1024

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  (* Round up to a power of two so the wrap is a mask. *)
  let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
  let capacity = pow2 1 in
  let dummy =
    {
      kind = Custom "none";
      key = 0;
      ok = false;
      retries = 0;
      t_ns = 0;
      domain = 0;
      attempt = 0;
      site = "";
      dur_ns = 0;
    }
  in
  let rings = Atomic.make [] in
  let mine =
    Domain.DLS.new_key (fun () ->
        let r =
          { next = 0; filled = 0; dropped = 0; buf = Array.make capacity dummy }
        in
        let rec register () =
          let l = Atomic.get rings in
          if not (Atomic.compare_and_set rings l (r :: l)) then register ()
        in
        register ();
        r)
  in
  { rings; mine; capacity }

let capacity t = t.capacity

(* The ring is selected by the *writing* domain, not by [e.domain]:
   the event's [domain] field is a display track id that collectors
   (e.g. the runtime-events domain) may set to another domain's track
   while still being the sole writer of their own ring. *)
let[@inline] push t (e : event) =
  let r = Domain.DLS.get t.mine in
  Array.unsafe_set r.buf r.next e;
  r.next <- (r.next + 1) land (t.capacity - 1);
  if r.filled < t.capacity then r.filled <- r.filled + 1
  else r.dropped <- r.dropped + 1

let emit t kind ~key ~ok ~retries =
  push t
    {
      kind;
      key;
      ok;
      retries;
      t_ns = Clock.now_ns ();
      domain = (Domain.self () :> int);
      attempt = 0;
      site = "";
      dur_ns = 0;
    }

(** [emit_span t kind ~key ~ok ~retries ~attempt ~site ~t0_ns] records
    one completed operation attempt as a closed span: the span starts at
    [t0_ns] (read by the caller when the attempt began) and ends now.
    Recording closed spans instead of separate begin/end events keeps
    the ring overwrite-safe: a span can be dropped whole but never end
    up half-matched. *)
let emit_span t kind ~key ~ok ~retries ~attempt ~site ~t0_ns =
  let dur = Clock.now_ns () - t0_ns in
  push t
    {
      kind;
      key;
      ok;
      retries;
      t_ns = t0_ns;
      domain = (Domain.self () :> int);
      attempt;
      site;
      dur_ns = (if dur < 1 then 1 else dur);
    }

(** [add_span t kind ~track ~key ~ok ~retries ~attempt ~site ~t0_ns
    ~dur_ns] records a closed span with an explicit display track and an
    explicit duration.  Used by collectors that learn both endpoints
    from elsewhere (runtime-events timestamps, request stage stamps)
    and by emitters whose display track is not their own domain id
    (per-connection tracks, GC tracks).  The event still lands in the
    {e writer's} ring, preserving the single-writer discipline. *)
let add_span t kind ~track ~key ~ok ~retries ~attempt ~site ~t0_ns ~dur_ns =
  push t
    {
      kind;
      key;
      ok;
      retries;
      t_ns = t0_ns;
      domain = track;
      attempt;
      site;
      dur_ns = (if dur_ns < 1 then 1 else dur_ns);
    }

(** Total events lost to ring overwrites since creation (or {!clear}). *)
let dropped t =
  List.fold_left (fun acc r -> acc + r.dropped) 0 (Atomic.get t.rings)

(** All retained events, oldest first (merged across domains by
    timestamp).  Quiescent use: concurrent emitters may tear the very
    newest slots of their own ring, never older ones. *)
let dump t =
  let per_ring r =
    if r.filled = 0 then []
    else
      let start =
        if r.filled < t.capacity then 0
        else r.next (* full ring: oldest slot is the next overwrite target *)
      in
      List.init r.filled (fun i ->
          r.buf.((start + i) land (t.capacity - 1)))
  in
  Atomic.get t.rings
  |> List.concat_map per_ring
  |> List.stable_sort (fun a b -> compare a.t_ns b.t_ns)

let clear t =
  List.iter
    (fun r ->
      r.next <- 0;
      r.filled <- 0;
      r.dropped <- 0)
    (Atomic.get t.rings)

let event_to_json e =
  let base =
    [
      ("t_ns", Json.Int e.t_ns);
      ("domain", Json.Int e.domain);
      ("op", Json.Str (kind_to_string e.kind));
      ("key", Json.Int e.key);
      ("ok", Json.Bool e.ok);
      ("retries", Json.Int e.retries);
    ]
  in
  Json.Obj
    (if is_span e then
       base
       @ [
           ("attempt", Json.Int e.attempt);
           ("site", Json.Str e.site);
           ("dur_ns", Json.Int e.dur_ns);
         ]
     else base)

let to_json t =
  Json.Obj
    [
      ("dropped", Json.Int (dropped t));
      ("events", Json.Arr (List.map event_to_json (dump t)));
    ]

let pp_event fmt e =
  if is_span e then
    Format.fprintf fmt "[%d] d%d %s(%d) attempt %d %s -> %b dur=%dns" e.t_ns
      e.domain (kind_to_string e.kind) e.key e.attempt e.site e.ok e.dur_ns
  else
    Format.fprintf fmt "[%d] d%d %s(%d) -> %b retries=%d" e.t_ns e.domain
      (kind_to_string e.kind) e.key e.ok e.retries

let pp fmt t =
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_event e) (dump t)

(* ------------------------------------------------------------------ *)
(* Global recorder: the flight-recorder sink the instrumented tries
   write attempt spans into.  Same hot-path discipline as the chaos
   sites: with no recorder installed an instrumented code path pays one
   [Atomic.get active] and an untaken branch; [recorder ()] is only
   consulted behind that gate. *)

let active = Atomic.make false
let current : t option Atomic.t = Atomic.make None

let set_recorder = function
  | None ->
      Atomic.set active false;
      Atomic.set current None
  | Some t ->
      Atomic.set current (Some t);
      Atomic.set active true

let recorder () = Atomic.get current
