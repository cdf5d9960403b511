(** patserve: a pipelined binary-protocol set server over any
    {!Dset_intf.CONCURRENT_SET_WITH_REPLACE}.

    The ROADMAP's north star is a system that serves heavy traffic, and
    a non-blocking trie earns its keep precisely when many clients hit
    it at once: this module puts the paper's structure behind a socket.
    [start] runs N worker domains sharing one listening socket; each
    worker drives its accepted connections with a select-based event
    loop — per-connection read buffering (the {!Protocol.Reader}
    defragmenter), opportunistic batched writes, and as many pipelined
    requests per read as the client managed to put on the wire.  All
    workers call straight into the same structure instance; the trie's
    lock-freedom is what makes that safe without a lock around the
    store.

    Observability and fault injection ride along: per-opcode striped
    counters and latency histograms ({!Metrics}, exported through
    [Harness.Live.set_extra_producer]), a flight-recorder span per
    request, and [Chaos] crossings at the four network-path sites
    (accept, read, write, decode) so the chaos policies can perturb the
    serving path exactly like they perturb the trie's CAS sites.

    Submodules: {!Protocol} (the wire format), {!Client} (a blocking
    pipelined client), {!Loadgen} (a multi-domain load generator:
    one connection loop per domain, closed or open pacing, latency
    timed from each request's due time), {!Loopback} (an adapter that makes a served set look
    like an ordinary [CONCURRENT_SET_WITH_REPLACE] again, for running
    generic tests over the network path). *)

module Protocol = Protocol
module Client = Client
module Loadgen = Loadgen

(* ------------------------------------------------------------------ *)
(* Per-opcode serving metrics.  Global rather than per-server — a
   process hosts one logical server; tests reset between runs.  Striped
   on the write path like every other hot-path counter in the repo. *)

module Metrics = struct
  let requests = Array.init Protocol.op_count (fun _ -> Obs.Counter.create ())
  let latency = Array.init Protocol.op_count (fun _ -> Obs.Histogram.create ())
  let accepted = Obs.Counter.create ()
  let op_errors = Obs.Counter.create ()
  let protocol_errors = Obs.Counter.create ()

  (* Overload-protection counters: connections shed at accept
     (BUSY-and-close at --max-conns), slow readers evicted at the hard
     buffer cap, BUSY replies of either kind, idle connections reaped,
     and connections closed on a write error (EPIPE/ECONNRESET from a
     peer that went away mid-reply). *)
  let shed = Obs.Counter.create ()
  let evicted_slow = Obs.Counter.create ()
  let busy_replies = Obs.Counter.create ()
  let idle_reaped = Obs.Counter.create ()
  let conn_errors = Obs.Counter.create ()

  (* Streaming-scan counters: pages served (one per SCAN/RANGE
     request), keys streamed inside them, and pages that exhausted the
     walk (complete flag set — the end of one logical scan). *)
  let scan_pages = Obs.Counter.create ()
  let scan_keys = Obs.Counter.create ()
  let scan_complete = Obs.Counter.create ()

  (* Buffered-output gauge: each worker publishes the total unflushed
     response bytes across its connections once per event-loop
     iteration; the exposition reports the sum.  Slots are registered
     once per worker (mutex) and written with one atomic store. *)
  let buffer_slots : int Atomic.t list ref = ref []
  let buffer_slots_mu = Mutex.create ()

  let register_buffer_slot () =
    let slot = Atomic.make 0 in
    Mutex.lock buffer_slots_mu;
    buffer_slots := slot :: !buffer_slots;
    Mutex.unlock buffer_slots_mu;
    slot

  let conn_buffer_bytes () =
    Mutex.lock buffer_slots_mu;
    let total =
      List.fold_left (fun acc a -> acc + Atomic.get a) 0 !buffer_slots
    in
    Mutex.unlock buffer_slots_mu;
    total

  (* Per-request latency decomposition (the "latency forensics" layer):
     queue wait (arrival -> decode start, which for pipelined frames
     includes time spent behind earlier frames of the same window),
     frame decode, trie op (incl. reply encode), durability barrier,
     reply write, and end-to-end total (arrival -> reply flushed).  The
     five stages telescope: their sum equals the total exactly, so
     per-request stage sums are <= any client-observed round trip. *)
  let stage_names = [| "queue"; "decode"; "trie"; "barrier"; "write"; "total" |]
  let stage_count = Array.length stage_names

  let stages =
    Array.init Protocol.op_count (fun _ ->
        Array.init stage_count (fun _ -> Obs.Histogram.create ()))

  let record_stages idx ~queue ~decode ~trie ~barrier ~write ~total =
    let h = stages.(idx) in
    Obs.Histogram.record h.(0) queue;
    Obs.Histogram.record h.(1) decode;
    Obs.Histogram.record h.(2) trie;
    Obs.Histogram.record h.(3) barrier;
    Obs.Histogram.record h.(4) write;
    Obs.Histogram.record h.(5) total

  let record idx dt =
    Obs.Counter.incr requests.(idx);
    Obs.Histogram.record latency.(idx) dt

  let reset () =
    Array.iter Obs.Counter.reset requests;
    Array.iter Obs.Histogram.reset latency;
    Array.iter (Array.iter Obs.Histogram.reset) stages;
    Obs.Counter.reset accepted;
    Obs.Counter.reset op_errors;
    Obs.Counter.reset protocol_errors;
    Obs.Counter.reset shed;
    Obs.Counter.reset evicted_slow;
    Obs.Counter.reset busy_replies;
    Obs.Counter.reset idle_reaped;
    Obs.Counter.reset conn_errors;
    Obs.Counter.reset scan_pages;
    Obs.Counter.reset scan_keys;
    Obs.Counter.reset scan_complete;
    Mutex.lock buffer_slots_mu;
    buffer_slots := [];
    Mutex.unlock buffer_slots_mu

  (** Cumulative counters as an alist (tests, JSON reports). *)
  let snapshot () =
    let per_op =
      Array.to_list
        (Array.mapi
           (fun i name -> (name, Obs.Counter.sum requests.(i)))
           Protocol.op_names)
    in
    per_op
    @ [
        ("accepted", Obs.Counter.sum accepted);
        ("op_errors", Obs.Counter.sum op_errors);
        ("protocol_errors", Obs.Counter.sum protocol_errors);
        ("shed", Obs.Counter.sum shed);
        ("evicted_slow", Obs.Counter.sum evicted_slow);
        ("busy_replies", Obs.Counter.sum busy_replies);
        ("idle_reaped", Obs.Counter.sum idle_reaped);
        ("conn_errors", Obs.Counter.sum conn_errors);
        ("conn_buffer_bytes", conn_buffer_bytes ());
        ("scan_pages", Obs.Counter.sum scan_pages);
        ("scan_keys", Obs.Counter.sum scan_keys);
        ("scan_complete", Obs.Counter.sum scan_complete);
      ]

  (** Append the patserve metric families to an exposition; the shape
      [Harness.Live.set_extra_producer] expects. *)
  let emit b =
    let open Obs.Prometheus in
    Array.iteri
      (fun i name ->
        counter b ~name:"patserve_requests_total"
          ~help:"Requests served, by opcode" ~labels:[ ("op", name) ]
          (float_of_int (Obs.Counter.sum requests.(i))))
      Protocol.op_names;
    Array.iteri
      (fun i name ->
        histogram_summary b ~name:"patserve_request_latency_ns"
          ~help:"Server-side request handling latency, by opcode"
          ~labels:[ ("op", name) ]
          (Obs.Histogram.snapshot latency.(i)))
      Protocol.op_names;
    counter b ~name:"patserve_connections_accepted_total"
      ~help:"Connections accepted"
      (float_of_int (Obs.Counter.sum accepted));
    counter b ~name:"patserve_op_errors_total"
      ~help:"Requests that failed at the application level"
      (float_of_int (Obs.Counter.sum op_errors));
    counter b ~name:"patserve_protocol_errors_total"
      ~help:"Connections torn down for protocol violations"
      (float_of_int (Obs.Counter.sum protocol_errors));
    counter b ~name:"patserve_shed_total"
      ~help:"Connections shed at accept time (BUSY reply at --max-conns)"
      (float_of_int (Obs.Counter.sum shed));
    counter b ~name:"patserve_evicted_slow_total"
      ~help:"Slow-reading connections evicted at the hard output-buffer cap"
      (float_of_int (Obs.Counter.sum evicted_slow));
    counter b ~name:"patserve_busy_replies_total"
      ~help:"BUSY replies sent (accept-time shed + queue-deadline declines)"
      (float_of_int (Obs.Counter.sum busy_replies));
    counter b ~name:"patserve_idle_reaped_total"
      ~help:"Idle connections closed by the reaper"
      (float_of_int (Obs.Counter.sum idle_reaped));
    counter b ~name:"patserve_scan_pages_total"
      ~help:"SCAN/RANGE pages served"
      (float_of_int (Obs.Counter.sum scan_pages));
    counter b ~name:"patserve_scan_keys_total"
      ~help:"Keys streamed inside SCAN/RANGE pages"
      (float_of_int (Obs.Counter.sum scan_keys));
    counter b ~name:"patserve_scan_complete_total"
      ~help:"SCAN/RANGE pages that exhausted the walk (complete flag)"
      (float_of_int (Obs.Counter.sum scan_complete));
    counter b ~name:"patserve_conn_errors_total"
      ~help:
        "Connections closed on a read/write error (EPIPE, ECONNRESET, ...)"
      (float_of_int (Obs.Counter.sum conn_errors));
    counter b ~name:"patserve_accept_errors_total"
      ~help:
        "Metrics-listener select/accept errors other than EAGAIN, \
         EWOULDBLOCK, EINTR and ECONNABORTED"
      (float_of_int (Obs.Counter.sum Obs.Net.accept_errors));
    gauge b ~name:"patserve_conn_buffer_bytes"
      ~help:"Buffered (unflushed) response bytes across all connections"
      (float_of_int (conn_buffer_bytes ()));
    Array.iteri
      (fun i op ->
        Array.iteri
          (fun s stage ->
            histogram_summary b ~name:"patserve_request_stage_ns"
              ~help:
                "Per-request latency decomposition, nanoseconds, by opcode \
                 and stage"
              ~labels:[ ("op", op); ("stage", stage) ]
              (Obs.Histogram.snapshot stages.(i).(s)))
          stage_names)
      Protocol.op_names
end

(* The process-global slowest-K request table, fed by every worker and
   dumped by `patbench serve` and the /debug/slowlog endpoint. *)
let slowlog = Obs.Slowlog.create ~k:64 ()

(* ------------------------------------------------------------------ *)
(* The served operations, as closures (same pattern as Harness.ops) so
   the server is agnostic to the module behind them. *)

type ops = {
  insert : int -> bool;
  delete : int -> bool;
  member : int -> bool;
  replace : remove:int -> add:int -> bool;
  size : unit -> int;
  snapshot : unit -> Dset_intf.view option;
      (* atomic frozen view for SCAN/RANGE; [None] = structure does not
         support snapshots and scans answer ERROR *)
  scan_cut : unit -> int;
      (* newest assigned WAL sequence number, stamped into every PAGE
         as the replica-bootstrap subscription point; -1 without a WAL.
         Read BEFORE the page's snapshot so every record <= cut is
         already inside the view (mutations apply before they log). *)
}

let ops_of_set (type a)
    (module S : Dset_intf.CONCURRENT_SET_WITH_REPLACE with type t = a)
    (t : a) =
  {
    insert = S.insert t;
    delete = S.delete t;
    member = S.member t;
    replace = (fun ~remove ~add -> S.replace t ~remove ~add);
    size = (fun () -> S.size t);
    snapshot = (fun () -> S.snapshot t);
    scan_cut = (fun () -> -1);
  }

(* ------------------------------------------------------------------ *)
(* Request execution *)

exception Page_full

(* One SCAN/RANGE page: freeze a fresh snapshot, walk it from just past
   the cursor, stop after [count] keys.  The cursor is stateless (the
   last key returned), so the server holds nothing between pages; each
   page is an exact frozen version on its own, and a multi-page scan is
   a sequence of per-page linearization points stitched by the cursor
   (the staleness contract documented in protocol.mli). *)
let exec_scan ops ~lo ~hi ~cursor ~count =
  let cut = ops.scan_cut () in
  match ops.snapshot () with
  | None -> Protocol.Error "scan is not supported by the served structure"
  | Some v ->
      let lo = max lo (cursor + 1) in
      let acc = ref [] and n = ref 0 and more = ref false in
      (try
         v.Dset_intf.v_fold_range ~lo ~hi ~init:() ~f:(fun () k ->
             if !n = count then begin
               more := true;
               raise_notrace Page_full
             end;
             acc := k :: !acc;
             incr n)
       with Page_full -> ());
      let next_cursor = match !acc with [] -> cursor | k :: _ -> k in
      let complete = not !more in
      Obs.Counter.incr Metrics.scan_pages;
      Obs.Counter.add Metrics.scan_keys !n;
      if complete then Obs.Counter.incr Metrics.scan_complete;
      Protocol.Page
        { cut; next_cursor; complete; keys = List.rev !acc }

let rec exec ops op =
  match op with
  | Protocol.Insert k -> Protocol.Bool (ops.insert k)
  | Protocol.Delete k -> Protocol.Bool (ops.delete k)
  | Protocol.Member k -> Protocol.Bool (ops.member k)
  | Protocol.Replace { remove; add } -> Protocol.Bool (ops.replace ~remove ~add)
  | Protocol.Size -> Protocol.Count (ops.size ())
  | Protocol.Batch l ->
      Protocol.Many
        (List.map
           (fun o ->
             match exec ops o with
             | Protocol.Bool b -> b
             | _ ->
                 (* The decoder rejects SIZE/BATCH inside BATCH. *)
                 assert false)
           l)
  | Protocol.Scan { cursor; count } ->
      exec_scan ops ~lo:0 ~hi:max_int ~cursor ~count
  | Protocol.Range { lo; hi; cursor; count } ->
      if lo > hi then Protocol.Error "RANGE lo greater than hi"
      else exec_scan ops ~lo ~hi ~cursor ~count
  | Protocol.Subscribe _ | Protocol.Logack _ | Protocol.Hashcheck _
  | Protocol.Promote ->
      (* Intercepted in [handle_request] when a replication context is
         installed; reaching exec means there is none. *)
      Protocol.Error "replication is not enabled on this server"

let trace_kind = function
  | Protocol.Insert _ -> Obs.Trace.Insert
  | Protocol.Delete _ -> Obs.Trace.Delete
  | Protocol.Member _ -> Obs.Trace.Member
  | Protocol.Replace _ -> Obs.Trace.Replace
  | Protocol.Size -> Obs.Trace.Custom "size"
  | Protocol.Batch _ -> Obs.Trace.Custom "batch"
  | Protocol.Subscribe _ -> Obs.Trace.Custom "subscribe"
  | Protocol.Logack _ -> Obs.Trace.Custom "logack"
  | Protocol.Hashcheck _ -> Obs.Trace.Custom "hashcheck"
  | Protocol.Promote -> Obs.Trace.Custom "promote"
  | Protocol.Scan _ -> Obs.Trace.Custom "scan"
  | Protocol.Range _ -> Obs.Trace.Custom "range"

let trace_key = function
  | Protocol.Insert k | Protocol.Delete k | Protocol.Member k -> k
  | Protocol.Replace { remove; _ } -> remove
  | Protocol.Scan { cursor; _ } | Protocol.Range { cursor; _ } -> cursor
  | Protocol.Size | Protocol.Batch _ | Protocol.Subscribe _
  | Protocol.Logack _ | Protocol.Hashcheck _ | Protocol.Promote ->
      0

(* ------------------------------------------------------------------ *)
(* Overload-protection limits.

   The trie under the server is non-blocking — no slow domain can wedge
   another — but the socket layer can lose that property on its own: a
   client that stops reading grows an unbounded output buffer, and an
   unbounded accept queue lets offered load overwhelm every connection
   at once.  These limits make degradation deliberate: stall slow
   readers (soft cap), evict them (hard cap), shed connections beyond
   [max_conns] with a BUSY reply, reap idle connections, and decline
   requests whose queue wait already blew the deadline. *)

type limits = {
  max_conns : int option;
      (** accept-time admission limit across all workers; beyond it new
          connections get one BUSY frame (retry-after hint) and are
          closed.  [None] = unlimited. *)
  soft_buffer_bytes : int;
      (** per-connection output-buffer soft cap: above it the fd is no
          longer selected for read, so the client's pipelining stalls
          instead of growing the buffer. *)
  hard_buffer_bytes : int;
      (** per-connection output-buffer hard cap: above it the
          connection is evicted (counted, logged close).  Must be
          [>= soft_buffer_bytes]. *)
  idle_timeout_s : float option;
      (** reap connections with no traffic and no pending output for
          this long.  [None] = never. *)
  queue_deadline_ns : int option;
      (** per-request queue-stage budget: a request that waited longer
          than this behind earlier frames of its pipeline window is
          answered BUSY instead of executed.  [None] = no deadline. *)
  retry_after_ms : int;  (** hint carried in BUSY replies *)
  overload_hold_s : float;
      (** how long after the last shed/eviction/BUSY the server keeps
          reporting overload to the watchdog — the hysteresis that
          makes /healthz's [degraded:overload] readable by a poller *)
}

let default_limits =
  {
    max_conns = None;
    soft_buffer_bytes = 256 * 1024;
    hard_buffer_bytes = 4 * 1024 * 1024;
    idle_timeout_s = None;
    queue_deadline_ns = None;
    retry_after_ms = 50;
    overload_hold_s = 2.0;
  }

(* ------------------------------------------------------------------ *)
(* Replication hooks.

   The server itself knows nothing about WALs or followers; a
   replication layer (lib/replica) plugs in through these closures.
   [subscribe] is special: it takes {e ownership} of the connection's
   file descriptor — the server stops tracking the fd entirely and the
   replication streamer (its own domain, blocking I/O) answers the
   SUBSCRIBE request and pushes LOGRECS / reads LOGACKs from then on.
   Pumping the stream from the select loop would deadlock under
   sync-ack replication: the worker blocked in the window barrier
   waiting for a follower ack can be the very worker that owns the
   follower's subscription connection. *)

type repl = {
  subscribe : fd:Unix.file_descr -> seq:int -> from_seq:int -> unit;
      (** Take ownership of [fd] (blocking mode, nothing buffered in
          either direction) and serve the log stream for a follower
          positioned at [from_seq].  Must answer the SUBSCRIBE request
          (tag [seq]) itself — TRUE, or ERROR when [from_seq] is no
          longer retained — and must eventually close the fd. *)
  hashcheck : prefix:int -> len:int -> (int * int * int, string) result;
      (** Anti-entropy: [(node, left, right)] hashes of the subtree at
          the [len]-bit key prefix [prefix]. *)
  promote : unit -> (unit, string) result;
      (** Seal the local WAL and flip this node to primary (idempotent
          on a node that is already primary). *)
}

(* Per-request admission verdict from the replication role: a follower
   refuses mutations outright (read-only replica) and answers BUSY on
   reads while its applied position lags the staleness bound. *)
type gate_verdict =
  [ `Proceed | `Busy_gate of int (* retry_after_ms *) | `Refuse of string ]

(* State shared by all workers of one server: the admission counter,
   the limits, and the overload stamp behind the watchdog gauge. *)
type shared = {
  limits : limits;
  live : int Atomic.t; (* connections currently registered *)
  overload_ns : int Atomic.t; (* last shed/eviction/BUSY stamp *)
  repl : repl option;
  gate : (Protocol.op -> gate_verdict) option;
}

let note_overload sh = Atomic.set sh.overload_ns (Obs.Clock.now_ns ())

let overloaded sh =
  let last = Atomic.get sh.overload_ns in
  last > 0
  && Obs.Clock.now_ns () - last
     < int_of_float (sh.limits.overload_hold_s *. 1e9)

(* ------------------------------------------------------------------ *)
(* Connection state and the per-worker event loop *)

(* One executed-but-unflushed request: the stage stamps collected while
   processing its window, finalized (histograms, slowlog, trace) once
   the window's barrier and flush have run. *)
type pending = {
  p_op : int; (* opcode index *)
  p_kind : Obs.Trace.kind;
  p_key : int;
  p_seq : int;
  p_arrival : int; (* read-batch arrival stamp *)
  p_d0 : int; (* decode start *)
  p_d1 : int; (* decode done / trie op start *)
  p_d2 : int; (* reply encoded *)
}

type conn = {
  fd : Unix.file_descr;
  id : int; (* process-unique, names the Perfetto conn track *)
  reader : Protocol.Reader.t;
  out : Buffer.t;
  mutable out_off : int; (* bytes of [out] already on the wire *)
  mutable closing : bool; (* EOF seen or protocol error sent *)
  mutable window : pending list; (* newest first; emptied on finalize *)
  mutable last_ns : int; (* last inbound traffic, for the idle reaper *)
  mutable handoff : (int * int) option;
      (* a decoded SUBSCRIBE (seq, from_seq) awaiting fd handoff to the
         replication streamer — set in handle_request, consumed by
         [maybe_handoff] once the pre-subscribe output is flushed *)
}

let next_conn_id = Atomic.make 0

let handle_request sh ops c ~arrival ~d0 ~d1 { Protocol.seq; op } =
  let idx = Protocol.op_index op in
  let op_error msg =
    Obs.Counter.incr Metrics.op_errors;
    Protocol.Error msg
  in
  let result =
    match (op, sh.repl) with
    | Protocol.Subscribe { from_seq }, Some _ ->
        (* The streamer answers this request after the handoff; nothing
           is encoded here.  [maybe_handoff] completes the transfer once
           the frames before this one have been flushed. *)
        c.handoff <- Some (seq, from_seq);
        Protocol.Bool true
    | Protocol.Hashcheck { prefix; len }, Some r -> (
        match r.hashcheck ~prefix ~len with
        | Result.Ok (node, left, right) -> Protocol.Hashes { node; left; right }
        | Result.Error msg -> op_error msg
        | exception e -> op_error (Printexc.to_string e))
    | Protocol.Promote, Some r -> (
        match r.promote () with
        | Result.Ok () -> Protocol.Bool true
        | Result.Error msg -> op_error msg
        | exception e -> op_error (Printexc.to_string e))
    | Protocol.Logack _, Some _ ->
        op_error "LOGACK is only valid on a subscription stream"
    | _ -> (
        match match sh.gate with None -> `Proceed | Some g -> g op with
        | `Busy_gate retry_after_ms ->
            (* Staleness-bound decline on a lagging follower: the read
               was not executed; retrying (here or at the primary) is
               safe.  Counted with the other BUSY replies but not
               stamped as overload — the watchdog's [repl_lag] gauge is
               the signal for this condition. *)
            Obs.Counter.incr Metrics.busy_replies;
            Protocol.Busy { retry_after_ms }
        | `Refuse msg -> op_error msg
        | `Proceed -> (
            (* An operation raising (key outside the structure's
               universe, a buggy served module) must answer this
               request, not kill the worker domain serving every other
               connection. *)
            match exec ops op with
            | r -> r
            | exception e -> op_error (Printexc.to_string e)))
  in
  match c.handoff with
  | Some _ ->
      (* No response encoded and no window entry: the subscription
         streamer owns the reply from here on. *)
      ignore (result : Protocol.result_)
  | None ->
  let dt = Obs.Clock.now_ns () - d1 in
  Metrics.record idx dt;
  Harness.Live.op dt;
  (match Obs.Trace.recorder () with
  | Some tr ->
      let ok = match result with Protocol.Error _ -> false | _ -> true in
      Obs.Trace.emit_span tr (trace_kind op) ~key:(trace_key op) ~ok ~retries:0
        ~attempt:1 ~site:"serve" ~t0_ns:d1
  | None -> ());
  Protocol.encode_response c.out { Protocol.seq; result };
  c.window <-
    {
      p_op = idx;
      p_kind = trace_kind op;
      p_key = trace_key op;
      p_seq = seq;
      p_arrival = arrival;
      p_d0 = d0;
      p_d1 = d1;
      p_d2 = Obs.Clock.now_ns ();
    }
    :: c.window

let pending c = Buffer.length c.out - c.out_off

let force_close sh conns c =
  if Hashtbl.mem conns c.fd then begin
    Hashtbl.remove conns c.fd;
    Atomic.decr sh.live
  end;
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ());
  Obs.Net.close_noerr c.fd

(* Flush as much buffered output as the socket accepts; true while the
   connection is still usable.  The pending bytes are blitted into the
   worker's [scratch], a chunk at a time, and written from there, so a
   flush copies only what it sends.  A write error (EPIPE from a peer
   that closed mid-reply, ECONNRESET, ...) closes only this connection —
   with SIGPIPE ignored at [start], a vanished client can never take
   down the worker serving everyone else. *)
let flush_out sh conns scratch c =
  let rec go () =
    let n = min (pending c) (Bytes.length scratch) in
    Buffer.blit c.out c.out_off scratch 0 n;
    match Unix.write c.fd scratch 0 n with
    | written ->
        c.out_off <- c.out_off + written;
        if pending c = 0 then begin
          Buffer.clear c.out;
          c.out_off <- 0;
          true
        end
        else if written = n then go ()
        else true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        true
    | exception Unix.Unix_error (_, _, _) ->
        Obs.Counter.incr Metrics.conn_errors;
        force_close sh conns c;
        false
  in
  if pending c = 0 then true
  else begin
    Chaos.point Chaos.Net_write;
    go ()
  end

(* Hard-cap eviction: a connection whose unflushed output is still
   above the hard cap after a flush attempt belongs to a reader too
   slow to keep (or one that stopped reading entirely).  Counted and
   logged — a silent eviction would look like a server bug from the
   client side. *)
let check_evict sh conns c =
  if Hashtbl.mem conns c.fd && pending c > sh.limits.hard_buffer_bytes then begin
    Obs.Counter.incr Metrics.evicted_slow;
    note_overload sh;
    Printf.eprintf
      "patserve: evicting slow reader conn-%d (%d bytes buffered > hard cap \
       %d)\n\
       %!"
      c.id (pending c) sh.limits.hard_buffer_bytes;
    force_close sh conns c
  end

let protocol_failure c msg =
  Obs.Counter.incr Metrics.protocol_errors;
  Protocol.encode_response c.out { Protocol.seq = 0; result = Protocol.Error msg };
  c.closing <- true

(* Decode and execute every complete frame buffered on [c] — this inner
   loop is where pipelining pays: one read syscall can carry a whole
   window of requests, answered with one write.  [arrival] is the read
   stamp shared by the window; the per-frame decode stamps bracket
   [next_payload] + [decode_request].

   Two overload gates ride on the loop: decoding pauses once the
   connection's unflushed output crosses the hard buffer cap (leftover
   frames stay in the reader and are resumed by the event loop once the
   client drains — or the connection is evicted), and a request whose
   queue wait already exceeded the deadline is answered BUSY instead of
   executed: the stage stamps the forensics layer collects anyway make
   the admission decision a single subtraction. *)
let process_frames sh ops c ~arrival =
  let rec go () =
    if
      (not c.closing)
      && c.handoff = None
      && pending c <= sh.limits.hard_buffer_bytes
    then begin
      let d0 = Obs.Clock.now_ns () in
      match Protocol.Reader.next_payload c.reader with
      | `None -> ()
      | `Bad msg -> protocol_failure c msg
      | `Payload (buf, off, len) -> (
          Chaos.point Chaos.Net_decode;
          match Protocol.decode_request buf ~off ~len with
          | Result.Error msg -> protocol_failure c msg
          | Result.Ok req ->
              (match sh.limits.queue_deadline_ns with
              | Some budget when d0 - arrival > budget ->
                  Obs.Counter.incr Metrics.busy_replies;
                  note_overload sh;
                  Protocol.encode_response c.out
                    {
                      Protocol.seq = req.Protocol.seq;
                      result =
                        Protocol.Busy
                          { retry_after_ms = sh.limits.retry_after_ms };
                    }
              | _ ->
                  let d1 = Obs.Clock.now_ns () in
                  handle_request sh ops c ~arrival ~d0 ~d1 req);
              go ())
    end
  in
  go ()

(* Close out a window's stage accounting once its barrier and flush
   stamps are known: per-opcode stage histograms, slowlog admission,
   and — when the flight recorder is live — stage spans on the
   connection's own Perfetto track.  The barrier and write stages are
   per-window (one group commit, one flush cover all its requests) and
   are attributed to every request they gated. *)
let finalize_window c ~b0 ~b1 ~w1 =
  match c.window with
  | [] -> ()
  | entries ->
      c.window <- [];
      let barrier_ns = b1 - b0 and write_ns = w1 - b1 in
      let tr = Obs.Trace.recorder () in
      let track = Obs.Trace.conn_track_base + (c.id mod 10_000) in
      (match tr with
      | Some tr ->
          let span kind ~t0 ~dur ~site =
            Obs.Trace.add_span tr kind ~track ~key:0 ~ok:true ~retries:0
              ~attempt:0 ~site ~t0_ns:t0 ~dur_ns:dur
          in
          span (Obs.Trace.Custom "barrier") ~t0:b0 ~dur:barrier_ns
            ~site:"stage:barrier";
          span (Obs.Trace.Custom "write") ~t0:b1 ~dur:write_ns
            ~site:"stage:write"
      | None -> ());
      List.iter
        (fun p ->
          let queue = p.p_d0 - p.p_arrival in
          let decode = p.p_d1 - p.p_d0 in
          let trie = p.p_d2 - p.p_d1 in
          let total = w1 - p.p_arrival in
          Metrics.record_stages p.p_op ~queue ~decode ~trie ~barrier:barrier_ns
            ~write:write_ns ~total;
          if total > Obs.Slowlog.admission_floor slowlog then
            Obs.Slowlog.note slowlog
              {
                Obs.Slowlog.op = Protocol.op_names.(p.p_op);
                key = p.p_key;
                conn = c.id;
                seq = p.p_seq;
                start_ns = p.p_arrival;
                total_ns = total;
                stages =
                  [
                    ("queue", queue); ("decode", decode); ("trie", trie);
                    ("barrier", barrier_ns); ("write", write_ns);
                  ];
              };
          match tr with
          | Some tr ->
              let span kind ~key ~t0 ~dur ~site =
                Obs.Trace.add_span tr kind ~track ~key ~ok:true ~retries:0
                  ~attempt:0 ~site ~t0_ns:t0 ~dur_ns:dur
              in
              span p.p_kind ~key:p.p_key ~t0:p.p_arrival ~dur:total
                ~site:"request";
              span (Obs.Trace.Custom "queue") ~key:0 ~t0:p.p_arrival ~dur:queue
                ~site:"stage:queue";
              span (Obs.Trace.Custom "decode") ~key:0 ~t0:p.p_d0 ~dur:decode
                ~site:"stage:decode";
              span (Obs.Trace.Custom "trie") ~key:p.p_key ~t0:p.p_d1 ~dur:trie
                ~site:"stage:trie"
          | None -> ())
        (List.rev entries)

(* Complete a pending SUBSCRIBE handoff: flush everything the server
   still owes on the socket (responses to frames pipelined before the
   SUBSCRIBE), deregister the fd without closing it, restore blocking
   mode, and pass ownership to the replication streamer.  A socket that
   cannot be drained here (stalled peer mid-subscribe) is torn down
   instead — handing off buffered bytes would interleave the streamer's
   frames into half-written ones. *)
let maybe_handoff sh conns scratch c =
  match c.handoff with
  | None -> ()
  | Some (seq, from_seq) ->
      c.handoff <- None;
      if Hashtbl.mem conns c.fd then
        if flush_out sh conns scratch c then begin
          if pending c > 0 then begin
            Obs.Counter.incr Metrics.conn_errors;
            force_close sh conns c
          end
          else begin
            Hashtbl.remove conns c.fd;
            Atomic.decr sh.live;
            (try Unix.clear_nonblock c.fd
             with Unix.Unix_error (_, _, _) -> ());
            match sh.repl with
            | Some r -> r.subscribe ~fd:c.fd ~seq ~from_seq
            | None ->
                (* handle_request only sets handoff when repl is on *)
                Obs.Net.close_noerr c.fd
          end
        end

(* [barrier] runs between executing a window of pipelined requests and
   flushing their responses: the durability layer commits the window's
   log records there (one write, plus one fsync in sync mode) before
   any of its acks leave, so one commit covers the whole window rather
   than each request.  Responses already
   buffered from earlier windows re-flushed by the select loop passed
   their barrier when they were produced. *)
let finish_window sh barrier conns scratch c =
  let b0 = Obs.Clock.now_ns () in
  barrier ();
  let b1 = Obs.Clock.now_ns () in
  ignore (flush_out sh conns scratch c);
  let w1 = Obs.Clock.now_ns () in
  finalize_window c ~b0 ~b1 ~w1;
  check_evict sh conns c

let handle_read sh ops barrier conns scratch c =
  Chaos.point Chaos.Net_read;
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 ->
      (* Orderly EOF: answer whatever complete frames are already
         buffered, flush, then close. *)
      process_frames sh ops c ~arrival:(Obs.Clock.now_ns ());
      c.closing <- true;
      finish_window sh barrier conns scratch c
  | n ->
      let arrival = Obs.Clock.now_ns () in
      c.last_ns <- arrival;
      Protocol.Reader.feed c.reader scratch n;
      process_frames sh ops c ~arrival;
      finish_window sh barrier conns scratch c;
      maybe_handoff sh conns scratch c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (_, _, _) ->
      Obs.Counter.incr Metrics.conn_errors;
      force_close sh conns c

(* Frames left in the reader by the hard-cap decode gate: once output
   is back under that same cap, pick the window back up without waiting
   for new bytes on the wire.  Resuming at the gate that parked them
   leaves no dead band between the caps: a connection with parked frames
   either decodes them or, if its peer has stopped reading, grows its
   output past the hard cap and is evicted.  (Gating here at the soft
   cap would strand output between the two caps, where reads stop, the
   frames stay parked and nothing ever evicts.) *)
let resume_buffered sh ops barrier conns scratch c =
  if
    (not c.closing)
    && pending c <= sh.limits.hard_buffer_bytes
    && Protocol.Reader.buffered c.reader > 4
  then begin
    let arrival = Obs.Clock.now_ns () in
    process_frames sh ops c ~arrival;
    if c.window <> [] then finish_window sh barrier conns scratch c;
    maybe_handoff sh conns scratch c
  end

(* One BUSY frame (retry-after hint), then close: the admission-control
   shed path for a connection beyond --max-conns.  Best-effort — if
   even the 13-byte write can't be afforded the close alone must do. *)
let shed_connection sh fd =
  Obs.Counter.incr Metrics.shed;
  Obs.Counter.incr Metrics.busy_replies;
  note_overload sh;
  let b = Buffer.create 16 in
  Protocol.encode_response b
    {
      Protocol.seq = 0;
      result = Protocol.Busy { retry_after_ms = sh.limits.retry_after_ms };
    };
  let bytes = Buffer.to_bytes b in
  (try ignore (Unix.write fd bytes 0 (Bytes.length bytes))
   with Unix.Unix_error (_, _, _) -> ());
  Obs.Net.close_noerr fd

let accept_new sh conns lsock =
  match Unix.accept lsock with
  | fd, _ ->
      Chaos.point Chaos.Net_accept;
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error (_, _, _) -> ());
      let admitted =
        match sh.limits.max_conns with
        | None ->
            Atomic.incr sh.live;
            true
        | Some m ->
            (* fetch_and_add makes the check exact across workers racing
               on the shared listening socket: the loser decrements and
               sheds instead of sneaking past the limit. *)
            if Atomic.fetch_and_add sh.live 1 >= m then begin
              Atomic.decr sh.live;
              false
            end
            else true
      in
      if not admitted then shed_connection sh fd
      else begin
        Obs.Counter.incr Metrics.accepted;
        Hashtbl.replace conns fd
          {
            fd;
            id = Atomic.fetch_and_add next_conn_id 1;
            reader = Protocol.Reader.create ();
            out = Buffer.create 4096;
            out_off = 0;
            closing = false;
            window = [];
            last_ns = Obs.Clock.now_ns ();
            handoff = None;
          }
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (_, _, _) -> ()

let worker_loop sh ops barrier drain_s watchdog ~stopping lsock =
  (* Idempotent across workers; guarantees accept never blocks the
     event loop even in a single-worker configuration. *)
  Unix.set_nonblock lsock;
  (* The watchdog heartbeat is the event-loop iteration age: beaten
     once per select iteration, so a worker wedged in a syscall (or a
     chaos stall) stops beating and the verdict names it. *)
  let beat =
    match watchdog with
    | Some wd ->
        Obs.Watchdog.heartbeat wd
          ~name:(Printf.sprintf "worker-%d" (Domain.self () :> int))
    | None -> fun () -> ()
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let scratch = Bytes.create 65536 in
  let buffer_slot = Metrics.register_buffer_slot () in
  let drain_deadline = ref None in
  (* Completed select passes since the drain began; idle connections
     are only cut from the second pass on, so bytes a client managed to
     send just before [stop] still get one full select round to show up
     readable and be answered. *)
  let drain_iters = ref 0 in
  let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  let rec loop () =
    beat ();
    let stop = stopping () in
    (match (!drain_deadline, stop) with
    | None, true ->
        (* Graceful drain: stop accepting, keep serving live
           connections for up to [drain_s], then cut them off. *)
        drain_deadline :=
          Some (Unix.gettimeofday () +. Atomic.get drain_s)
    | _ -> ());
    let expired =
      match !drain_deadline with
      | Some d -> Hashtbl.length conns = 0 || Unix.gettimeofday () > d
      | None -> false
    in
    if expired then begin
      List.iter (force_close sh conns) (all_conns ());
      Atomic.set buffer_slot 0
    end
    else begin
      (* Idle reaper: no inbound traffic, nothing owed, nothing half
         read — a connection costing a select slot for free. *)
      (match sh.limits.idle_timeout_s with
      | Some t when not stop ->
          let cutoff = Obs.Clock.now_ns () - int_of_float (t *. 1e9) in
          List.iter
            (fun c ->
              if
                (not c.closing)
                && pending c = 0
                && Protocol.Reader.buffered c.reader = 0
                && c.last_ns < cutoff
              then begin
                Obs.Counter.incr Metrics.idle_reaped;
                force_close sh conns c
              end)
            (all_conns ())
      | _ -> ());
      let cs = all_conns () in
      Atomic.set buffer_slot (List.fold_left (fun a c -> a + pending c) 0 cs);
      let rds =
        (if stop then [] else [ lsock ])
        @ List.filter_map
            (fun c ->
              (* Soft-cap backpressure: a connection owing more output
                 than the soft cap is not selected for read, so its
                 pipelining stalls at the TCP window instead of growing
                 the buffer toward the hard cap. *)
              if c.closing || pending c > sh.limits.soft_buffer_bytes then None
              else Some c.fd)
            cs
      in
      let wrs = List.filter_map (fun c -> if pending c > 0 then Some c.fd else None) cs in
      (match Unix.select rds wrs [] 0.1 with
      | rd, wr, _ ->
          if (not stop) && List.memq lsock rd then accept_new sh conns lsock;
          List.iter
            (fun fd ->
              if fd != lsock then
                match Hashtbl.find_opt conns fd with
                | Some c -> handle_read sh ops barrier conns scratch c
                | None -> ())
            rd;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c ->
                  ignore (flush_out sh conns scratch c);
                  check_evict sh conns c
              | None -> ())
            wr;
          (* Frames parked behind the hard-cap decode gate resume once
             the flushes above drained the buffer back under that
             cap. *)
          List.iter
            (fun c ->
              if Hashtbl.mem conns c.fd then
                resume_buffered sh ops barrier conns scratch c)
            cs;
          (* Reap connections that have said goodbye and been fully
             answered. *)
          List.iter
            (fun c ->
              if c.closing && pending c = 0 && Hashtbl.mem conns c.fd then
                force_close sh conns c)
            (all_conns ());
          (* Drain shortcut: once every connection with buffered input
             has had a select round, anything owing nothing and saying
             nothing is idle — close it now rather than sitting out the
             rest of [drain_s]. *)
          if stop then begin
            if !drain_iters >= 1 then
              List.iter
                (fun c ->
                  if
                    Hashtbl.mem conns c.fd
                    && pending c = 0
                    && Protocol.Reader.buffered c.reader = 0
                    && not (List.memq c.fd rd)
                  then force_close sh conns c)
                (all_conns ());
            incr drain_iters
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

type t = { net : Obs.Net.t; drain_s : float Atomic.t; shared : shared }

(** [start ops] binds [addr:port] ([port = 0] for ephemeral; see
    {!port}) and serves on [domains] worker domains.  All workers share
    the listening socket (non-blocking, so racing accepts are benign)
    and the same [ops] — the served structure must tolerate concurrent
    calls, which is the entire point of serving a non-blocking trie.

    [barrier], if given, runs on the worker after executing each window
    of pipelined requests and before their responses are flushed; a
    durability layer passes [Persist.Store.barrier] here so
    acknowledgements wait for the group commit that covers them.

    [watchdog], if given, receives one heartbeat source per worker
    domain (named [worker-<domain id>]), beaten every event-loop
    iteration — the progress signal behind the /healthz verdict — plus
    an [overload] gauge that reports degraded while the server is
    shedding/evicting/declining (with [limits.overload_hold_s] of
    hysteresis), so /healthz says [degraded: overload=...] during a
    flood and recovers to [ok] after it.

    [limits] installs the overload-protection envelope
    ({!default_limits}: no admission limit, no idle reaper, no queue
    deadline — only the buffer caps).

    SIGPIPE is ignored process-wide on the first call: a peer that
    vanishes mid-write must surface as [EPIPE] on that connection, not
    kill the process. *)
let start ?(addr = "127.0.0.1") ?(port = 0) ?(domains = 2) ?(backlog = 64)
    ?(barrier = fun () -> ()) ?watchdog ?(limits = default_limits) ?repl ?gate
    ops =
  if limits.hard_buffer_bytes < limits.soft_buffer_bytes then
    invalid_arg "Server.start: hard buffer cap below soft cap";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sh =
    { limits; live = Atomic.make 0; overload_ns = Atomic.make 0; repl; gate }
  in
  (match watchdog with
  | Some wd ->
      Obs.Watchdog.gauge wd ~name:"overload" ~degraded_above:0 (fun () ->
          if overloaded sh then 1 else 0)
  | None -> ());
  let drain_s = Atomic.make 1.0 in
  let net =
    Obs.Net.start ~addr ~backlog ~domains ~port
      (worker_loop sh ops barrier drain_s watchdog)
  in
  { net; drain_s; shared = sh }

let port t = Obs.Net.port t.net

(** Connections currently registered across all workers (diagnostics,
    tests). *)
let live_conns t = Atomic.get t.shared.live

(** Whether the server is inside the overload-hysteresis window — the
    same signal the watchdog gauge reports. *)
let overloaded t = overloaded t.shared

(** Graceful-drain stop, idempotent: stop accepting, give in-flight
    connections up to [drain_s] (default 1s) to be answered and closed,
    then join the workers and close the listening socket. *)
let stop ?(drain_s = 1.0) t =
  Atomic.set t.drain_s drain_s;
  Obs.Net.stop t.net

(* ------------------------------------------------------------------ *)
(* Loopback adapter: a served set re-packaged as an ordinary
   CONCURRENT_SET_WITH_REPLACE, so generic tests (the registry
   batteries, the linearizability checker) run unmodified with every
   operation making a real protocol round trip over localhost. *)

module Loopback (S : Dset_intf.CONCURRENT_SET_WITH_REPLACE) : sig
  include Dset_intf.CONCURRENT_SET_WITH_REPLACE

  val shutdown : t -> unit
  (** Stop the instance's server (also registered via [at_exit]). *)
end = struct
  type server = t (* the enclosing module's server handle *)

  type t = {
    id : int;
    universe : int;
    server : server;
    port : int;
    inner : S.t; (* keeps the served structure alive *)
  }

  let name = S.name ^ "/net"

  let next_id = Atomic.make 0

  (* Every domain talks to a given instance over its own connection
     (the client is not domain-safe); lazily established, keyed by
     instance id.  Connections are reclaimed with the domain. *)
  let clients_key : (int, Client.t) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)

  let client inst =
    let tbl = Domain.DLS.get clients_key in
    match Hashtbl.find_opt tbl inst.id with
    | Some c -> c
    | None ->
        let c = Client.connect ~port:inst.port () in
        Hashtbl.add tbl inst.id c;
        c

  (* Stop the leaked servers of instances nobody shut down explicitly —
     generic test code has no close hook in the signature. *)
  let live : (int, t) Hashtbl.t = Hashtbl.create 8
  let live_mu = Mutex.create ()
  let at_exit_registered = ref false
  let stop_instance inst = stop ~drain_s:0.2 inst.server

  let shutdown inst =
    Mutex.lock live_mu;
    Hashtbl.remove live inst.id;
    Mutex.unlock live_mu;
    stop_instance inst

  let register inst =
    Mutex.lock live_mu;
    if not !at_exit_registered then begin
      at_exit_registered := true;
      at_exit (fun () ->
          Mutex.lock live_mu;
          let all = Hashtbl.fold (fun _ i acc -> i :: acc) live [] in
          Hashtbl.reset live;
          Mutex.unlock live_mu;
          List.iter stop_instance all)
    end;
    Hashtbl.replace live inst.id inst;
    Mutex.unlock live_mu

  let create ~universe () =
    let inner = S.create ~universe () in
    let server = start ~port:0 ~domains:2 (ops_of_set (module S) inner) in
    let inst =
      {
        id = Atomic.fetch_and_add next_id 1;
        universe;
        server;
        port = port server;
        inner;
      }
    in
    register inst;
    inst

  let insert t k = Client.insert (client t) k
  let delete t k = Client.delete (client t) k
  let member t k = Client.member (client t) k
  let replace t ~remove ~add = Client.replace (client t) ~remove ~add
  let size t = Client.size (client t)

  (* The served structure lives in this process, so the shape/descent
     capabilities read it directly rather than over the wire. *)
  let census t = S.census t.inner
  let descent_stats t = S.descent_stats t.inner

  (* Loopback epochs are client-side: each snapshot gets a fresh one,
     which never claims two distinct versions equal. *)
  let snapshot_epoch = Atomic.make 0

  (* Over the wire when one page covers the whole universe — a single
     SCAN request is answered from one frozen server-side snapshot, so
     the page itself is atomic and the linearizability battery
     exercises the real scan path.  Universes too big for one page
     delegate to the in-process structure's snapshot (still a true
     frozen view, just not a wire round trip). *)
  let snapshot t =
    if t.universe > Protocol.max_page_keys then S.snapshot t.inner
    else
      let p = Client.scan_page ~count:t.universe (client t) ~cursor:(-1) in
      if not p.Client.complete then
        raise
          (Client.Protocol_error
             "single-page SCAN of the whole universe came back incomplete")
      else
        let keys = Array.of_list p.Client.keys in
        Some
          Dset_intf.
            {
              v_epoch = Atomic.fetch_and_add snapshot_epoch 1;
              v_fold =
                (fun ~init ~f -> Array.fold_left f init keys);
              v_fold_range =
                (fun ~lo ~hi ~init ~f ->
                  Array.fold_left
                    (fun acc k -> if k >= lo && k <= hi then f acc k else acc)
                    init keys);
              v_to_seq = (fun () -> Array.to_seq keys);
            }

  (* The protocol deliberately has no LIST bulk dump; enumerate the
     bounded universe with pipelined MEMBER batches instead (quiescent
     accuracy, which is all the signature promises). *)
  let to_list t =
    let c = client t in
    let acc = ref [] in
    let k = ref 0 in
    while !k < t.universe do
      let hi = min t.universe (!k + 512) in
      let ops = List.init (hi - !k) (fun i -> Protocol.Member (!k + i)) in
      let base = !k in
      List.iteri
        (fun i b -> if b then acc := (base + i) :: !acc)
        (Client.batch c ops);
      k := hi
    done;
    List.rev !acc
end
