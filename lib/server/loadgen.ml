(** Multi-domain load generator for a patserve server: one connection
    loop, two pacing rules.

    Each generator domain owns one nonblocking connection and makes
    requests due by its pacing rule.  [Closed depth] keeps [depth]
    requests in flight: a response frees a window slot and the next
    request is due at once, so offered load self-regulates to what the
    server sustains.  [Open rate] makes arrivals due on a fixed schedule
    ([rate / domains] per second per domain, randomly phased) whatever
    the server does, so overload shows as [offered - acked] instead of
    being absorbed by a generator that slows down.

    A request's latency runs from its due time to its response: the
    schedule slot in open mode, the moment its window slot freed in
    closed mode.  A generator stall therefore shows in the latency of
    every request it delays, instead of delaying their stamps and hiding
    itself (the coordinated-omission trap; Schroeder, Wierman and
    Harchol-Balter, "Open Versus Closed: A Cautionary Tale", NSDI 2006).
    How late the generator wrote a request (due -> written) is [late],
    reported on its own.

    Every response goes through one accounting path in both modes.
    Every acknowledged [true] to INSERT is +1 to the eventual set size
    and every acknowledged [true] to DELETE is -1 (REPLACE is
    size-neutral, and a [false] never changed anything), so after
    draining, the expected final SIZE is prefill + [size_delta]
    regardless of interleaving; the caller checks it against a SIZE
    request.  A mismatch means an acknowledged operation did not happen
    — exactly the kind of lost update a broken linearization point
    would produce.  SCAN pages are checked against the cursor contract.

    A lost connection (closed, reset, or shed at accept with a seq-0
    BUSY) never raises: it is counted in [disconnects], and its
    in-flight requests are [lost] (each may or may not have executed),
    or [busy] after a shed (the server closed without reading them).
    In closed mode it ends that domain's run with its journal; in open
    mode the domain dials again after a fixed pause, and arrivals with
    no connection are [lost] at the client, like a user whose connect
    is refused.  A protocol violation (a response out of order or with
    nothing in flight, an undecodable frame, a page that breaks the
    cursor contract) raises [Client.Protocol_error] in both modes. *)

type pacing =
  | Closed of int  (** requests kept in flight per connection *)
  | Open of float  (** arrivals offered per second, across all domains *)

type config = {
  addr : string;
  port : int;
  domains : int;
  pacing : pacing;
  seconds : float;
  mix : Harness.Mix.t;
  universe : int;
  seed : int;
  journal : bool;
      (** record every acknowledged operation (and its result) per
          connection — the durability model the crash fuzzer replays.
          Each domain then draws its keys from its own slice of the
          universe, so per-key operation order is one connection's order
          and the journal is an unambiguous model.  Closed pacing only:
          an open-loop reconnect would break that order. *)
  scrape_port : int option;
      (** scrape [http://addr:port/metrics] at end of run and embed the
          server-side latency view (per-opcode p50/p99 and the WAL
          fsync p99) next to the client-side numbers — the cross-check
          that a client-observed tail is (or is not) server time *)
  scan_every : int;
      (** issue one SCAN page per this many generated requests (0 =
          never).  Each generator runs its own resumable cursor and
          verifies every page on receipt: keys strictly ascending, all
          past the cursor, all inside the universe — replaying the
          cursor contract the server promises. *)
  scan_count : int;  (** page size for generated SCANs *)
}

let default_config =
  {
    addr = "127.0.0.1";
    port = 7113;
    domains = 4;
    pacing = Closed 16;
    seconds = 5.0;
    mix = Harness.Mix.i10_d10_r80;
    universe = 1 lsl 16;
    seed = 42;
    journal = false;
    scrape_port = None;
    scan_every = 0;
    scan_count = 256;
  }

(** One connection's acknowledged-operation journal: [acked] in ack
    order with each operation's boolean result, then the operations
    still in flight (sent, unacknowledged — each {e may} have executed)
    when the run ended, in send order.  Empty unless [config.journal]. *)
type journal = {
  acked : (Protocol.op * bool) list;
  in_flight : Protocol.op list;
}

(** [offered = acked + busy + errors + lost] once [run] returns. *)
type report = {
  offered : int;  (** requests the pacing rule made due *)
  acked : int;  (** requests answered with a result — the goodput *)
  busy : int;
      (** BUSY declines plus requests in flight on a connection shed at
          accept: none of them executed *)
  errors : int;  (** [Error] results, or a result the op cannot have *)
  lost : int;
      (** arrivals with no connection, and requests in flight when a
          connection was lost or the drain ran out: each may or may not
          have executed *)
  disconnects : int;  (** connections lost (shed, evicted, closed, reset) *)
  elapsed_s : float;
  goodput : float;  (** acked per second *)
  latency : Obs.Histogram.summary;  (** due -> response of acked requests, ns *)
  late : Obs.Histogram.summary;  (** due -> written, ns *)
  per_op : (string * int) list;  (** acked requests per opcode *)
  size_delta : int;
  scan_pages : int;  (** SCAN pages received (all verified) *)
  scan_keys : int;  (** keys streamed inside them *)
  journals : journal list;  (** one per generator domain, in order *)
  server_metrics : (string * float) list;
      (** server-side cross-check scraped from the metrics endpoint at
          end of run ([config.scrape_port]); empty when not scraped or
          the scrape failed *)
}

(* An open-loop domain that lost its connection dials again after this
   pause; arrivals in between are lost at the client. *)
let reconnect_pause_ns = 50_000_000

(* After [seconds], no request is made due; responses are awaited this
   long, then whatever is still in flight is lost. *)
let drain_ns = 1_000_000_000

(* One generator domain's tally. *)
type tally = {
  mutable offered : int;
  mutable acked : int;
  mutable busy : int;
  mutable errors : int;
  mutable lost : int;
  mutable disconnects : int;
  mutable delta : int;
  counts : int array;
  mutable journal : (Protocol.op * bool) list; (* newest first *)
  mutable in_flight : Protocol.op list; (* oldest first *)
  mutable cursor : int; (* resumable scan position, -1 = start over *)
  mutable scan_pages : int;
  mutable scan_keys : int;
}

type pending = { seq : int; op : Protocol.op; due : int }

(* Scan-result replay verification: the page must honor the cursor
   contract — strictly ascending keys, all past the cursor we sent, all
   inside the universe, and an incomplete page resumes from its last
   key. *)
let check_page (cfg : config) ~cursor ~next_cursor ~complete keys =
  let fail fmt = Printf.ksprintf (fun m -> raise (Client.Protocol_error m)) fmt in
  let rec check prev = function
    | [] -> ()
    | k :: rest ->
        if k <= prev then
          fail "scan page violates cursor contract: %d after %d" k prev;
        if k < 0 || k >= cfg.universe then
          fail "scan page key %d outside universe" k;
        check k rest
  in
  check cursor keys;
  match (complete, keys) with
  | false, [] -> fail "incomplete scan page with no keys"
  | false, _ ->
      if next_cursor <> List.nth keys (List.length keys - 1) then
        fail "scan page cursor is not the last key"
  | true, _ -> ()

(* Book an acknowledged result; [false] for a result [op] cannot have. *)
let ack (cfg : config) t op (result : Protocol.result_) =
  match (result, op) with
  | Protocol.Bool b, _ ->
      if cfg.journal then t.journal <- (op, b) :: t.journal;
      (match (b, op) with
      | true, Protocol.Insert _ -> t.delta <- t.delta + 1
      | true, Protocol.Delete _ -> t.delta <- t.delta - 1
      | _ -> ());
      true
  | Protocol.Page { next_cursor; complete; keys; _ }, Protocol.Scan { cursor; _ }
    ->
      check_page cfg ~cursor ~next_cursor ~complete keys;
      t.scan_pages <- t.scan_pages + 1;
      t.scan_keys <- t.scan_keys + List.length keys;
      (* Resume from this page, wrap around when the walk is done. *)
      t.cursor <- (if complete then -1 else next_cursor);
      true
  | _ -> false

(* Sets the calling thread's timer slack, in ns (a no-op off Linux). *)
external set_timerslack : int -> unit = "server_set_timerslack" [@@noalloc]

let worker (cfg : config) ~lat ~late go d =
  (* An open-paced domain sleeps until each arrival is due: with the
     default 50 us timer slack its wakeups, and so its requests, run
     that much late. *)
  (match cfg.pacing with Open _ -> set_timerslack 1_000 | Closed _ -> ());
  let rng = Rng.of_int_seed (cfg.seed + (d * 104729) + 1) in
  let raw_key = Harness.key_stream Harness.Uniform cfg.universe rng in
  let next_key =
    if not cfg.journal then raw_key
    else begin
      (* Slice d of the universe; the remainder keys go unused so every
         slice is the same size and slices never overlap. *)
      let span = max 1 (cfg.universe / cfg.domains) in
      let base = d * span in
      fun () -> base + (raw_key () mod span)
    end
  in
  let m = cfg.mix in
  let t_ins = m.Harness.Mix.insert in
  let t_del = t_ins + m.Harness.Mix.delete in
  let t_find = t_del + m.Harness.Mix.find in
  let t =
    {
      offered = 0;
      acked = 0;
      busy = 0;
      errors = 0;
      lost = 0;
      disconnects = 0;
      delta = 0;
      counts = Array.make Protocol.op_count 0;
      journal = [];
      in_flight = [];
      cursor = -1;
      scan_pages = 0;
      scan_keys = 0;
    }
  in
  let generated = ref 0 in
  let gen_op () =
    incr generated;
    if cfg.scan_every > 0 && !generated mod cfg.scan_every = 0 then
      Protocol.Scan { cursor = t.cursor; count = cfg.scan_count }
    else
      let r = Rng.int rng 100 in
      let k = next_key () in
      if r < t_ins then Protocol.Insert k
      else if r < t_del then Protocol.Delete k
      else if r < t_find then Protocol.Member k
      else Protocol.Replace { remove = k; add = next_key () }
  in
  (* The connection: in-flight requests oldest first, and the outbox
     [obuf.(ooff .. olen)] of encoded bytes not yet written.  [unwritten]
     holds (end of the request in [encoded], due) for requests whose
     last byte is not written yet, so [late] is due -> written. *)
  let conn = ref None in
  let reader = ref (Protocol.Reader.create ()) in
  let q : pending Queue.t = Queue.create () in
  let unwritten : (int * int) Queue.t = Queue.create () in
  let enc = Buffer.create 64 in
  let obuf = ref (Bytes.create 4096) and ooff = ref 0 and olen = ref 0 in
  let encoded = ref 0 and written = ref 0 in
  let next_seq = ref 1 in
  let scratch = Bytes.create 65536 in
  let reconnect_at = ref 0 in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.addr, cfg.port));
      (* Nagle would serialize the pipeline into 40 ms lockstep. *)
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd
    with
    | () -> conn := Some fd
    | exception e ->
        Obs.Net.close_noerr fd;
        raise e
  in
  let in_flight_ops () = List.rev (Queue.fold (fun acc p -> p.op :: acc) [] q) in
  let close_conn () =
    Option.iter Obs.Net.close_noerr !conn;
    conn := None;
    reader := Protocol.Reader.create ();
    Queue.clear q;
    Queue.clear unwritten;
    ooff := 0;
    olen := 0;
    encoded := 0;
    written := 0
  in
  let lose ~shed =
    t.disconnects <- t.disconnects + 1;
    if shed then t.busy <- t.busy + Queue.length q
    else begin
      t.lost <- t.lost + Queue.length q;
      if cfg.journal then t.in_flight <- in_flight_ops ()
    end;
    close_conn ();
    reconnect_at := Obs.Clock.now_ns () + reconnect_pause_ns
  in
  let flush () =
    match !conn with
    | Some fd when !olen > !ooff -> (
        match Unix.write fd !obuf !ooff (!olen - !ooff) with
        | w ->
            ooff := !ooff + w;
            if !ooff = !olen then begin
              ooff := 0;
              olen := 0
            end;
            written := !written + w;
            let now = Obs.Clock.now_ns () in
            while
              (not (Queue.is_empty unwritten))
              && fst (Queue.peek unwritten) <= !written
            do
              Obs.Histogram.record late (now - snd (Queue.pop unwritten))
            done
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error (_, _, _) -> lose ~shed:false)
    | _ -> ()
  in
  (* Encode one request due at [due] and write it at once: one write per
     request, so the server sees requests arrive as a blocking pipelined
     client sends them. *)
  let push due =
    let seq = !next_seq in
    next_seq := (if seq >= 0xFFFFFFFF then 1 else seq + 1);
    let op = gen_op () in
    Buffer.clear enc;
    Protocol.encode_request enc { Protocol.seq; op };
    let n = Buffer.length enc in
    if !olen + n > Bytes.length !obuf then begin
      let live = !olen - !ooff in
      let b =
        if live + n > Bytes.length !obuf then
          Bytes.create (2 * (live + n))
        else !obuf
      in
      Bytes.blit !obuf !ooff b 0 live;
      obuf := b;
      ooff := 0;
      olen := live
    end;
    Buffer.blit enc 0 !obuf !olen n;
    olen := !olen + n;
    encoded := !encoded + n;
    Queue.add { seq; op; due } q;
    Queue.add (!encoded, due) unwritten;
    flush ()
  in
  let on_response (r : Protocol.response) =
    if r.Protocol.seq = 0 then
      match r.Protocol.result with
      | Protocol.Busy _ -> lose ~shed:true
      | Protocol.Error msg ->
          raise (Client.Protocol_error ("connection-level error: " ^ msg))
      | _ -> raise (Client.Protocol_error "unexpected seq-0 response")
    else
      match Queue.take_opt q with
      | None -> raise (Client.Protocol_error "response with nothing in flight")
      | Some p -> (
          if p.seq <> r.Protocol.seq then
            raise
              (Client.Protocol_error
                 (Printf.sprintf
                    "pipelined response out of order: expected %d, got %d"
                    p.seq r.Protocol.seq));
          match r.Protocol.result with
          | Protocol.Busy _ -> t.busy <- t.busy + 1
          | Protocol.Error _ -> t.errors <- t.errors + 1
          | result when ack cfg t p.op result ->
              let dt = Obs.Clock.now_ns () - p.due in
              Obs.Histogram.record lat dt;
              Harness.Live.op dt;
              t.acked <- t.acked + 1;
              let i = Protocol.op_index p.op in
              t.counts.(i) <- t.counts.(i) + 1
          | _ -> t.errors <- t.errors + 1)
  in
  (* Read what the socket holds and account every complete response;
     [false] when there was nothing to read. *)
  let read fd =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 ->
        lose ~shed:false;
        true
    | n ->
        Protocol.Reader.feed !reader scratch n;
        (* A shed swaps in a fresh reader, which ends this loop. *)
        let rec frames () =
          match Protocol.Reader.next_payload !reader with
          | `None -> ()
          | `Bad msg -> raise (Client.Protocol_error msg)
          | `Payload (buf, off, len) -> (
              match Protocol.decode_response buf ~off ~len with
              | Result.Ok r ->
                  on_response r;
                  frames ()
              | Result.Error msg -> raise (Client.Protocol_error msg))
        in
        frames ();
        true
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception Unix.Unix_error (_, _, _) ->
        lose ~shed:false;
        true
  in
  (match cfg.pacing with
  | Closed _ -> connect ()
  | Open _ -> ( try connect () with Unix.Unix_error (_, _, _) -> ()));
  Fun.protect ~finally:close_conn @@ fun () ->
  while not (Atomic.get go) do Domain.cpu_relax () done;
  let start = Obs.Clock.now_ns () in
  let deadline = start + int_of_float (cfg.seconds *. 1e9) in
  let drain_end = deadline + drain_ns in
  let period, first_due =
    match cfg.pacing with
    | Closed _ -> (0.0, start)
    | Open rate ->
        (* Random phase so the domains' schedules interleave instead of
           arriving in lockstep. *)
        let period = float_of_int cfg.domains *. 1e9 /. rate in
        (period, start + int_of_float (Rng.float rng *. period))
  in
  let arrivals = ref 0 in
  let due i = first_due + int_of_float (float_of_int i *. period) in
  let finished = ref false in
  while not !finished do
    let now = Obs.Clock.now_ns () in
    (match cfg.pacing with
    | Closed depth ->
        while now < deadline && !conn <> None && Queue.length q < depth do
          t.offered <- t.offered + 1;
          push now
        done
    | Open _ ->
        while due !arrivals <= now && due !arrivals < deadline do
          t.offered <- t.offered + 1;
          if !conn = None && now >= !reconnect_at then (
            try connect ()
            with Unix.Unix_error (_, _, _) ->
              reconnect_at := now + reconnect_pause_ns);
          if !conn = None then t.lost <- t.lost + 1 else push (due !arrivals);
          incr arrivals
        done);
    flush ();
    let closed_and_lost =
      match cfg.pacing with Closed _ -> !conn = None | Open _ -> false
    in
    if closed_and_lost || (now >= deadline && (Queue.is_empty q || now >= drain_end))
    then finished := true
    else
      (* Read before waiting; wait only when the socket had nothing. *)
      match !conn with
      | Some fd when read fd -> ()
      | c -> (
          let wake =
            match cfg.pacing with
            | Open _ when now < deadline -> min (due !arrivals) deadline
            | _ -> drain_end
          in
          let timeout = float_of_int (max 0 (wake - now)) /. 1e9 in
          match c with
          | None -> Unix.sleepf timeout
          | Some fd -> (
              let wr = if !olen > !ooff then [ fd ] else [] in
              match Unix.select [ fd ] wr [] timeout with
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
  done;
  (* The drain ran out: what is still in flight is lost, not answered. *)
  t.lost <- t.lost + Queue.length q;
  if cfg.journal && !conn <> None then t.in_flight <- in_flight_ops ();
  t.journal <- List.rev t.journal;
  t

(* End-of-run server-side cross-check: one GET /metrics, then pull the
   per-opcode end-to-end server latency (stage="total" of the request
   stage decomposition) and the WAL fsync tail out of the exposition.
   Any failure yields an empty list — the load numbers stand on their
   own; the cross-check is advisory. *)
let scrape_server_metrics ~addr ~port =
  match Obs.Net.http_get ~addr ~port ~path:"/metrics" () with
  | Error _ | Ok (0, _) -> []
  | Ok (status, _) when status <> 200 -> []
  | Ok (_, body) ->
      let samples, _errs = Obs.Prometheus.parse_samples body in
      let take acc key name labels =
        match Obs.Prometheus.find_sample samples ~name ~labels with
        | Some v -> (key, v) :: acc
        | None -> acc
      in
      let acc =
        List.fold_left
          (fun acc op ->
            let acc =
              take acc
                (Printf.sprintf "server_%s_p50_ns" op)
                "patserve_request_stage_ns"
                [ ("op", op); ("stage", "total"); ("quantile", "0.5") ]
            in
            take acc
              (Printf.sprintf "server_%s_p99_ns" op)
              "patserve_request_stage_ns"
              [ ("op", op); ("stage", "total"); ("quantile", "0.99") ])
          []
          [ "insert"; "delete"; "member"; "replace" ]
      in
      let acc =
        take acc "server_wal_fsync_p99_ns" "patserve_wal_fsync_ns"
          [ ("quantile", "0.99") ]
      in
      (* Descent-cost cross-check: the served trie's depth histogram
         (nodes visited per search), present when the server records
         stats — throughput next to the pointer chases explaining it. *)
      let acc =
        take acc "server_descent_depth_p50" "pat_descent_depth"
          [ ("quantile", "0.5") ]
      in
      let acc =
        take acc "server_descent_depth_p99" "pat_descent_depth"
          [ ("quantile", "0.99") ]
      in
      (* Replication lag at end of run: present when the server is a
         replication primary (slowest attached follower) or follower
         (behind its primary); absent on an unreplicated server. *)
      let acc = take acc "server_repl_lag_records" "patserve_repl_lag_records" [] in
      let acc = take acc "server_repl_lag_bytes" "patserve_repl_lag_bytes" [] in
      List.rev acc

(** Run the configured load and report what came back.  Never raises on
    a lost connection (see [report.disconnects]); raises
    [Client.Protocol_error] on a protocol violation, and a closed-loop
    domain's failed first connect raises its [Unix.Unix_error]. *)
let run cfg =
  if cfg.domains < 1 then invalid_arg "Loadgen: domains must be >= 1";
  (match cfg.pacing with
  | Closed depth ->
      if depth < 1 then invalid_arg "Loadgen: depth must be >= 1"
  | Open rate ->
      if not (rate > 0.0) then invalid_arg "Loadgen: rate must be > 0";
      if cfg.journal then invalid_arg "Loadgen: journal needs closed pacing");
  (* Writing into a connection the server just shed or evicted must be
     an EPIPE (a lost connection), not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lat = Obs.Histogram.create () and late = Obs.Histogram.create () in
  let go = Atomic.make false in
  let doms =
    List.init cfg.domains (fun d ->
        Domain.spawn (fun () -> worker cfg ~lat ~late go d))
  in
  let t0 = Obs.Clock.now_ns () in
  Atomic.set go true;
  let tallies = List.map Domain.join doms in
  let elapsed_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9 in
  let sum f = List.fold_left (fun a (t : tally) -> a + f t) 0 tallies in
  let acked = sum (fun t -> t.acked) in
  ({
    offered = sum (fun t -> t.offered);
    acked;
    busy = sum (fun t -> t.busy);
    errors = sum (fun t -> t.errors);
    lost = sum (fun t -> t.lost);
    disconnects = sum (fun t -> t.disconnects);
    elapsed_s;
    goodput = (if elapsed_s > 0. then float_of_int acked /. elapsed_s else 0.);
    latency = Obs.Histogram.snapshot lat;
    late = Obs.Histogram.snapshot late;
    per_op =
      List.init Protocol.op_count (fun i ->
          (Protocol.op_names.(i), sum (fun t -> t.counts.(i))));
    size_delta = sum (fun t -> t.delta);
    scan_pages = sum (fun t -> t.scan_pages);
    scan_keys = sum (fun t -> t.scan_keys);
    journals =
      List.map
        (fun (t : tally) : journal ->
          { acked = t.journal; in_flight = t.in_flight })
        tallies;
    server_metrics =
      (match cfg.scrape_port with
      | None -> []
      | Some p -> scrape_server_metrics ~addr:cfg.addr ~port:p);
  } : report)

(** Insert a random half of the universe through BATCH frames; returns
    how many inserts were acknowledged [true] (= the set's size if it
    started empty).  Deterministic in [seed]. *)
let prefill ?(addr = "127.0.0.1") ~port ~universe ~seed () =
  let c = Client.connect ~addr ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Rng.of_int_seed seed in
  let keys = Array.init universe Fun.id in
  for i = universe - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  let target = universe / 2 in
  let inserted = ref 0 in
  let k = ref 0 in
  while !k < target do
    let hi = min target (!k + 512) in
    let ops = List.init (hi - !k) (fun i -> Protocol.Insert keys.(!k + i)) in
    List.iter (fun b -> if b then incr inserted) (Client.batch c ops);
    k := hi
  done;
  !inserted

let report_to_json (cfg : config) (r : report) : Obs.Json.t =
  let pacing =
    match cfg.pacing with
    | Closed depth ->
        [ ("pacing", Obs.Json.Str "closed"); ("depth", Obs.Json.Int depth) ]
    | Open rate ->
        [ ("pacing", Obs.Json.Str "open"); ("rate", Obs.Json.Float rate) ]
  in
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int 2);
      ("benchmark", Obs.Json.Str "patbench load");
      ( "config",
        Obs.Json.Obj
          ([
             ("addr", Obs.Json.Str cfg.addr);
             ("port", Obs.Json.Int cfg.port);
             ("domains", Obs.Json.Int cfg.domains);
           ]
          @ pacing
          @ [
              ("seconds", Obs.Json.Float cfg.seconds);
              ("mix", Obs.Json.Str (Harness.Mix.to_string cfg.mix));
              ("universe", Obs.Json.Int cfg.universe);
              ("seed", Obs.Json.Int cfg.seed);
            ]) );
      ( "results",
        Obs.Json.Obj
          [
            ("offered", Obs.Json.Int r.offered);
            ("acked", Obs.Json.Int r.acked);
            ("busy", Obs.Json.Int r.busy);
            ("errors", Obs.Json.Int r.errors);
            ("lost", Obs.Json.Int r.lost);
            ("disconnects", Obs.Json.Int r.disconnects);
            ("elapsed_s", Obs.Json.Float r.elapsed_s);
            ("goodput_ops_per_sec", Obs.Json.Float r.goodput);
            ("latency_ns", Obs.Histogram.summary_to_json r.latency);
            ("late_ns", Obs.Histogram.summary_to_json r.late);
            ( "per_op",
              Obs.Json.Obj
                (List.map (fun (k, v) -> (k, Obs.Json.Int v)) r.per_op) );
            ("size_delta", Obs.Json.Int r.size_delta);
            ("scan_pages", Obs.Json.Int r.scan_pages);
            ("scan_keys", Obs.Json.Int r.scan_keys);
            ( "server",
              match r.server_metrics with
              | [] -> Obs.Json.Null
              | kvs ->
                  Obs.Json.Obj
                    (List.map (fun (k, v) -> (k, Obs.Json.Float v)) kvs) );
          ] );
    ]
