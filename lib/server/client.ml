(** Blocking client for the patserve protocol, with explicit pipelining
    and an optional resilience layer.

    One connection, not domain-safe: create one client per domain (the
    loopback adapter does).  The two-level API mirrors the protocol:
    {!request} is one synchronous round trip; {!send}/{!recv} split the
    two halves so a caller can keep many requests in flight and match
    the (in-order) responses by tag.

    The resilience layer wraps only the synchronous helpers
    ({!insert} .. {!batch}).  With [retries > 0] they transparently
    survive the server's overload replies: a BUSY decline backs off
    (bounded exponential with jitter, floored at the server's
    retry-after hint — {!Chaos.Backoff.sleep}) and resends; an
    accept-time shed or dropped connection reconnects first.  BUSY
    always means the operation did {e not} execute, so those retries
    are exactly-once; a reconnect retry after a mid-flight disconnect
    is at-least-once (the lost reply may have been a completed
    operation) — same contract as any TCP client.  [op_timeout_s]
    bounds each socket operation; a deadline overrun raises {!Timeout}
    after resynchronizing the connection (the late reply must not be
    read as the answer to the next request). *)

exception Protocol_error of string

exception Busy of { retry_after_ms : int }
(** The server declined (or shed) the operation; it did not execute.
    Raised by the synchronous helpers once the retry budget (if any) is
    exhausted. *)

exception Timeout
(** A socket operation overran [op_timeout_s]. *)

(* Internal: a seq-0 BUSY frame — the server shed this connection at
   accept time and closed it.  Distinguished from a per-request BUSY
   because recovery differs: a shed needs a reconnect, a decline just a
   resend.  Converted to {!Busy} before escaping. *)
exception Shed of int

type t = {
  mutable fd : Unix.file_descr;
  mutable reader : Protocol.Reader.t;
  scratch : Bytes.t;
  sendbuf : Buffer.t;
  mutable wbuf : Bytes.t; (* what [write_all] writes from; grows *)
  mutable next_seq : int;
  addr : string;
  port : int;
  retries : int;
  op_timeout_s : float option;
}

let open_conn ~addr ~port ~op_timeout_s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     (* The protocol is request/response over small frames; Nagle would
        serialize the pipeline into 40ms lockstep. *)
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     match op_timeout_s with
     | Some s ->
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
     | None -> ()
   with e ->
     Obs.Net.close_noerr fd;
     raise e);
  fd

let connect ?(addr = "127.0.0.1") ~port ?(retries = 0) ?op_timeout_s () =
  if retries < 0 then invalid_arg "Client.connect: retries must be >= 0";
  (* A server that evicts or sheds us closes mid-write; that must be an
     EPIPE on this connection, not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  {
    fd = open_conn ~addr ~port ~op_timeout_s;
    reader = Protocol.Reader.create ();
    scratch = Bytes.create 65536;
    sendbuf = Buffer.create 256;
    wbuf = Bytes.create 256;
    next_seq = 1;
    addr;
    port;
    retries;
    op_timeout_s;
  }

let close t = Obs.Net.close_noerr t.fd

(* Drop the (possibly desynchronized) connection and establish a fresh
   one.  Any in-flight requests are forgotten — the retry layer only
   reconnects between synchronous operations, where the window is
   empty. *)
let reconnect t =
  Obs.Net.close_noerr t.fd;
  t.reader <- Protocol.Reader.create ();
  t.fd <- open_conn ~addr:t.addr ~port:t.port ~op_timeout_s:t.op_timeout_s

(* Writes [buf] out from the client's own [wbuf], grown when a window
   outgrows it: no per-request copy is allocated. *)
let write_all t buf =
  let n = Buffer.length buf in
  if Bytes.length t.wbuf < n then
    t.wbuf <- Bytes.create (max n (2 * Bytes.length t.wbuf));
  let b = t.wbuf in
  Buffer.blit buf 0 b 0 n;
  let rec go off =
    if off < n then
      match Unix.write t.fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when t.op_timeout_s <> None ->
          raise Timeout
      | exception Unix.Unix_error (e, _, _) ->
          raise (Protocol_error ("write: " ^ Unix.error_message e))
  in
  go 0

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- (if s >= 0xFFFFFFFF then 1 else s + 1);
  s

(** [send t op] transmits one request and returns its tag. *)
let send t op =
  let seq = fresh_seq t in
  Buffer.clear t.sendbuf;
  Protocol.encode_request t.sendbuf { seq; op };
  write_all t t.sendbuf;
  seq

(** [send_many t ops] transmits a whole pipeline window in one write;
    returns the tags in order. *)
let send_many t ops =
  Buffer.clear t.sendbuf;
  let seqs =
    List.map
      (fun op ->
        let seq = fresh_seq t in
        Protocol.encode_request t.sendbuf { seq; op };
        seq)
      ops
  in
  write_all t t.sendbuf;
  seqs

(** Next response off the wire (responses arrive in request order). *)
let rec recv t =
  match Protocol.Reader.next_payload t.reader with
  | `Bad msg -> raise (Protocol_error msg)
  | `Payload (buf, off, len) -> (
      match Protocol.decode_response buf ~off ~len with
      | Result.Ok r -> r
      | Result.Error msg -> raise (Protocol_error msg))
  | `None -> (
      match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 -> raise (Protocol_error "connection closed by server")
      | n ->
          Protocol.Reader.feed t.reader t.scratch n;
          recv t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv t
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when t.op_timeout_s <> None ->
          raise Timeout
      | exception Unix.Unix_error (e, _, _) ->
          raise (Protocol_error ("read: " ^ Unix.error_message e)))

let expect_seq seq (r : Protocol.response) =
  if r.Protocol.seq = 0 then
    match r.Protocol.result with
    | Protocol.Busy { retry_after_ms } -> raise (Shed retry_after_ms)
    | Protocol.Error msg ->
        raise (Protocol_error ("connection-level error: " ^ msg))
    | _ -> raise (Protocol_error "unexpected seq-0 response")
  else if r.Protocol.seq <> seq then
    raise
      (Protocol_error
         (Printf.sprintf "response out of order: expected seq %d, got %d" seq
            r.Protocol.seq));
  r.Protocol.result

(** One synchronous round trip; application-level [Error] raises.  No
    retries at this level — see the synchronous helpers. *)
let request t op =
  let seq = send t op in
  match expect_seq seq (recv t) with
  | Protocol.Error msg -> raise (Protocol_error ("server error: " ^ msg))
  | r -> r

(** [pipeline t ops] sends every request before reading any response:
    the whole window shares one round trip.  Results come back in
    order; [Error] (and [Busy]) results are returned, not raised, so
    one bad operation does not lose its siblings. *)
let pipeline t ops =
  let seqs = send_many t ops in
  List.map (fun seq -> expect_seq seq (recv t)) seqs

(* The retry loop behind the synchronous helpers.  Timeouts are never
   retried — the caller asked for a deadline, not persistence — but the
   connection is resynchronized first so the late reply cannot be
   matched to a later request. *)
let with_retry t f =
  let ms_floor hint = float_of_int hint /. 1000. in
  let rec go attempt cap =
    match f () with
    | r -> r
    | exception Busy { retry_after_ms } when attempt < t.retries ->
        let cap = Chaos.Backoff.sleep ~floor_s:(ms_floor retry_after_ms) cap in
        go (attempt + 1) cap
    | exception Shed hint ->
        if attempt < t.retries then begin
          let cap = Chaos.Backoff.sleep ~floor_s:(ms_floor hint) cap in
          (match reconnect t with
          | () -> ()
          | exception Unix.Unix_error (_, _, _) -> ());
          go (attempt + 1) cap
        end
        else raise (Busy { retry_after_ms = hint })
    | exception Protocol_error _ when attempt < t.retries ->
        let cap = Chaos.Backoff.sleep cap in
        (match reconnect t with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) -> ());
        go (attempt + 1) cap
    | exception Timeout ->
        (match reconnect t with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) -> ());
        raise Timeout
  in
  go 0 Chaos.Backoff.init

let bool_result = function
  | Protocol.Bool b -> b
  | Protocol.Busy { retry_after_ms } -> raise (Busy { retry_after_ms })
  | Protocol.Error msg -> raise (Protocol_error ("server error: " ^ msg))
  | _ -> raise (Protocol_error "expected boolean result")

let insert t k = with_retry t (fun () -> bool_result (request t (Protocol.Insert k)))
let delete t k = with_retry t (fun () -> bool_result (request t (Protocol.Delete k)))
let member t k = with_retry t (fun () -> bool_result (request t (Protocol.Member k)))

let replace t ~remove ~add =
  with_retry t (fun () ->
      bool_result (request t (Protocol.Replace { remove; add })))

let size t =
  with_retry t (fun () ->
      match request t Protocol.Size with
      | Protocol.Count n -> n
      | Protocol.Busy { retry_after_ms } -> raise (Busy { retry_after_ms })
      | _ -> raise (Protocol_error "expected count result"))

let batch t ops =
  with_retry t (fun () ->
      match request t (Protocol.Batch ops) with
      | Protocol.Many bs -> bs
      | Protocol.Busy { retry_after_ms } -> raise (Busy { retry_after_ms })
      | _ -> raise (Protocol_error "expected vector result"))

(** [promote t] asks the server (a replication follower) to seal its WAL
    and flip to primary; [true] on success.  Idempotent server-side. *)
let promote t = with_retry t (fun () -> bool_result (request t Protocol.Promote))

(** [hashcheck t ~prefix ~len] fetches the anti-entropy hashes
    [(node, left, right)] of the subtree at the [len]-bit key prefix. *)
let hashcheck t ~prefix ~len =
  with_retry t (fun () ->
      match request t (Protocol.Hashcheck { prefix; len }) with
      | Protocol.Hashes { node; left; right } -> (node, left, right)
      | Protocol.Busy { retry_after_ms } -> raise (Busy { retry_after_ms })
      | Protocol.Error msg -> raise (Protocol_error ("server error: " ^ msg))
      | _ -> raise (Protocol_error "expected hashes result"))

(** One SCAN/RANGE page as the client sees it; [keys] ascending.
    [next_cursor] feeds the follow-up {!scan_page}; [cut] is the
    server's WAL position for replica bootstrap (see protocol.mli). *)
type page = { cut : int; next_cursor : int; complete : bool; keys : int list }

let page_result = function
  | Protocol.Page { cut; next_cursor; complete; keys } ->
      { cut; next_cursor; complete; keys }
  | Protocol.Busy { retry_after_ms } -> raise (Busy { retry_after_ms })
  | Protocol.Error msg -> raise (Protocol_error ("server error: " ^ msg))
  | _ -> raise (Protocol_error "expected page result")

(** [scan_page t ~cursor] fetches up to [count] keys strictly greater
    than [cursor] ([-1] to start) — one frozen-snapshot page.  [range]
    restricts the walk to [(lo, hi)] inclusive.  Read-only, so the BUSY
    retry layer applies as usual. *)
let scan_page ?(count = Protocol.max_page_keys) ?range t ~cursor =
  let op =
    match range with
    | None -> Protocol.Scan { cursor; count }
    | Some (lo, hi) -> Protocol.Range { lo; hi; cursor; count }
  in
  with_retry t (fun () -> page_result (request t op))

(** [scan t] drives a resumable page sequence to completion and returns
    every key, ascending.  A single-page result is an exact frozen
    version; multi-page scans carry the cursor-stability contract of
    protocol.mli.  [f] (default ignore) sees each page as it lands. *)
let scan ?count ?range ?(f = fun (_ : page) -> ()) t =
  let rec go cursor acc =
    let p = scan_page ?count ?range t ~cursor in
    f p;
    let acc = List.rev_append p.keys acc in
    if p.complete then List.rev acc else go p.next_cursor acc
  in
  go (-1) []
