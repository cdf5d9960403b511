(** Shared socket/listener plumbing for the in-process network
    endpoints ({!Serve}'s metrics scraper and the patserve set server).

    Both endpoints want the same skeleton: bind a loopback TCP socket
    (port 0 for an ephemeral one, reported back), run one or more
    listener domains that poll with [select] instead of parking in
    [accept] — a domain blocked in [accept] is not reliably woken by
    another domain closing the socket, whereas a polling loop re-checks
    a stop flag on every timeout — and stop idempotently by setting the
    flag, joining the domains, and only then closing the socket so no
    listener ever selects on a dead fd.

    Built on stdlib [Unix] only; loopback-oriented (no TLS, no
    keep-alive management beyond what callers do themselves). *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(** [write_all fd s] writes the whole string, retrying on short writes;
    silently gives up on a connection error (the peer is gone — there is
    nobody left to report it to). *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  go 0

(** [listen_tcp ~addr ~port ~backlog] binds and listens a TCP socket on
    [addr:port] ([port = 0] binds an ephemeral port) and returns the
    socket together with the actually-bound port.  The socket is closed
    again if any step after creation fails. *)
let listen_tcp ?(nonblocking = false) ~addr ~port ~backlog () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     if nonblocking then Unix.set_nonblock sock;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock backlog
   with e ->
     close_noerr sock;
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (sock, bound_port)

(** A listener: one shared listening socket and [domains] loop domains
    driving it, stoppable exactly once. *)
type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  listeners : unit Domain.t list;
}

(** [start ~addr ~port ~backlog ~domains loop] binds the socket and
    spawns [domains] domains each running [loop ~stopping sock].  The
    loop owns its accept strategy (poll-accept-serve for {!Serve}, a
    full event loop for the set server); it must return soon after
    [stopping ()] becomes true and must never close [sock].  With
    [domains > 1] the socket is set non-blocking so concurrent
    accepts race benignly ([EAGAIN]) instead of blocking. *)
let start ?(addr = "127.0.0.1") ?(backlog = 64) ?(domains = 1) ~port loop =
  if domains < 1 then invalid_arg "Net.start: domains must be >= 1";
  let sock, bound_port =
    listen_tcp ~nonblocking:(domains > 1) ~addr ~port ~backlog ()
  in
  let stopping = Atomic.make false in
  let is_stopping () = Atomic.get stopping in
  let listeners =
    List.init domains (fun _ ->
        Domain.spawn (fun () -> loop ~stopping:is_stopping sock))
  in
  { sock; bound_port; stopping; listeners }

let port t = t.bound_port

(** Stop accepting and join every listener domain; idempotent.  The
    socket is closed only after the join so no loop ever selects on a
    dead fd. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    List.iter Domain.join t.listeners;
    close_noerr t.sock
  end

(** [http_get ~addr ~port ~path] performs one blocking HTTP/1.1 GET
    against a loopback endpoint ({!Serve}, or anything speaking
    Connection: close) and returns [(status, body)].  Minimal by
    design — the loadgen's end-of-run metrics scrape and the tests need
    exactly this, not an HTTP client library. *)
let http_get ?(timeout_s = 5.0) ~addr ~port ~path () =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      Fun.protect ~finally:(fun () -> close_noerr fd) @@ fun () ->
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
        write_all fd
          (Printf.sprintf
             "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
             path);
        let buf = Bytes.create 65536 in
        let out = Buffer.create 65536 in
        let rec recv () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes out buf 0 n;
              recv ()
        in
        recv ();
        Buffer.contents out
      with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | raw -> (
          let split =
            let rec find i =
              if i + 3 >= String.length raw then None
              else if String.sub raw i 4 = "\r\n\r\n" then Some i
              else find (i + 1)
            in
            find 0
          in
          match split with
          | None -> Error "malformed HTTP response"
          | Some i -> (
              let headers = String.sub raw 0 i in
              let body =
                String.sub raw (i + 4) (String.length raw - i - 4)
              in
              match String.split_on_char ' ' headers with
              | _ :: code :: _ -> (
                  match int_of_string_opt code with
                  | Some status -> Ok (status, body)
                  | None -> Error "malformed HTTP status line")
              | _ -> Error "malformed HTTP status line")))

(** Errors {!accept_poll} met other than the transient [EAGAIN],
    [EWOULDBLOCK], [EINTR] and [ECONNABORTED]: a listener whose socket
    hits [EMFILE] or [EBADF] keeps polling, and this is where it shows. *)
let accept_errors = Counter.create ()

(* The errnos already logged, so each is logged once per process. *)
let logged_errors = Atomic.make []

let rec log_once call e =
  let seen = Atomic.get logged_errors in
  if not (List.mem e seen) then
    if Atomic.compare_and_set logged_errors seen (e :: seen) then
      Printf.eprintf "Obs.Net: %s on a listening socket failed: %s\n%!" call
        (Unix.error_message e)
    else log_once call e

(* A counted error also waits out the poll timeout: a persistent one
   (a closed socket, a full descriptor table) would otherwise spin. *)
let accept_failed call e timeout_s =
  match e with
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED -> None
  | e ->
      Counter.incr accept_errors;
      log_once call e;
      Unix.sleepf timeout_s;
      None

(** [accept_poll ~stopping ?timeout_s sock] selects on [sock] for up to
    [timeout_s] and accepts one pending connection.  Returns [None] when
    the stop flag is up, nothing arrived within the timeout, or the
    select or accept failed (racing accepters see [EAGAIN] here); other
    than the transient errors, a failure is counted in {!accept_errors}
    and logged on stderr the first time its errno is seen. *)
let accept_poll ~stopping ?(timeout_s = 0.25) sock =
  if stopping () then None
  else
    match Unix.select [ sock ] [] [] timeout_s with
    | [ _ ], _, _ -> (
        match Unix.accept sock with
        | fd, _ -> Some fd
        | exception Unix.Unix_error (e, _, _) ->
            accept_failed "accept" e timeout_s)
    | _ -> None
    | exception Unix.Unix_error (e, _, _) -> accept_failed "select" e timeout_s
