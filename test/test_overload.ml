(* Overload-protection tests for patserve: accept-time shedding at
   --max-conns (BUSY frame then close), per-request queue deadlines,
   the slow-reader soft cap (stall, then resume once the client
   drains) and hard cap (counted eviction), the idle reaper, the
   client's retry layer surviving a shed, the watchdog's
   ok -> degraded:overload -> ok cycle, survival of abrupt client
   disconnects, and the open-loop load generator's shed accounting.
   All counters come from [Server.Metrics.snapshot] in-process; every
   test resets them first. *)

module P = Server.Protocol

let pat_server ?(domains = 2) ?watchdog ~limits ~universe () =
  Server.Metrics.reset ();
  let trie = Core.Patricia.create ~universe () in
  let ops =
    Server.
      {
        insert = Core.Patricia.insert trie;
        delete = Core.Patricia.delete trie;
        member = Core.Patricia.member trie;
        replace = (fun ~remove ~add -> Core.Patricia.replace trie ~remove ~add);
        size = (fun () -> Core.Patricia.size trie);
        snapshot = (fun () -> Core.Patricia.snapshot_capability trie);
        scan_cut = (fun () -> -1);
      }
  in
  Server.start ~port:0 ~domains ?watchdog ~limits ops

let with_server ?domains ?watchdog ~limits ~universe f =
  let srv = pat_server ?domains ?watchdog ~limits ~universe () in
  Fun.protect ~finally:(fun () -> Server.stop ~drain_s:0.5 srv) @@ fun () ->
  f (Server.port srv)

let with_client ?retries port f =
  let c = Server.Client.connect ~port ?retries () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () -> f c

let counter name =
  match List.assoc_opt name (Server.Metrics.snapshot ()) with
  | Some v -> v
  | None -> Alcotest.failf "no metrics counter %S" name

(* Poll [pred] until it holds or [timeout_s] elapses. *)
let await ?(timeout_s = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let raw_connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match rcvbuf with
  | Some n -> Unix.setsockopt_int fd Unix.SO_RCVBUF n
  | None -> ());
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let read_until_eof fd =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 64 in
  let rec go () =
    match Unix.read fd buf 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.to_bytes out

(* Decode every complete response frame in [bytes]. *)
let decode_responses bytes =
  let r = P.Reader.create () in
  P.Reader.feed r bytes (Bytes.length bytes);
  let rec drain acc =
    match P.Reader.next_payload r with
    | `None -> List.rev acc
    | `Bad msg -> Alcotest.failf "framing error: %s" msg
    | `Payload (buf, off, len) -> (
        match P.decode_response buf ~off ~len with
        | Result.Ok resp -> drain (resp :: acc)
        | Result.Error msg -> Alcotest.failf "decode error: %s" msg)
  in
  drain []

(* ------------------------------------------------------------------ *)
(* Accept-time admission: the (max_conns + 1)-th connection gets one
   seq-0 BUSY frame carrying the configured retry-after hint, then
   EOF; closing an admitted connection frees the slot. *)

let test_shed_at_max_conns () =
  let limits =
    { Server.default_limits with
      Server.max_conns = Some 2;
      retry_after_ms = 77 }
  in
  let srv = pat_server ~limits ~universe:64 () in
  Fun.protect ~finally:(fun () -> Server.stop ~drain_s:0.5 srv) @@ fun () ->
  let port = Server.port srv in
  with_client port @@ fun c1 ->
  with_client port @@ fun c2 ->
  ignore (Server.Client.insert c1 1);
  ignore (Server.Client.insert c2 2);
  Alcotest.(check int) "both registered" 2 (Server.live_conns srv);
  let fd = raw_connect port in
  let answer = read_until_eof fd in
  Unix.close fd;
  (match decode_responses answer with
  | [ { P.seq = 0; result = P.Busy { retry_after_ms = 77 } } ] -> ()
  | [ { P.seq = 0; result = P.Busy { retry_after_ms = h } } ] ->
      Alcotest.failf "BUSY with wrong retry-after hint %d" h
  | rs ->
      Alcotest.failf "expected one seq-0 BUSY frame, got %d" (List.length rs));
  Alcotest.(check bool) "shed counted" true (counter "shed" >= 1);
  Alcotest.(check bool) "shedding reports overload" true (Server.overloaded srv);
  (* Freeing a slot readmits: close one admitted connection, then a
     fresh client (with retries to absorb the close-detection lag)
     succeeds. *)
  Server.Client.close c1;
  await "slot freed" (fun () -> Server.live_conns srv <= 1);
  with_client ~retries:5 port @@ fun c3 ->
  Alcotest.(check bool) "readmitted" true (Server.Client.insert c3 9)

(* ------------------------------------------------------------------ *)
(* Queue deadline: with a zero budget every pipelined request is
   declined with a seq-tagged BUSY — counted, not executed — and the
   stream stays synchronized. *)

let test_queue_deadline_busy () =
  let limits =
    { Server.default_limits with
      Server.queue_deadline_ns = Some 0;
      retry_after_ms = 9 }
  in
  with_server ~domains:1 ~limits ~universe:64 @@ fun port ->
  with_client port @@ fun c ->
  let results =
    Server.Client.pipeline c (List.init 16 (fun i -> P.Insert (i mod 32)))
  in
  Alcotest.(check int) "every request answered" 16 (List.length results);
  let busy =
    List.length
      (List.filter (function P.Busy _ -> true | _ -> false) results)
  in
  Alcotest.(check bool) "pipeline declined under zero budget" true (busy >= 1);
  List.iter
    (function
      | P.Busy { retry_after_ms } ->
          Alcotest.(check int) "hint" 9 retry_after_ms
      | P.Bool _ -> () (* clock granularity can let a frame through *)
      | _ -> Alcotest.fail "unexpected result under queue deadline")
    results;
  Alcotest.(check bool) "busy replies counted" true
    (counter "busy_replies" >= busy);
  (* Declined requests did not execute: the insert counter moved only
     for the requests that came back Bool. *)
  let executed =
    List.length (List.filter (function P.Bool _ -> true | _ -> false) results)
  in
  Alcotest.(check int) "declines not executed" executed (counter "insert")

(* ------------------------------------------------------------------ *)
(* Slow reader, soft cap: once the per-connection output buffer passes
   the soft cap the server stops reading that fd, so the request
   counter plateaus below the offered load; draining the responses
   un-stalls it and every request is eventually answered. *)

let size_requests n =
  let b = Buffer.create (n * 9) in
  for _ = 1 to n do
    P.encode_request b { P.seq = 1; op = P.Size }
  done;
  Buffer.to_bytes b

let sends_done fd bytes off =
  (* Push as much of [bytes] from [off] as the socket accepts. *)
  let n = Bytes.length bytes in
  let rec go off =
    if off >= n then off
    else
      match Unix.write fd bytes off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go off

let test_soft_cap_stalls_then_resumes () =
  let limits =
    { Server.default_limits with
      Server.soft_buffer_bytes = 2 * 1024;
      hard_buffer_bytes = 8 * 1024 * 1024 }
  in
  with_server ~domains:1 ~limits ~universe:64 @@ fun port ->
  (* The response volume must beat the kernel's send-buffer autotuning
     ceiling (tcp_wmem max, typically 4 MiB) or the flood never backs
     up into the server's userspace buffer and the cap stays inert. *)
  let total = 500_000 in
  let bytes = size_requests total in
  let fd = raw_connect ~rcvbuf:4096 port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.set_nonblock fd;
  (* Phase 1: flood without reading.  The server must stop absorbing
     requests well short of [total]. *)
  let off = ref (sends_done fd bytes 0) in
  let stable = ref (-1) and stable_since = ref 0. in
  await ~timeout_s:15.0 "request counter plateau" (fun () ->
      off := sends_done fd bytes !off;
      let served = counter "size" in
      if served >= total then
        Alcotest.fail "server absorbed the whole flood; soft cap inert";
      if served <> !stable then begin
        stable := served;
        stable_since := Unix.gettimeofday ();
        false
      end
      else served > 0 && Unix.gettimeofday () -. !stable_since > 0.5);
  Alcotest.(check bool) "stalled below offered load" true (!stable < total);
  (* Phase 2: drain responses while finishing the writes; the server
     resumes reading and answers every request. *)
  let answered = ref 0 in
  let buf = Bytes.create 65536 in
  let reader = P.Reader.create () in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while !answered < total do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "drain stuck at %d/%d responses" !answered total;
    off := sends_done fd bytes !off;
    (match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Alcotest.fail "server closed a merely-slow connection"
    | n ->
        P.Reader.feed reader buf n;
        let rec drain () =
          match P.Reader.next_payload reader with
          | `None -> ()
          | `Bad msg -> Alcotest.failf "framing error: %s" msg
          | `Payload (_, _, _) ->
              incr answered;
              drain ()
        in
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Unix.sleepf 0.002
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  done;
  Alcotest.(check int) "all requests eventually answered" total !answered;
  Alcotest.(check int) "no eviction at the soft cap" 0 (counter "evicted_slow");
  await "buffer gauge drains" (fun () -> counter "conn_buffer_bytes" = 0)

(* ------------------------------------------------------------------ *)
(* Slow reader, hard cap: a client that never reads is evicted once
   its buffered responses pass the hard cap; the server stays up. *)

let test_hard_cap_evicts () =
  let limits =
    { Server.default_limits with
      Server.soft_buffer_bytes = 4 * 1024;
      hard_buffer_bytes = 8 * 1024 }
  in
  with_server ~domains:1 ~limits ~universe:64 @@ fun port ->
  (* Enough responses to overflow kernel buffering (see the soft-cap
     test) and then blow the 8 KiB hard cap. *)
  let bytes = size_requests 800_000 in
  let fd = raw_connect ~rcvbuf:4096 port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.set_nonblock fd;
  let off = ref 0 in
  await ~timeout_s:20.0 "slow-reader eviction" (fun () ->
      off := sends_done fd bytes !off;
      counter "evicted_slow" >= 1);
  (* The evicted fd reaches EOF (or reset) once the kernel buffers are
     consumed; meanwhile the server keeps serving other clients. *)
  with_client port @@ fun c ->
  Alcotest.(check bool) "server alive after eviction" true
    (Server.Client.insert c 3)

(* ------------------------------------------------------------------ *)
(* Idle reaper: a connection with no traffic and no pending output is
   closed after idle_timeout_s; the next use of it fails. *)

let test_idle_reaper () =
  let limits =
    { Server.default_limits with Server.idle_timeout_s = Some 0.2 }
  in
  with_server ~domains:1 ~limits ~universe:64 @@ fun port ->
  with_client port @@ fun c ->
  Alcotest.(check bool) "live before idling" true (Server.Client.insert c 1);
  await "idle connection reaped" (fun () -> counter "idle_reaped" >= 1);
  (match Server.Client.insert c 2 with
  | _ -> Alcotest.fail "request on a reaped connection succeeded"
  | exception Server.Client.Protocol_error _ -> ());
  (* A fresh, active connection is not reaped mid-conversation. *)
  with_client port @@ fun c2 ->
  for i = 0 to 9 do
    ignore (Server.Client.member c2 i);
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "active connection survives" true
    (Server.Client.insert c2 5)

(* ------------------------------------------------------------------ *)
(* Client retry layer: with max_conns = 1 and the slot hogged, a
   client with a retry budget blocks in bounded backoff and succeeds
   once the hog disconnects. *)

let test_client_retries_through_shed () =
  let limits =
    { Server.default_limits with
      Server.max_conns = Some 1;
      retry_after_ms = 10 }
  in
  let srv = pat_server ~limits ~universe:64 () in
  Fun.protect ~finally:(fun () -> Server.stop ~drain_s:0.5 srv) @@ fun () ->
  let port = Server.port srv in
  let hog = Server.Client.connect ~port () in
  ignore (Server.Client.insert hog 1);
  let release =
    Domain.spawn (fun () ->
        Unix.sleepf 0.25;
        Server.Client.close hog)
  in
  Fun.protect ~finally:(fun () -> Domain.join release) @@ fun () ->
  with_client ~retries:10 port @@ fun c ->
  Alcotest.(check bool) "retried insert lands" true (Server.Client.insert c 7);
  Alcotest.(check bool) "at least one shed happened" true (counter "shed" >= 1)

(* The open-loop generator against a one-connection server: two of its
   three domains are shed at accept, again after every reconnect.  The
   sheds show up as BUSY and disconnects, [run] returns instead of
   raising, and every offered request is still accounted for. *)
let test_open_loop_counts_sheds () =
  let limits = { Server.default_limits with Server.max_conns = Some 1 } in
  with_server ~limits ~universe:4_096 @@ fun port ->
  let r =
    Server.Loadgen.run
      {
        Server.Loadgen.default_config with
        port;
        domains = 3;
        pacing = Open 3_000.0;
        seconds = 0.6;
        universe = 4_096;
        seed = 29;
      }
  in
  let open Server.Loadgen in
  Alcotest.(check int) "offered = acked + busy + errors + lost" r.offered
    (r.acked + r.busy + r.errors + r.lost);
  Alcotest.(check bool) "the admitted domain made progress" true (r.acked > 0);
  Alcotest.(check bool) "sheds counted as disconnects" true (r.disconnects > 0);
  Alcotest.(check bool) "shed requests counted as busy" true (r.busy > 0);
  Alcotest.(check bool) "the server shed" true (counter "shed" >= 1)

(* Reconnect-and-resend: the server closes the connection while the
   client still has a pipelined window outstanding (the idle reaper
   stands in for any server-side close).  The dead window is forgotten
   — its replies can never be matched — but the next synchronous helper
   on the same client must transparently reconnect and resend. *)

let test_reconnect_resend_mid_window () =
  let limits =
    { Server.default_limits with Server.idle_timeout_s = Some 0.2 }
  in
  with_server ~domains:1 ~limits ~universe:256 @@ fun port ->
  with_client ~retries:3 port @@ fun c ->
  (* A full window in flight, responses deliberately not drained... *)
  ignore
    (Server.Client.send_many c (List.init 8 (fun i -> P.Insert i)) : int list);
  (* ...while the server closes the connection under the client. *)
  let base = counter "idle_reaped" in
  await "connection closed mid-window" (fun () -> counter "idle_reaped" > base);
  (* The first attempt trips over the dead connection (stale responses
     or EOF); the retry layer reconnects and resends.  Key 100 was not
     in the lost window, so [true] proves the resend executed. *)
  Alcotest.(check bool) "reconnect-and-resend lands" true
    (Server.Client.insert c 100);
  Alcotest.(check bool) "resent connection stays usable" true
    (Server.Client.member c 100)

(* Without a retry budget the same shed surfaces as Busy with the
   server's hint. *)
let test_client_no_retries_raises_busy () =
  let limits =
    { Server.default_limits with
      Server.max_conns = Some 1;
      retry_after_ms = 33 }
  in
  with_server ~limits ~universe:64 @@ fun port ->
  with_client port @@ fun hog ->
  ignore (Server.Client.insert hog 1);
  with_client port @@ fun c ->
  match Server.Client.insert c 2 with
  | _ -> Alcotest.fail "insert through a full server succeeded"
  | exception Server.Client.Busy { retry_after_ms } ->
      Alcotest.(check int) "hint surfaced" 33 retry_after_ms

(* ------------------------------------------------------------------ *)
(* Watchdog integration: /healthz is ok before overload, reports
   degraded:overload while shedding, and recovers to ok after the
   hysteresis window. *)

let test_healthz_overload_cycle () =
  let wd = Obs.Watchdog.create () in
  let limits =
    { Server.default_limits with
      Server.max_conns = Some 1;
      overload_hold_s = 0.4 }
  in
  with_server ~watchdog:wd ~limits ~universe:64 @@ fun port ->
  let health () = Obs.Watchdog.healthz wd () in
  (match health () with
  | 200, "ok\n" -> ()
  | code, body -> Alcotest.failf "expected ok, got %d %S" code body);
  with_client port @@ fun hog ->
  ignore (Server.Client.insert hog 1);
  (* Trip the admission limit. *)
  let fd = raw_connect port in
  ignore (read_until_eof fd);
  Unix.close fd;
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (match health () with
  | 200, body when contains body "degraded" && contains body "overload" -> ()
  | code, body ->
      Alcotest.failf "expected degraded:overload, got %d %S" code body);
  await "overload clears after hysteresis" (fun () ->
      match health () with 200, "ok\n" -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Abrupt disconnects: a client that pipelines a window and vanishes
   (RST via SO_LINGER 0) must cost at most its own connection. *)

let test_abrupt_close_is_contained () =
  with_server ~limits:Server.default_limits ~universe:256 @@ fun port ->
  for _ = 1 to 10 do
    let fd = raw_connect port in
    let b = Buffer.create 1024 in
    for i = 1 to 50 do
      P.encode_request b { P.seq = i; op = P.Insert (i mod 256) }
    done;
    let bytes = Buffer.to_bytes b in
    ignore (Unix.write fd bytes 0 (Bytes.length bytes));
    Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
    Unix.close fd
  done;
  with_client port @@ fun c ->
  (* Key 77 was in none of the aborted pipelines, so a true insert
     proves the server both survived and stayed consistent. *)
  Alcotest.(check bool) "server alive after abrupt closes" true
    (Server.Client.insert c 77)

(* ------------------------------------------------------------------ *)
(* Stop with idle connections: the drain loop must not wait out the
   full drain budget on connections with nothing in flight. *)

let test_stop_closes_idle_quickly () =
  let srv = pat_server ~limits:Server.default_limits ~universe:64 () in
  let port = Server.port srv in
  let c = Server.Client.connect ~port () in
  ignore (Server.Client.insert c 1);
  let t0 = Unix.gettimeofday () in
  Server.stop ~drain_s:10.0 srv;
  let dt = Unix.gettimeofday () -. t0 in
  Server.Client.close c;
  if dt > 3.0 then
    Alcotest.failf "stop took %.1fs with only an idle connection" dt

let () =
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "shed at max-conns" `Quick test_shed_at_max_conns;
          Alcotest.test_case "queue deadline declines" `Quick
            test_queue_deadline_busy;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "soft cap stalls then resumes" `Slow
            test_soft_cap_stalls_then_resumes;
          Alcotest.test_case "hard cap evicts" `Slow test_hard_cap_evicts;
          Alcotest.test_case "idle reaper" `Quick test_idle_reaper;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "client retries through shed" `Quick
            test_client_retries_through_shed;
          Alcotest.test_case "reconnect-and-resend mid window" `Quick
            test_reconnect_resend_mid_window;
          Alcotest.test_case "client surfaces busy" `Quick
            test_client_no_retries_raises_busy;
          Alcotest.test_case "healthz overload cycle" `Quick
            test_healthz_overload_cycle;
          Alcotest.test_case "abrupt close contained" `Quick
            test_abrupt_close_is_contained;
          Alcotest.test_case "stop closes idle quickly" `Quick
            test_stop_closes_idle_quickly;
          Alcotest.test_case "open loop counts sheds" `Quick
            test_open_loop_counts_sheds;
        ] );
    ]
