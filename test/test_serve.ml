(* Tests for the live scrape endpoint (Obs.Serve + Harness.Live): an
   ephemeral-port server scraped by a raw-socket HTTP client while a
   concurrent trie workload runs, plus routing and shutdown behavior. *)

module S = Obs.Serve

(* ------------------------------------------------------------------ *)
(* Minimal HTTP/1.1 client over stdlib Unix, mirroring what curl or a
   Prometheus scraper sends. *)

let http_request ?(meth = "GET") ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
      meth path
  in
  let b = Bytes.of_string req in
  let rec send off =
    if off < Bytes.length b then
      send (off + Unix.write fd b off (Bytes.length b - off))
  in
  send 0;
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
  let raw = Buffer.contents out in
  (* Split status line + headers from body at the blank line. *)
  let headers, body =
    let rec find i =
      if i + 3 >= String.length raw then (raw, "")
      else if String.sub raw i 4 = "\r\n\r\n" then
        (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
      else find (i + 1)
    in
    find 0
  in
  let status =
    match String.split_on_char ' ' headers with
    | _ :: code :: _ -> int_of_string code
    | _ -> 0
  in
  (status, headers, body)

(* Value of a un-labelled sample line, e.g. "repro_ops_total 42". *)
let sample_value body name =
  let prefix = name ^ " " in
  let lines = String.split_on_char '\n' body in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  with
  | Some l ->
      float_of_string
        (String.sub l (String.length prefix)
           (String.length l - String.length prefix))
  | None -> Alcotest.fail (Printf.sprintf "no sample %S in exposition" name)

(* Structural check of the text exposition: every non-empty line is a
   comment or "name[{labels}] value" with a parseable float value, and
   each metric family's samples are contiguous (HELP/TYPE declared once,
   before first use). *)
let check_exposition body =
  let family_of line =
    match String.index_opt line '{' with
    | Some i -> String.sub line 0 i
    | None -> (
        match String.index_opt line ' ' with
        | Some i -> String.sub line 0 i
        | None -> line)
  in
  (* A summary's quantile samples share the family of their _count/_sum. *)
  let base f =
    let strip suffix f =
      if Filename.check_suffix f suffix then Filename.chop_suffix f suffix
      else f
    in
    strip "_count" (strip "_sum" f)
  in
  let seen = Hashtbl.create 32 in
  let last = ref "" in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        (match String.rindex_opt line ' ' with
        | None -> Alcotest.fail (Printf.sprintf "sample without value: %S" line)
        | Some i -> (
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some _ -> ()
            | None ->
                Alcotest.fail (Printf.sprintf "unparseable value in %S" line)));
        let fam = base (family_of line) in
        if fam <> !last then begin
          if Hashtbl.mem seen fam then
            Alcotest.fail
              (Printf.sprintf "family %S not contiguous in exposition" fam);
          Hashtbl.add seen fam ();
          last := fam
        end
      end)
    (String.split_on_char '\n' body)

(* ------------------------------------------------------------------ *)
(* Routing, status codes, shutdown *)

let test_serve_routing () =
  let srv = S.start ~port:0 (fun () -> "# scrape\nup 1\n") in
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let port = S.port srv in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let status, headers, body = http_request ~port "/metrics" in
  Alcotest.(check int) "metrics 200" 200 status;
  Alcotest.(check string) "producer body" "# scrape\nup 1\n" body;
  Alcotest.(check bool)
    "prometheus content type" true
    (let ct = "text/plain; version=0.0.4" in
     let rec contains i =
       i + String.length ct <= String.length headers
       && (String.sub headers i (String.length ct) = ct || contains (i + 1))
     in
     contains 0);
  let status, _, _ = http_request ~port "/metrics?debug=1" in
  Alcotest.(check int) "query string stripped" 200 status;
  let status, _, body = http_request ~port "/healthz" in
  Alcotest.(check int) "healthz 200" 200 status;
  Alcotest.(check string) "healthz body" "ok\n" body;
  let status, _, _ = http_request ~port "/nope" in
  Alcotest.(check int) "unknown path 404" 404 status;
  let status, _, _ = http_request ~meth:"POST" ~port "/metrics" in
  Alcotest.(check int) "non-GET 405" 405 status

let test_serve_producer_failure_is_500 () =
  let srv = S.start ~port:0 (fun () -> failwith "snapshot exploded") in
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let status, _, _ = http_request ~port:(S.port srv) "/metrics" in
  Alcotest.(check int) "producer exception is 500" 500 status;
  (* The listener survives a producer failure. *)
  let status, _, _ = http_request ~port:(S.port srv) "/healthz" in
  Alcotest.(check int) "still serving" 200 status

let test_serve_stop () =
  let srv = S.start ~port:0 (fun () -> "x\n") in
  let port = S.port srv in
  let status, _, _ = http_request ~port "/healthz" in
  Alcotest.(check int) "serving before stop" 200 status;
  S.stop srv;
  S.stop srv;
  (* idempotent *)
  Alcotest.(check bool)
    "connection refused after stop" true
    (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () ->
         try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
     @@ fun () ->
     match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
     | () -> false
     | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)

(* ------------------------------------------------------------------ *)
(* Scraping the real Harness.Live exposition during a concurrent trie
   workload: counters are present, the exposition is well-formed, and
   repro_ops_total is monotone across two scrapes. *)

let run_batch trie =
  let worker seed =
    Domain.spawn (fun () ->
        let rng = Rng.of_int_seed seed in
        for _ = 1 to 10_000 do
          let k = Rng.int rng 512 in
          (if Rng.int rng 2 = 0 then ignore (Core.Patricia.insert trie k)
           else ignore (Core.Patricia.delete trie k));
          Harness.Live.tick ()
        done)
  in
  let ds = [ worker 11; worker 23 ] in
  List.iter Domain.join ds

let test_serve_live_scrape () =
  Harness.Live.set_enabled true;
  let trie = Core.Patricia.create ~universe:512 ~record_stats:true () in
  Harness.Live.set_stats_source
    (Some
       (fun () ->
         Core.Patricia.(stats_to_alist (Option.get (stats_snapshot trie)))));
  let srv = S.start ~port:0 Harness.Live.prometheus in
  Fun.protect
    ~finally:(fun () ->
      S.stop srv;
      Harness.Live.set_stats_source None;
      Harness.Live.set_enabled false)
  @@ fun () ->
  let port = S.port srv in
  (* First batch runs concurrently with the first scrape; the second
     scrape happens after both batches completed, so it must observe
     every tick the first scrape observed, and then some. *)
  let batch1 = Domain.spawn (fun () -> run_batch trie) in
  let status, _, body1 = http_request ~port "/metrics" in
  Alcotest.(check int) "mid-run scrape 200" 200 status;
  Domain.join batch1;
  run_batch trie;
  let status, _, body2 = http_request ~port "/metrics" in
  Alcotest.(check int) "second scrape 200" 200 status;
  check_exposition body1;
  check_exposition body2;
  Alcotest.(check bool) "up" true (sample_value body2 "repro_up" = 1.0);
  let ops1 = sample_value body1 "repro_ops_total" in
  let ops2 = sample_value body2 "repro_ops_total" in
  Alcotest.(check bool)
    "ops_total monotone across scrapes" true
    (ops2 >= ops1);
  (* After both batches joined, the striped counter sum is exact. *)
  Alcotest.(check (float 0.0)) "ops_total exact" 40_000.0 ops2;
  (* The trie's attempts are counted, and its retry-cause counters are
     exposed (zero or not). *)
  Alcotest.(check bool)
    "repro_trie_attempts_total > 0" true
    (sample_value body2 "repro_trie_attempts_total" > 0.0);
  List.iter
    (fun cause ->
      let name = "repro_trie_" ^ cause ^ "_total" in
      Alcotest.(check bool) name true (sample_value body2 name >= 0.0))
    [ "flag_failures"; "child_cas_lost"; "flagged_ancestor"; "backtracks";
      "conflicts" ]

(* ------------------------------------------------------------------ *)
(* Health hook and custom routes (the watchdog/slowlog wiring) *)

let test_serve_health_hook () =
  (* The /healthz body is whatever the hook says, with its status code:
     degraded stays 200 (scrape keeps working), stalled is 503 (load
     balancers drain), a throwing hook is a 500, and the default
     hook-less endpoint still answers ok. *)
  let verdict = ref (200, "ok\n") in
  let s =
    S.start ~port:0 ~health:(fun () -> !verdict) (fun () -> "x 1\n")
  in
  Fun.protect ~finally:(fun () -> S.stop s) @@ fun () ->
  let port = S.port s in
  let code, _, body = http_request ~port "/healthz" in
  Alcotest.(check (pair int string)) "ok" (200, "ok\n") (code, body);
  verdict := (200, "degraded: wal-queue=12 above degraded threshold 10\n");
  let code, _, body = http_request ~port "/healthz" in
  Alcotest.(check int) "degraded stays 200" 200 code;
  Alcotest.(check string) "degraded body" (snd !verdict) body;
  verdict := (503, "stalled: worker-1 stalled for 6.0s\n");
  let code, _, body = http_request ~port "/healthz" in
  Alcotest.(check int) "stalled is 503" 503 code;
  Alcotest.(check string) "stalled body" (snd !verdict) body

let test_serve_health_hook_exception () =
  let s =
    S.start ~port:0 ~health:(fun () -> failwith "probe boom") (fun () -> "x 1\n")
  in
  Fun.protect ~finally:(fun () -> S.stop s) @@ fun () ->
  let code, _, _ = http_request ~port:(S.port s) "/healthz" in
  Alcotest.(check int) "throwing hook is 500" 500 code

let test_serve_custom_routes () =
  let hits = Atomic.make 0 in
  let routes =
    [
      ( "/debug/slowlog",
        fun () ->
          Atomic.incr hits;
          ("application/json", "{\"entries\": []}\n") );
    ]
  in
  let s = S.start ~port:0 ~routes (fun () -> "x 1\n") in
  Fun.protect ~finally:(fun () -> S.stop s) @@ fun () ->
  let port = S.port s in
  let code, headers, body = http_request ~port "/debug/slowlog" in
  Alcotest.(check int) "route answers 200" 200 code;
  Alcotest.(check string) "route body" "{\"entries\": []}\n" body;
  let rec contains hay i =
    i + 16 <= String.length hay
    && (String.sub hay i 16 = "application/json" || contains hay (i + 1))
  in
  Alcotest.(check bool) "content type honoured" true (contains headers 0);
  Alcotest.(check int) "handler ran once" 1 (Atomic.get hits);
  (* Routes do not shadow the built-ins, and misses still 404. *)
  let code, _, _ = http_request ~port "/metrics" in
  Alcotest.(check int) "metrics still served" 200 code;
  let code, _, _ = http_request ~port "/debug/other" in
  Alcotest.(check int) "unknown path 404s" 404 code

(* A listening socket closed under the poller: every select then fails
   with EBADF, which the poller must count (and keep polling) instead of
   reading it as "nothing arrived". *)
let test_accept_poll_counts_errors () =
  let sock, _ = Obs.Net.listen_tcp ~addr:"127.0.0.1" ~port:0 ~backlog:4 () in
  let errors () = Obs.Counter.sum Obs.Net.accept_errors in
  let before = errors () in
  let stop = Atomic.make false and polls = Atomic.make 0 in
  let poller =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (match
             Obs.Net.accept_poll ~stopping:(fun () -> false) ~timeout_s:0.01 sock
           with
          | Some fd -> Unix.close fd
          | None -> ());
          Atomic.incr polls
        done)
  in
  let wait_until cond =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done
  in
  wait_until (fun () -> Atomic.get polls >= 2);
  Alcotest.(check int) "no error while open" before (errors ());
  Unix.close sock;
  wait_until (fun () -> errors () > before);
  let after = errors () and polled = Atomic.get polls in
  wait_until (fun () -> Atomic.get polls >= polled + 2);
  let still_polling = Atomic.get polls >= polled + 2 in
  Atomic.set stop true;
  Domain.join poller;
  Alcotest.(check bool) "closed socket counted" true (after > before);
  Alcotest.(check bool) "still polling" true still_polling

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "routing and status codes" `Quick
            test_serve_routing;
          Alcotest.test_case "producer failure is 500" `Quick
            test_serve_producer_failure_is_500;
          Alcotest.test_case "stop is clean and idempotent" `Quick
            test_serve_stop;
          Alcotest.test_case "live scrape under concurrent workload" `Quick
            test_serve_live_scrape;
          Alcotest.test_case "health hook verdicts" `Quick
            test_serve_health_hook;
          Alcotest.test_case "health hook exception is 500" `Quick
            test_serve_health_hook_exception;
          Alcotest.test_case "custom routes" `Quick test_serve_custom_routes;
          Alcotest.test_case "accept_poll counts errors" `Quick
            test_accept_poll_counts_errors;
        ] );
    ]
