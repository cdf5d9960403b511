(* End-to-end tests of the patserve server: semantics against a model
   over a real loopback connection, pipelining, batch, error handling
   (application-level errors leave the stream usable, framing-level
   errors close it without hurting other connections), graceful stop,
   the load generator's accounting in both pacings and its journal, and a
   linearizability check where every operation is a network round
   trip. *)

module IS = Set.Make (Int)
module P = Server.Protocol

let pat_server ?(domains = 2) ~universe () =
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
  (trie, Server.start ~port:0 ~domains ops)

let with_server ?domains ~universe f =
  let trie, srv = pat_server ?domains ~universe () in
  Fun.protect ~finally:(fun () -> Server.stop ~drain_s:0.5 srv) @@ fun () ->
  f trie (Server.port srv)

let with_client port f =
  let c = Server.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () -> f c

(* ------------------------------------------------------------------ *)

let test_model_over_network () =
  with_server ~universe:256 @@ fun _ port ->
  with_client port @@ fun c ->
  let rng = Rng.of_int_seed 7 in
  let model = ref IS.empty in
  for step = 1 to 5_000 do
    let k = Rng.int rng 256 in
    match Rng.int rng 4 with
    | 0 ->
        let e = not (IS.mem k !model) in
        if Server.Client.insert c k <> e then
          Alcotest.failf "insert %d wrong at step %d" k step;
        model := IS.add k !model
    | 1 ->
        let e = IS.mem k !model in
        if Server.Client.delete c k <> e then
          Alcotest.failf "delete %d wrong at step %d" k step;
        model := IS.remove k !model
    | 2 ->
        if Server.Client.member c k <> IS.mem k !model then
          Alcotest.failf "member %d wrong at step %d" k step
    | _ ->
        let add = Rng.int rng 256 in
        let e = IS.mem k !model && not (IS.mem add !model) in
        if Server.Client.replace c ~remove:k ~add <> e then
          Alcotest.failf "replace %d->%d wrong at step %d" k add step;
        if e then model := IS.add add (IS.remove k !model)
  done;
  Alcotest.(check int) "final size" (IS.cardinal !model) (Server.Client.size c)

let test_pipelining_order () =
  with_server ~universe:1_024 @@ fun _ port ->
  with_client port @@ fun c ->
  (* A full window sent before any response is read; responses must
     come back in request order with matching tags, and the effects
     must chain (insert k answered before member k). *)
  let ops =
    List.concat_map (fun k -> [ P.Insert k; P.Member k; P.Delete k ])
      (List.init 100 Fun.id)
  in
  let results = Server.Client.pipeline c ops in
  Alcotest.(check int) "response count" (List.length ops) (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | P.Bool b ->
          if not b then Alcotest.failf "pipelined op %d answered false" i
      | _ -> Alcotest.failf "pipelined op %d: unexpected result" i)
    results

let test_batch () =
  with_server ~universe:512 @@ fun _ port ->
  with_client port @@ fun c ->
  let keys = List.init 300 (fun i -> i) in
  let r1 = Server.Client.batch c (List.map (fun k -> P.Insert k) keys) in
  Alcotest.(check bool) "all inserted" true (List.for_all Fun.id r1);
  let r2 = Server.Client.batch c (List.map (fun k -> P.Member k) keys) in
  Alcotest.(check bool) "all present" true (List.for_all Fun.id r2);
  Alcotest.(check int) "size" 300 (Server.Client.size c)

(* SCAN/RANGE over the wire: paging with resumable cursors against a
   quiescent server, then pipelined scans racing concurrent mutations
   from a second connection — every page must honor the cursor
   contract, and quiescent full scans must equal the trie exactly. *)
let test_scan_pages () =
  with_server ~universe:4_096 @@ fun trie port ->
  with_client port @@ fun c ->
  (* Empty server: one complete, empty page. *)
  let p0 = Server.Client.scan_page ~count:16 c ~cursor:(-1) in
  Alcotest.(check bool) "empty complete" true p0.Server.Client.complete;
  Alcotest.(check (list int)) "empty keys" [] p0.Server.Client.keys;
  (* Populate with a known pattern and page through with a small page
     size; the concatenation must be exactly the contents, ascending. *)
  let keys = List.init 500 (fun i -> (i * 7) mod 4_096) |> List.sort_uniq compare in
  List.iter (fun k -> assert (Server.Client.insert c k)) keys;
  let pages = ref 0 in
  let got = Server.Client.scan ~count:64 ~f:(fun _ -> incr pages) c in
  Alcotest.(check (list int)) "scan equals contents" keys got;
  Alcotest.(check bool) "paged, not one shot" true (!pages >= 7);
  (* Resumable by hand: a page starting past cursor k returns keys > k
     only, and the advertised next_cursor resumes without overlap. *)
  let p1 = Server.Client.scan_page ~count:10 c ~cursor:(-1) in
  let p2 =
    Server.Client.scan_page ~count:10 c ~cursor:p1.Server.Client.next_cursor
  in
  (match (p1.Server.Client.keys, p2.Server.Client.keys) with
  | _ :: _, k2 :: _ ->
      Alcotest.(check bool) "no overlap" true
        (k2 > p1.Server.Client.next_cursor)
  | _ -> Alcotest.fail "expected non-empty pages");
  (* RANGE restricts the walk. *)
  let lo, hi = (100, 900) in
  let want = List.filter (fun k -> k >= lo && k <= hi) keys in
  let got = Server.Client.scan ~count:64 ~range:(lo, hi) c in
  Alcotest.(check (list int)) "range equals filtered contents" want got;
  (* A single page covering the whole universe is atomic: equals the
     trie's to_list at the snapshot point — quiescent, so now. *)
  let p = Server.Client.scan_page ~count:4_096 c ~cursor:(-1) in
  Alcotest.(check bool) "one-page complete" true p.Server.Client.complete;
  Alcotest.(check (list int))
    "one page equals trie" (Core.Patricia.to_list trie) p.Server.Client.keys

let test_scan_interleaved_with_mutations () =
  with_server ~domains:2 ~universe:8_192 @@ fun _ port ->
  with_client port @@ fun scanner ->
  with_client port @@ fun mutator ->
  (* Seed half the universe. *)
  let seeded = List.init 2_048 (fun i -> i * 4) in
  ignore (Server.Client.batch mutator (List.map (fun k -> P.Insert k) seeded));
  (* Pipeline scans from one connection while a second connection
     mutates between pages.  Checks: every page sorted and past its
     cursor (the loadgen verification, inlined), scans terminate, and
     keys never scanned twice within one logical scan. *)
  let stop = Atomic.make false in
  let mut =
    Domain.spawn (fun () ->
        let rng = Rng.of_int_seed 11 in
        let n = ref 0 in
        while not (Atomic.get stop) do
          let k = Rng.int rng 8_192 in
          (match Rng.int rng 3 with
          | 0 -> ignore (Server.Client.insert mutator k)
          | 1 -> ignore (Server.Client.delete mutator k)
          | _ ->
              ignore (Server.Client.replace mutator ~remove:k ~add:(8_191 - k)));
          incr n
        done;
        !n)
  in
  let scans = ref 0 in
  Fun.protect ~finally:(fun () ->
      Atomic.set stop true;
      let muts = Domain.join mut in
      Alcotest.(check bool) "mutator made progress" true (muts > 0))
  @@ fun () ->
  for _ = 1 to 20 do
    let last = ref (-1) in
    let total = ref 0 in
    let keys =
      Server.Client.scan ~count:256
        ~f:(fun p ->
          List.iter
            (fun k ->
              if k <= !last then
                Alcotest.failf "page key %d not past cursor %d" k !last;
              last := k)
            p.Server.Client.keys;
          total := !total + List.length p.Server.Client.keys)
        scanner
    in
    Alcotest.(check int) "no key scanned twice" (List.length keys) !total;
    incr scans
  done;
  Alcotest.(check int) "all scans completed" 20 !scans

let test_app_error_keeps_stream () =
  with_server ~universe:16 @@ fun _ port ->
  with_client port @@ fun c ->
  (* Key 1000 is outside the trie's universe: the operation raises on
     the server, which must answer this request with ERROR and keep
     serving the connection. *)
  let results =
    Server.Client.pipeline c [ P.Insert 3; P.Insert 1000; P.Insert 5 ]
  in
  (match results with
  | [ P.Bool true; P.Error _; P.Bool true ] -> ()
  | _ -> Alcotest.fail "expected Bool/Error/Bool");
  Alcotest.(check int) "stream still usable" 2 (Server.Client.size c)

let read_until_eof fd =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 64 in
  let rec go () =
    match Unix.read fd buf 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
  in
  (try go () with Unix.Unix_error (_, _, _) -> ());
  Buffer.to_bytes out

let test_framing_error_closes_connection () =
  with_server ~universe:16 @@ fun _ port ->
  (* Raw socket with a hostile 4 GiB length prefix: the server must
     answer with an ERROR frame tagged seq 0 and close — and other
     connections must be unaffected. *)
  with_client port @@ fun healthy ->
  ignore (Server.Client.insert healthy 1);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let garbage = Bytes.of_string "\xFF\xFF\xFF\xFF\x00\x00\x00\x00" in
  ignore (Unix.write fd garbage 0 (Bytes.length garbage));
  let answer = read_until_eof fd in
  Unix.close fd;
  (* One well-formed ERROR response frame, tagged seq 0. *)
  let r = P.Reader.create () in
  P.Reader.feed r answer (Bytes.length answer);
  (match P.Reader.next_payload r with
  | `Payload (buf, off, len) -> (
      match P.decode_response buf ~off ~len with
      | Ok { P.seq = 0; result = P.Error _ } -> ()
      | Ok _ -> Alcotest.fail "expected an ERROR response tagged seq 0"
      | Error m -> Alcotest.failf "undecodable error frame: %s" m)
  | `None -> Alcotest.fail "connection closed without an error frame"
  | `Bad m -> Alcotest.failf "server sent an unframeable answer: %s" m);
  (* The healthy connection never noticed. *)
  Alcotest.(check bool) "other connection fine" true
    (Server.Client.member healthy 1)

let test_garbage_bytes_never_kill_workers () =
  with_server ~universe:16 @@ fun _ port ->
  (* A volley of differently-garbled connections, then a real one: if
     any worker domain had died on an exception, the final client
     would hang or fail. *)
  let volleys =
    [
      "\x00\x00\x00\x01\xC8";                         (* short frame, bad opcode *)
      "\x00\x00\x00\x05\x00\x00\x00\x01\xC8";         (* framed, unknown opcode *)
      "\x00\x00\x00\x05\x00\x00\x00\x01\x01";         (* framed, truncated body *)
      "\xFF\xFF\xFF\xFF";                             (* absurd length prefix *)
      "\x00\x00\x00\x00";                             (* zero length prefix *)
      "\x00";                                         (* sub-prefix dribble *)
    ]
  in
  List.iter
    (fun s ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s));
      (* Half-close, so the dribble cases (no complete frame, hence no
         error answer) still reach EOF instead of deadlocking. *)
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error (_, _, _) -> ());
      ignore (read_until_eof fd);
      Unix.close fd)
    volleys;
  with_client port @@ fun c ->
  Alcotest.(check bool) "workers alive" true (Server.Client.insert c 3)

let test_stop_is_graceful_and_idempotent () =
  let _trie, srv = pat_server ~universe:64 () in
  let port = Server.port srv in
  let c = Server.Client.connect ~port () in
  ignore (Server.Client.insert c 1);
  (* In-flight pipelined requests are answered during the drain. *)
  let seqs = Server.Client.send_many c [ P.Member 1; P.Size ] in
  Server.stop ~drain_s:0.5 srv;
  (match List.map (fun s -> Server.Client.expect_seq s (Server.Client.recv c)) seqs with
  | [ P.Bool true; P.Count 1 ] -> ()
  | _ -> Alcotest.fail "drain did not answer in-flight requests");
  Server.Client.close c;
  (* Idempotent. *)
  Server.stop srv;
  (* The port is released: binding it again succeeds. *)
  let sock, port' = Obs.Net.listen_tcp ~addr:"127.0.0.1" ~port ~backlog:1 () in
  Obs.Net.close_noerr sock;
  Alcotest.(check int) "port released" port port'

let test_loadgen_size_accounting () =
  with_server ~domains:3 ~universe:2_048 @@ fun trie port ->
  let prefilled =
    Server.Loadgen.prefill ~port ~universe:2_048 ~seed:11 ()
  in
  Alcotest.(check int) "prefill half" 1_024 prefilled;
  let cfg =
    Server.Loadgen.
      {
        default_config with
        port;
        domains = 3;
        pacing = Closed 8;
        seconds = 0.4;
        universe = 2_048;
        mix = Harness.Mix.v ~insert:25 ~delete:25 ~find:25 ~replace:25 ();
        seed = 13;
      }
  in
  let r = Server.Loadgen.run cfg in
  Alcotest.(check int) "no errors" 0 r.Server.Loadgen.errors;
  Alcotest.(check bool) "made progress" true (r.Server.Loadgen.acked > 0);
  (* The whole point of the delta accounting: acknowledged effects add
     up to the observable size, and the server's size agrees with the
     structure underneath it. *)
  with_client port @@ fun c ->
  let final = Server.Client.size c in
  Alcotest.(check int) "size = prefill + delta"
    (prefilled + r.Server.Loadgen.size_delta)
    final;
  Alcotest.(check int) "served size = trie size" (Core.Patricia.size trie) final

(* The open loop shares the closed loop's accounting: every offered
   request is acked, declined, failed or lost; SCAN pages are verified;
   and with nothing lost the acknowledged effects replay to the served
   size.  Identities and progress only, never rates. *)
let test_loadgen_open_loop () =
  with_server ~domains:2 ~universe:2_048 @@ fun trie port ->
  let prefilled = Server.Loadgen.prefill ~port ~universe:2_048 ~seed:5 () in
  let r =
    Server.Loadgen.run
      {
        Server.Loadgen.default_config with
        port;
        domains = 2;
        pacing = Open 2_000.0;
        seconds = 0.5;
        universe = 2_048;
        mix = Harness.Mix.v ~insert:30 ~delete:30 ~find:20 ~replace:20 ();
        seed = 17;
        scan_every = 10;
        scan_count = 64;
      }
  in
  let open Server.Loadgen in
  Alcotest.(check int) "offered = acked + busy + errors + lost" r.offered
    (r.acked + r.busy + r.errors + r.lost);
  Alcotest.(check bool) "made progress" true (r.acked > 0);
  Alcotest.(check int) "no errors" 0 r.errors;
  Alcotest.(check bool) "scan pages verified" true (r.scan_pages > 0);
  Alcotest.(check bool) "late measured" true (r.late.Obs.Histogram.count > 0);
  if r.lost = 0 then
    with_client port @@ fun c ->
    let final = Server.Client.size c in
    Alcotest.(check int) "size = prefill + delta" (prefilled + r.size_delta)
      final;
    Alcotest.(check int) "served size = trie size" (Core.Patricia.size trie)
      final

(* A journaled closed loop whose server stops mid-run: every domain
   loses its connection, [run] returns instead of raising, and each
   domain's key slice of the served trie is its acknowledged history
   extended by a prefix of what it still had in flight. *)
let test_loadgen_journal_on_stop () =
  let universe = 3_000 and domains = 3 in
  let trie, srv = pat_server ~universe () in
  let stopper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Server.stop ~drain_s:0.1 srv)
  in
  let r =
    Server.Loadgen.run
      {
        Server.Loadgen.default_config with
        port = Server.port srv;
        domains;
        pacing = Closed 8;
        seconds = 30.0 (* the stop, not the clock, ends the run *);
        universe;
        mix = Harness.Mix.v ~insert:40 ~delete:20 ~find:10 ~replace:30 ();
        seed = 23;
        journal = true;
      }
  in
  Domain.join stopper;
  let open Server.Loadgen in
  Alcotest.(check int) "every connection lost" domains r.disconnects;
  Alcotest.(check bool) "made progress" true (r.acked > 0);
  Alcotest.(check int) "offered = acked + busy + errors + lost" r.offered
    (r.acked + r.busy + r.errors + r.lost);
  let served = IS.of_list (Core.Patricia.to_list trie) in
  let span = universe / domains in
  List.iteri
    (fun conn (j : journal) ->
      try
        Fixture.check_connection ~conn ~recovered:served ~lo:(conn * span)
          ~hi:((conn + 1) * span) j
      with Fixture.Violation m -> Alcotest.fail m)
    r.journals

(* Linearizability with every operation a network round trip.  The ops
   record hands each recording domain its own connection (the client is
   not domain-safe); [check] audits the trie behind the server. *)
let leaked_servers : Server.t list ref = ref []

let served_pat_ops ~universe () =
  let trie, srv = pat_server ~universe () in
  leaked_servers := srv :: !leaked_servers;
  let port = Server.port srv in
  let key = Domain.DLS.new_key (fun () -> Server.Client.connect ~port ()) in
  let c () = Domain.DLS.get key in
  Tutil.
    {
      label = "PAT/net";
      insert = (fun k -> Server.Client.insert (c ()) k);
      delete = (fun k -> Server.Client.delete (c ()) k);
      member = (fun k -> Server.Client.member (c ()) k);
      to_list = (fun () -> Core.Patricia.to_list trie);
      size = (fun () -> Server.Client.size (c ()));
      check = (fun () -> Core.Patricia.check_invariants trie);
      replace =
        Some (fun ~remove ~add -> Server.Client.replace (c ()) ~remove ~add);
      (* A single SCAN page covering the whole universe is answered
         from one frozen server-side snapshot, so the wire read is
         atomic and the battery checks it as a linearization point. *)
      scan_bits =
        Some
          (fun () ->
            let p =
              Server.Client.scan_page ~count:universe (c ()) ~cursor:(-1)
            in
            if not p.Server.Client.complete then
              Alcotest.fail "universe-sized SCAN page came back incomplete";
            List.fold_left
              (fun acc k -> acc lor (1 lsl k))
              0 p.Server.Client.keys);
    }

let test_linearizable_over_network () =
  Fun.protect ~finally:(fun () ->
      List.iter (Server.stop ~drain_s:0.1) !leaked_servers;
      leaked_servers := [])
  @@ fun () ->
  for round = 1 to 5 do
    Tutil.linearizable_run ~threads:3 ~ops_per_thread:10 ~universe:8
      ~seed:(round * 37) ~with_replace:true served_pat_ops
  done

(* ------------------------------------------------------------------ *)
(* Latency forensics: stage decomposition and the progress watchdog *)

let scrape_server_stages () =
  let b = Obs.Prometheus.create () in
  Server.Metrics.emit b;
  let samples, errors = Obs.Prometheus.parse_samples (Obs.Prometheus.to_string b) in
  Alcotest.(check (list string)) "exposition parses clean" [] errors;
  samples

let stage_sample samples ~op ~stage suffix =
  match
    Obs.Prometheus.find_sample samples
      ~name:("patserve_request_stage_ns" ^ suffix)
      ~labels:[ ("op", op); ("stage", stage) ]
  with
  | Some v -> v
  | None -> Alcotest.failf "missing stage sample %s/%s%s" op stage suffix

let test_stage_decomposition_bounds () =
  Server.Metrics.reset ();
  with_server ~domains:1 ~universe:1_024 @@ fun _ port ->
  with_client port @@ fun c ->
  let n = 200 in
  let t0 = Obs.Clock.now_ns () in
  for k = 0 to n - 1 do
    ignore (Server.Client.insert c k)
  done;
  (* Stages are finalized just after the reply is flushed, so the last
     request can land in the histograms a beat after the client reads
     its response — scrape until it does.  The wall-clock endpoint is
     taken after that settle: the worker's final [w1] stamp races the
     client's last read by a scheduling quantum, so closing the
     interval only once the sample is visible keeps the bound exact
     rather than true-up-to-preemption. *)
  let rec settle tries =
    let samples = scrape_server_stages () in
    if
      stage_sample samples ~op:"insert" ~stage:"total" "_count"
      >= float_of_int n
      || tries = 0
    then samples
    else begin
      Unix.sleepf 0.02;
      settle (tries - 1)
    end
  in
  let samples = settle 100 in
  let wall = Obs.Clock.now_ns () - t0 in
  let count stage = stage_sample samples ~op:"insert" ~stage "_count" in
  let sum stage = stage_sample samples ~op:"insert" ~stage "_sum" in
  Alcotest.(check (float 0.5)) "every request decomposed" (float_of_int n)
    (count "total");
  (* Each stage is recorded exactly once per request. *)
  List.iter
    (fun s ->
      Alcotest.(check (float 0.5)) (s ^ " count matches") (count "total")
        (count s))
    [ "queue"; "decode"; "trie"; "barrier"; "write" ];
  (* The decomposition never accounts for more than the request spent
     in the server, and the server never accounts for more than the
     client measured around the whole run. *)
  let stage_total =
    sum "queue" +. sum "decode" +. sum "trie" +. sum "barrier" +. sum "write"
  in
  if stage_total > sum "total" +. 1.0 then
    Alcotest.failf "stages sum %.0f exceeds total %.0f" stage_total
      (sum "total");
  if sum "total" > float_of_int wall then
    Alcotest.failf
      "server total %.0f exceeds client wall clock %d (stages sum %.0f)"
      (sum "total") wall stage_total

let test_stage_counters_monotone_pipelined () =
  Server.Metrics.reset ();
  with_server ~domains:2 ~universe:4_096 @@ fun _ port ->
  with_client port @@ fun c ->
  let window ks = List.concat_map (fun k -> [ P.Insert k; P.Member k ]) ks in
  ignore (Server.Client.pipeline c (window (List.init 64 Fun.id)));
  let s1 = scrape_server_stages () in
  ignore (Server.Client.pipeline c (window (List.init 64 (fun i -> 64 + i))));
  let rec settle tries =
    let samples = scrape_server_stages () in
    if
      stage_sample samples ~op:"insert" ~stage:"total" "_count" >= 128.0
      || tries = 0
    then samples
    else begin
      Unix.sleepf 0.02;
      settle (tries - 1)
    end
  in
  let s2 = settle 100 in
  List.iter
    (fun op ->
      List.iter
        (fun stage ->
          let c1 = stage_sample s1 ~op ~stage "_count" in
          let c2 = stage_sample s2 ~op ~stage "_count" in
          if c2 < c1 then
            Alcotest.failf "stage counter %s/%s went backwards: %f -> %f" op
              stage c1 c2)
        [ "queue"; "decode"; "trie"; "barrier"; "write"; "total" ])
    [ "insert"; "member" ];
  Alcotest.(check (float 0.5)) "pipelined requests all decomposed" 128.0
    (stage_sample s2 ~op:"insert" ~stage:"total" "_count")

let test_watchdog_stall_and_recovery () =
  (* One worker domain, aggressive thresholds: wedge the worker inside
     the read path with a chaos stall, watch /healthz flip to stalled
     naming the worker, release, watch it recover. *)
  let wd =
    Obs.Watchdog.create ~degraded_after_s:0.1 ~stalled_after_s:0.3 ()
  in
  let trie = Core.Patricia.create ~universe:64 () in
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
  let srv = Server.start ~port:0 ~domains:1 ~watchdog:wd ops in
  let st = Chaos.Stall.install Chaos.Net_read in
  Chaos.set_policy ~name:"stall-worker" (Some (Chaos.Stall.hook st));
  Fun.protect
    ~finally:(fun () ->
      Chaos.Stall.release st;
      Chaos.set_policy None;
      Server.stop ~drain_s:0.2 srv)
  @@ fun () ->
  (* Trigger the read path so the stall captures the worker; the
     connect alone is not enough (the stall sits on Net_read). *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv));
  ignore (Unix.write fd (Bytes.make 1 'x') 0 1);
  if not (Chaos.Stall.wait_stalled ~timeout_s:30.0 st) then
    Alcotest.fail "worker never reached the stall point";
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let rec await what pred deadline =
    let code, body = Obs.Watchdog.healthz wd () in
    if pred code body then (code, body)
    else if Obs.Clock.now_ns () > deadline then
      Alcotest.failf "timed out waiting for %s (last: %d %s)" what code body
    else begin
      Unix.sleepf 0.02;
      await what pred deadline
    end
  in
  let deadline () = Obs.Clock.now_ns () + 10_000_000_000 in
  let code, body =
    await "stalled verdict"
      (fun code body -> code = 503 && contains body "worker-")
      (deadline ())
  in
  Alcotest.(check int) "stalled is 503" 503 code;
  Alcotest.(check bool) "verdict names the wedged worker" true
    (contains body "stalled:" && contains body "worker-");
  Alcotest.(check bool) "transition counted" true (Obs.Watchdog.warnings wd > 0);
  Chaos.Stall.release st;
  let code, body =
    await "recovery" (fun code body -> code = 200 && body = "ok\n") (deadline ())
  in
  Alcotest.(check (pair int string)) "recovered" (200, "ok\n") (code, body)

let () =
  Alcotest.run "server"
    [
      ( "semantics",
        [
          Alcotest.test_case "model over network" `Quick test_model_over_network;
          Alcotest.test_case "pipelining order" `Quick test_pipelining_order;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "scan pages" `Quick test_scan_pages;
          Alcotest.test_case "scan interleaved with mutations" `Quick
            test_scan_interleaved_with_mutations;
        ] );
      ( "errors",
        [
          Alcotest.test_case "app error keeps stream" `Quick
            test_app_error_keeps_stream;
          Alcotest.test_case "framing error closes connection" `Quick
            test_framing_error_closes_connection;
          Alcotest.test_case "garbage never kills workers" `Quick
            test_garbage_bytes_never_kill_workers;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful idempotent stop" `Quick
            test_stop_is_graceful_and_idempotent;
        ] );
      ( "load",
        [
          Alcotest.test_case "stage decomposition bounds" `Quick
            test_stage_decomposition_bounds;
          Alcotest.test_case "stage counters monotone pipelined" `Quick
            test_stage_counters_monotone_pipelined;
          Alcotest.test_case "watchdog stall and recovery" `Quick
            test_watchdog_stall_and_recovery;
          Alcotest.test_case "loadgen size accounting" `Quick
            test_loadgen_size_accounting;
          Alcotest.test_case "loadgen open loop accounting" `Quick
            test_loadgen_open_loop;
          Alcotest.test_case "loadgen journal on server stop" `Quick
            test_loadgen_journal_on_stop;
          Alcotest.test_case "linearizable over network" `Quick
            test_linearizable_over_network;
        ] );
    ]
