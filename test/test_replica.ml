(* End-to-end tests of the replication subsystem: a primary streaming
   its WAL to a follower that applies through the normal store path,
   sync-ack convergence, the staleness-bounded follower read gate (BUSY
   + /healthz degraded: repl_lag, driven by a chaos stall on the apply
   loop), watermark persistence and resubscription, snapshot-bootstrap
   through the {!Node} composition, and HASHCHECK anti-entropy locating
   a seeded divergence in O(log n) round trips over a real
   connection. *)

module IS = Set.Make (Int)
module P = Server.Protocol
module Wal = Persist.Wal

module Pstore = Node.Store

let tmpdir = Tutil.fresh_dirs "replica_test"

let sorted_keys store = List.sort compare (Pstore.to_list store)

let await ?(timeout_s = 15.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let universe = 1 lsl 10

let hash_width = Node.hash_width universe
let store_ops store = Node.server_ops (ref store)

let repl_hooks_for primary store =
  Server.
    {
      subscribe = (fun ~fd ~seq ~from_seq ->
          Replica.Primary.subscribe primary ~fd ~seq ~from_seq);
      hashcheck = Replica.Hash.hashes (Node.fold store) ~width:hash_width;
      promote = (fun () -> Result.Ok ());
    }

let start_follower ~port ~from_seq ?watermark_dir store =
  match
    Replica.Follower.start ~port ~from_seq ?watermark_dir ~watermark_every:16
      (Node.follower_ops (ref store))
  with
  | Result.Ok f -> f
  | Result.Error msg -> Alcotest.fail ("Follower.start: " ^ msg)

let check_not_failed f =
  match Replica.Follower.failure f with
  | None -> ()
  | Some msg -> Alcotest.fail ("follower failed: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Converge under sync-ack, watermark persistence, resubscription *)

let test_converge_sync_ack () =
  let pdir = tmpdir () and fdir = tmpdir () in
  let pstore = Pstore.open_ ~dir:pdir ~universe ~mode:Pstore.Sync () in
  let writer = Option.get (Pstore.wal_writer pstore) in
  let prim = Replica.Primary.create ~dir:pdir ~writer ~sync_ack:true () in
  Pstore.set_retention_hook pstore (Replica.Primary.retention_floor prim);
  let barrier () =
    Pstore.barrier pstore;
    Replica.Primary.wait_acked prim (Pstore.last_logged_here pstore)
  in
  let srv =
    Server.start ~port:0 ~domains:2 ~barrier
      ~repl:(repl_hooks_for prim pstore)
      (store_ops pstore)
  in
  let port = Server.port srv in
  Fun.protect
    ~finally:(fun () ->
      Replica.Primary.stop prim;
      Server.stop ~drain_s:0.5 srv;
      Pstore.close pstore)
  @@ fun () ->
  let fstore = Pstore.open_ ~dir:fdir ~universe ~mode:Pstore.Sync () in
  let f = start_follower ~port ~from_seq:0 ~watermark_dir:fdir fstore in
  Alcotest.(check int) "follower registered" 1
    (Replica.Primary.subscriber_count prim);
  (* Mutate through the served path: every acknowledgement now waits
     for both the primary's fsync and the follower's applied ack. *)
  let c = Server.Client.connect ~port () in
  let model = ref IS.empty in
  let rng = Rng.of_int_seed 4242 in
  for _ = 1 to 400 do
    let k = Rng.int rng universe in
    match Rng.int rng 3 with
    | 0 ->
        if Server.Client.insert c k then model := IS.add k !model
    | 1 ->
        if Server.Client.delete c k then model := IS.remove k !model
    | _ ->
        let add = Rng.int rng universe in
        if Server.Client.replace c ~remove:k ~add then
          model := IS.add add (IS.remove k !model)
  done;
  Server.Client.close c;
  (* Sync-ack means the last acknowledged operation is already applied
     on the follower: no settling loop, the states must match now. *)
  check_not_failed f;
  Alcotest.(check int) "applied = assigned"
    (Wal.Writer.last_assigned writer)
    (Replica.Follower.applied_seq f);
  Alcotest.(check int) "lag_records 0" 0 (Replica.Follower.lag_records f);
  Alcotest.(check (list int)) "follower state = primary state"
    (sorted_keys pstore) (sorted_keys fstore);
  Alcotest.(check (list int)) "both = client model"
    (IS.elements !model) (sorted_keys fstore);
  (* Detach: the final watermark covers everything applied... *)
  let applied = Replica.Follower.applied_seq f in
  Replica.Follower.stop f;
  Pstore.close fstore;
  (match Replica.Watermark.read ~dir:fdir with
  | Some w -> Alcotest.(check int) "watermark = applied" applied w
  | None -> Alcotest.fail "no watermark after detach");
  (* ...so a restarted follower resubscribes mid-log from watermark+1
     (the overlap is harmless: application is forced), recovers its own
     WAL, and converges on the post-restart mutations too. *)
  let fstore2 = Pstore.open_ ~dir:fdir ~universe ~mode:Pstore.Sync () in
  Alcotest.(check (list int)) "follower recovery restores state"
    (sorted_keys pstore) (sorted_keys fstore2);
  let f2 = start_follower ~port ~from_seq:(applied + 1) ~watermark_dir:fdir fstore2 in
  let c2 = Server.Client.connect ~port () in
  for k = 0 to 9 do ignore (Server.Client.insert c2 k : bool) done;
  Server.Client.close c2;
  check_not_failed f2;
  Alcotest.(check (list int)) "converged after resubscribe"
    (sorted_keys pstore) (sorted_keys fstore2);
  Replica.Follower.stop f2;
  Pstore.close fstore2

(* ------------------------------------------------------------------ *)
(* Staleness bound: a chaos stall freezes the apply loop, reads on the
   follower decline BUSY, /healthz reports degraded: repl_lag, and
   everything recovers once the stall releases. *)

let test_staleness_busy_and_healthz () =
  let pdir = tmpdir () and fdir = tmpdir () in
  let staleness = 4 in
  let pstore = Pstore.open_ ~dir:pdir ~universe ~mode:Pstore.Sync () in
  let writer = Option.get (Pstore.wal_writer pstore) in
  let prim = Replica.Primary.create ~dir:pdir ~writer () in
  let psrv =
    Server.start ~port:0 ~domains:1
      ~repl:(repl_hooks_for prim pstore)
      (store_ops pstore)
  in
  (* Durable history before the follower attaches, so the whole backlog
     arrives as one push and the stalled apply loop leaves a lag well
     past the bound. *)
  for k = 0 to 63 do ignore (Pstore.insert pstore k : bool) done;
  Pstore.barrier pstore;
  let fstore = Pstore.open_ ~dir:fdir ~universe ~mode:Pstore.Sync () in
  let fref = ref None in
  let lag () =
    match !fref with Some f -> Replica.Follower.lag_records f | None -> 0
  in
  let wd = Obs.Watchdog.create () in
  Obs.Watchdog.gauge wd ~name:"repl_lag" ~degraded_above:staleness lag;
  let fsrv =
    Server.start ~port:0 ~domains:1 ~watchdog:wd
      ~gate:(Replica.Gate.follower ~staleness ~lag ~retry_after_ms:7)
      (store_ops fstore)
  in
  let stall = Chaos.Stall.install Chaos.Repl_apply in
  let cleanup () =
    Chaos.Stall.release stall;
    (match !fref with Some f -> Replica.Follower.stop f | None -> ());
    Replica.Primary.stop prim;
    Server.stop ~drain_s:0.5 fsrv;
    Server.stop ~drain_s:0.5 psrv;
    Pstore.close fstore;
    Pstore.close pstore
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Chaos.with_policy ~name:"repl-apply-stall" (Chaos.Stall.hook stall)
  @@ fun () ->
  let f = start_follower ~port:(Server.port psrv) ~from_seq:0 fstore in
  fref := Some f;
  if not (Chaos.Stall.wait_stalled ~timeout_s:10.0 stall) then
    Alcotest.fail "apply loop never reached the Repl_apply site";
  if lag () <= staleness then
    Alcotest.failf "lag %d not past the staleness bound" (lag ());
  let c = Server.Client.connect ~port:(Server.port fsrv) () in
  (* Reads decline BUSY with the configured hint while the bound is
     exceeded; mutations are refused outright on any follower. *)
  (match Server.Client.member c 1 with
  | _ -> Alcotest.fail "stale read served"
  | exception Server.Client.Busy { retry_after_ms } ->
      Alcotest.(check int) "retry-after hint" 7 retry_after_ms);
  (match Server.Client.insert c 999 with
  | _ -> Alcotest.fail "mutation accepted by a follower"
  | exception Server.Client.Protocol_error msg ->
      Alcotest.(check bool) "refusal names the role" true
        (contains msg "read-only follower"));
  (match Obs.Watchdog.healthz wd () with
  | 200, body when contains body "degraded" && contains body "repl_lag" -> ()
  | code, body ->
      Alcotest.failf "expected degraded: repl_lag, got %d %S" code body);
  (* Release: the backlog drains, reads resume, health recovers. *)
  Chaos.Stall.release stall;
  await "follower catches up" (fun () -> lag () = 0);
  check_not_failed f;
  Alcotest.(check bool) "read served after catch-up" true
    (Server.Client.member c 1);
  (match Obs.Watchdog.healthz wd () with
  | 200, "ok\n" -> ()
  | code, body -> Alcotest.failf "expected ok, got %d %S" code body);
  Server.Client.close c

(* ------------------------------------------------------------------ *)
(* Anti-entropy: HASHCHECK over a live connection locates a seeded
   single-key divergence, in at most width+1 = O(log n) round trips. *)

let test_hashcheck_locates_divergence () =
  let local = Core.Patricia.create ~universe () in
  let remote_trie = Core.Patricia.create ~universe () in
  let rng = Rng.of_int_seed 1313 in
  for _ = 1 to 300 do
    let k = Rng.int rng universe in
    ignore (Core.Patricia.insert local k : bool);
    ignore (Core.Patricia.insert remote_trie k : bool)
  done;
  (* Seed the divergence: one key present only on the remote. *)
  let d = ref 0 in
  while Core.Patricia.member remote_trie !d do incr d done;
  let d = !d in
  ignore (Core.Patricia.insert remote_trie d : bool);
  let trie_ops t =
    Server.
      {
        insert = Core.Patricia.insert t;
        delete = Core.Patricia.delete t;
        member = Core.Patricia.member t;
        replace = (fun ~remove ~add -> Core.Patricia.replace t ~remove ~add);
        size = (fun () -> Core.Patricia.size t);
        snapshot = (fun () -> Core.Patricia.snapshot_capability t);
        scan_cut = (fun () -> -1);
      }
  in
  let remote_fold ~lo ~hi ~init ~f =
    Core.Patricia.fold_range remote_trie ~lo ~hi ~init ~f
  in
  let srv =
    Server.start ~port:0 ~domains:1
      ~repl:
        Server.
          {
            subscribe = (fun ~fd ~seq ~from_seq ->
                Replica.reject_subscribe ~reason:"not a primary" ~fd ~seq
                  ~from_seq);
            hashcheck = (fun ~prefix ~len ->
                Replica.Hash.hashes remote_fold ~width:hash_width ~prefix ~len);
            promote = (fun () -> Result.Ok ());
          }
      (trie_ops remote_trie)
  in
  Fun.protect ~finally:(fun () -> Server.stop ~drain_s:0.5 srv) @@ fun () ->
  let c = Server.Client.connect ~port:(Server.port srv) () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  let local_fold ~lo ~hi ~init ~f =
    Core.Patricia.fold_range local ~lo ~hi ~init ~f
  in
  let remote ~prefix ~len = Server.Client.hashcheck c ~prefix ~len in
  (match Replica.Hash.locate local_fold ~width:hash_width ~remote with
  | Some (lo, hi), rts ->
      Alcotest.(check int) "narrowed to the divergent key (lo)" d lo;
      Alcotest.(check int) "narrowed to the divergent key (hi)" d hi;
      (* The acceptance bound: one round trip per level of the keyspace
         plus the root — O(log n). *)
      if rts > hash_width + 1 then
        Alcotest.failf "%d round trips for a %d-bit keyspace" rts hash_width
  | None, _ -> Alcotest.fail "seeded divergence not found");
  (* Repair it and the replicas hash equal at the root: one round trip. *)
  ignore (Core.Patricia.insert local d : bool);
  (match Replica.Hash.locate local_fold ~width:hash_width ~remote with
  | None, rts -> Alcotest.(check int) "root agreement is one RT" 1 rts
  | Some (lo, hi), _ -> Alcotest.failf "phantom divergence [%d, %d]" lo hi);
  (* Malformed prefixes are application-level errors, not stream
     killers: the connection stays usable. *)
  (match Server.Client.hashcheck c ~prefix:0 ~len:(hash_width + 1) with
  | _ -> Alcotest.fail "out-of-range prefix length accepted"
  | exception Server.Client.Protocol_error _ -> ());
  Alcotest.(check bool) "connection survives the error" true
    (Server.Client.member c d)

(* ------------------------------------------------------------------ *)
(* Snapshot-bootstrap, driven through {!Node} as [patbench serve
   --follow --bootstrap] runs it.  A primary that checkpointed its
   history away makes a follower's start fail with Resync_required;
   bootstrap is refused into a store that recovered keys; into a fresh
   store it streams the primary's frozen SCAN pages, stamps the
   watermark at their cut before subscribing, and converges on live
   traffic. *)

let node_config dir =
  {
    Node.default_config with
    port = 0;
    range = universe;
    domains = 2;
    data_dir = Some dir;
  }

let served_keys port =
  let c = Server.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  Server.Client.batch c (List.init universe (fun k -> P.Member k))
  |> List.mapi (fun k b -> if b then [ k ] else [])
  |> List.concat

let test_snapshot_bootstrap () =
  let pdir = tmpdir () and fdir = tmpdir () and stale_dir = tmpdir () in
  (* Tiny segments so the checkpoint actually deletes sealed history. *)
  let primary =
    match
      Node.start ~segment_bytes:16384
        { (node_config pdir) with repl_sync = true; checkpoint_s = Some 0.0 }
    with
    | Ok n -> n
    | Error _ -> Alcotest.fail "primary did not start"
  in
  Fun.protect ~finally:(fun () -> Node.stop primary) @@ fun () ->
  let port = Node.port primary in
  let c = Server.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  let rng = Rng.of_int_seed 2718 in
  let mutation _ =
    let k = Rng.int rng universe in
    match Rng.int rng 3 with
    | 0 -> P.Insert k
    | 1 -> P.Delete k
    | _ -> P.Replace { remove = k; add = Rng.int rng universe }
  in
  for _ = 1 to 40 do
    ignore (Server.Client.batch c (List.init 100 mutation) : bool list)
  done;
  Node.tick primary (* a checkpoint: sealed segments are freed *);
  let follower ?log ~bootstrap dir =
    Node.start ?log
      { (node_config dir) with follow = Some ("127.0.0.1", port); bootstrap }
  in
  (* The checkpointed-away prefix is gone: following from seq 0 fails
     with the resync verdict the CLI turns into exit 3. *)
  (match follower ~bootstrap:false fdir with
  | Error (Node.Resync_required { from_seq; reason }) ->
      Alcotest.(check int) "from the start" 0 from_seq;
      Alcotest.(check bool) "reason says resync" true (contains reason "resync")
  | Ok n ->
      Node.stop n;
      Alcotest.fail "subscribe from deleted history was accepted"
  | Error _ -> Alcotest.fail "expected Resync_required");
  (* Bootstrap pages only insert: a store with keys is refused. *)
  let s = Pstore.open_ ~dir:stale_dir ~universe ~mode:Pstore.Sync () in
  ignore (Pstore.insert s 1 : bool);
  Pstore.barrier s;
  Pstore.close s;
  (match follower ~bootstrap:true stale_dir with
  | Error (Node.Bootstrap_not_fresh { keys }) ->
      Alcotest.(check int) "recovered keys reported" 1 keys
  | Ok n ->
      Node.stop n;
      Alcotest.fail "bootstrap into a non-empty store was accepted"
  | Error _ -> Alcotest.fail "expected Bootstrap_not_fresh");
  let lines = ref [] in
  let f =
    let log l = lines := l :: !lines in
    match follower ~log ~bootstrap:true fdir with
    | Ok n -> n
    | Error _ -> Alcotest.fail "bootstrap into a fresh store failed"
  in
  Fun.protect ~finally:(fun () -> Node.stop f) @@ fun () ->
  let keys, cut =
    match
      List.find_map
        (fun l ->
          Scanf.sscanf_opt l
            "patserve: snapshot-bootstrap streamed %d keys from %_s@; \
             subscribing from seq %d"
            (fun keys cut -> (keys, cut)))
        !lines
    with
    | Some r -> r
    | None -> Alcotest.fail "no bootstrap line logged"
  in
  Alcotest.(check int) "bootstrap streamed the primary's keys"
    (Server.Client.size c) keys;
  if cut <= 0 then Alcotest.failf "bootstrap cut %d not past 0" cut;
  (* Nothing was written since the pages, so the stream has applied
     nothing: the watermark on disk is the one start stamped. *)
  Alcotest.(check (option int)) "watermark stamped at the cut" (Some (cut - 1))
    (Replica.Watermark.read ~dir:fdir);
  (* Live traffic: sync-ack waits for the follower's apply. *)
  for _ = 1 to 5 do
    ignore (Server.Client.batch c (List.init 20 mutation) : bool list)
  done;
  Alcotest.(check (list int)) "converged after bootstrap + subscribe"
    (served_keys port) (served_keys (Node.port f))

(* ------------------------------------------------------------------ *)
(* Watermark file: atomic, absent reads as None, survives rewrites. *)

let test_watermark_roundtrip () =
  let dir = tmpdir () in
  (match Replica.Watermark.read ~dir with
  | None -> ()
  | Some w -> Alcotest.failf "fresh dir has watermark %d" w);
  Replica.Watermark.write ~dir 42;
  Alcotest.(check (option int)) "roundtrip" (Some 42)
    (Replica.Watermark.read ~dir);
  Replica.Watermark.write ~dir 7;
  Alcotest.(check (option int)) "rewrite" (Some 7)
    (Replica.Watermark.read ~dir)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "replica"
    [
      ( "streaming",
        [
          Alcotest.test_case "sync-ack converge + watermark + resubscribe"
            `Quick test_converge_sync_ack;
          Alcotest.test_case "staleness bound: BUSY + degraded healthz" `Quick
            test_staleness_busy_and_healthz;
          Alcotest.test_case "snapshot-bootstrap after resync required" `Quick
            test_snapshot_bootstrap;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "hashcheck locates divergence in O(log n)" `Quick
            test_hashcheck_locates_divergence;
        ] );
      ( "watermark",
        [ Alcotest.test_case "roundtrip" `Quick test_watermark_roundtrip ] );
    ]
