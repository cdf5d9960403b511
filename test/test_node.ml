(* The serving composition ({!Node}) in process, as [patbench serve]
   runs it: a durable sync primary and a follower node, writes through
   the wire client, PROMOTE (twice: it is idempotent), writes to the
   promoted node, and recovery of its set on a restart over the same
   directory; and the follow configurations that fail to start, as
   values rather than exceptions.  Node installs process-global lag and
   queue-depth sources; with two nodes in one process their readings
   are not checked here. *)

module IS = Set.Make (Int)
module P = Server.Protocol

let universe = 1 lsl 10

let tmpdir = Tutil.fresh_dirs "node_test"

let config dir =
  {
    Node.default_config with
    port = 0;
    range = universe;
    domains = 2;
    data_dir = Some dir;
  }

let with_node cfg f =
  match Node.start cfg with
  | Error _ -> Alcotest.fail "node did not start"
  | Ok n -> Fun.protect ~finally:(fun () -> Node.stop n) (fun () -> f n)

let served_keys port =
  let c = Server.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  Server.Client.batch c (List.init universe (fun k -> P.Member k))
  |> List.mapi (fun k b -> if b then [ k ] else [])
  |> List.concat

let await what pred =
  let deadline = Unix.gettimeofday () +. 15.0 in
  while not (pred ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.01
  done

let test_primary_follower_promote_restart () =
  let pdir = tmpdir () and fdir = tmpdir () in
  let model = ref IS.empty in
  with_node { (config pdir) with repl_sync = true } @@ fun primary ->
  let follow = Some ("127.0.0.1", Node.port primary) in
  (with_node { (config fdir) with follow } @@ fun follower ->
   let c = Server.Client.connect ~port:(Node.port primary) () in
   let rng = Rng.of_int_seed 1931 in
   for _ = 1 to 300 do
     let k = Rng.int rng universe in
     match Rng.int rng 3 with
     | 0 -> if Server.Client.insert c k then model := IS.add k !model
     | 1 -> if Server.Client.delete c k then model := IS.remove k !model
     | _ ->
         let add = Rng.int rng universe in
         if Server.Client.replace c ~remove:k ~add then
           model := IS.add add (IS.remove k !model)
   done;
   Server.Client.close c;
   let fport = Node.port follower in
   await "follower convergence" (fun () ->
       served_keys fport = IS.elements !model);
   let fc = Server.Client.connect ~port:fport () in
   Fun.protect ~finally:(fun () -> Server.Client.close fc) @@ fun () ->
   (match Server.Client.insert fc 0 with
   | _ -> Alcotest.fail "a follower accepted a mutation"
   | exception Server.Client.Protocol_error _ -> ());
   Alcotest.(check bool) "PROMOTE" true (Server.Client.promote fc);
   Alcotest.(check bool) "second PROMOTE is idempotent" true
     (Server.Client.promote fc);
   for k = 0 to 15 do
     Alcotest.(check bool)
       (Printf.sprintf "promoted node applies INSERT %d" k)
       (not (IS.mem k !model))
       (Server.Client.insert fc k);
     model := IS.add k !model
   done);
  (* The promoted node stopped (final checkpoint, store closed): a
     plain restart over its directory recovers the whole set. *)
  with_node (config fdir) @@ fun restarted ->
  Alcotest.(check (list int)) "restart recovers the set" (IS.elements !model)
    (served_keys (Node.port restarted))

let test_follow_start_errors () =
  let follow = Some ("127.0.0.1", 1) in
  let expect what ok cfg =
    match Node.start cfg with
    | Error e when ok e -> ()
    | Error _ -> Alcotest.failf "%s: another start error" what
    | Ok n ->
        Node.stop n;
        Alcotest.failf "%s: started" what
  in
  expect "follow without a data dir"
    (( = ) Node.Follow_needs_data_dir)
    { Node.default_config with port = 0; follow };
  expect "follow with durability none"
    (( = ) Node.Follow_needs_log)
    { (config (tmpdir ())) with follow; durability = Node.Store.Ephemeral };
  expect "follow an unreachable primary"
    (function Node.Follow_failed _ -> true | _ -> false)
    { (config (tmpdir ())) with follow }

(* A second node on a port the first holds: [start] returns an error
   value after the store was opened and recovered, and tears that store
   down again, so the directory reopens with its keys. *)
let test_port_in_use () =
  let dir = tmpdir () in
  (with_node (config dir) @@ fun n ->
   let c = Server.Client.connect ~port:(Node.port n) () in
   for k = 0 to 9 do
     ignore (Server.Client.insert c k : bool)
   done;
   Server.Client.close c);
  with_node (config (tmpdir ())) @@ fun holder ->
  let port = Node.port holder in
  (match Node.start { (config dir) with port } with
  | Error (Node.Bind_failed { port = p; _ }) ->
      Alcotest.(check int) "the port named" port p
  | Error _ -> Alcotest.fail "another start error"
  | Ok n ->
      Node.stop n;
      Alcotest.fail "a second node bound a port in use");
  with_node (config dir) @@ fun reopened ->
  Alcotest.(check (list int)) "the directory reopens with its keys"
    (List.init 10 Fun.id)
    (served_keys (Node.port reopened))

let () =
  Alcotest.run "node"
    [
      ( "composition",
        [
          Alcotest.test_case "primary + follower, PROMOTE, restart" `Quick
            test_primary_follower_promote_restart;
          Alcotest.test_case "follow start errors are values" `Quick
            test_follow_start_errors;
          Alcotest.test_case "a port in use is a start error" `Quick
            test_port_in_use;
        ] );
    ]
