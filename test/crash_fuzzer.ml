(* Crash-recovery fuzzer for the durable patserve server.

   Each trial forks this binary as a patserve child (--server mode: the
   production {!Node} composition, as [patbench serve] runs it) with
   sync (or, with --durability async, async) durability on a fresh data
   directory, drives it with the
   journaled closed-loop load generator, kills it with SIGKILL at a
   random moment (optionally with chaos delays at the WAL's
   append/fsync/rotate sites to widen the crash windows, and optionally
   with concurrent checkpoints), then recovers the directory and checks
   the central durability promise:

     every acknowledged operation is in the recovered set, and the
     recovered state is exactly the acknowledged history plus some
     prefix of each connection's in-flight (sent but unacknowledged)
     operations.

   The promise is the same in both modes under SIGKILL: an ack follows
   the group commit's [write] either way, and the fsync that only Sync
   adds matters for power loss, which a kill does not simulate.

   The journaled load gives each connection its own key slice, so
   each connection's journal totally orders the operations on its keys
   and the check is exact, not heuristic.  Recovery is also performed
   twice to confirm replay is deterministic and idempotent.

   Usage: crash_fuzzer.exe [--trials 50] [--seed 2013] [--universe 4096]
                           [--durability sync|async]
                           [--keep]   (keep data dirs of passing trials)

   Exits non-zero on the first violated trial, keeping its data
   directory for post-mortem. *)

open Fixture
module IS = Set.Make (Int)
module P = Server.Protocol

module Pstore = Node.Store

(* ------------------------------------------------------------------ *)
(* Minimal argv plumbing (shared by parent and --server child). *)

let arg_value name =
  let n = Array.length Sys.argv in
  let rec go i =
    if i + 1 >= n then None
    else if Sys.argv.(i) = "--" ^ name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let arg_int name default =
  match arg_value name with Some v -> int_of_string v | None -> default

let arg_float name default =
  match arg_value name with Some v -> float_of_string v | None -> default

let has_flag name = Array.exists (( = ) ("--" ^ name)) Sys.argv

(* ------------------------------------------------------------------ *)
(* Children: production nodes ({!Node}) that run until killed. *)

(* Start [cfg], print the port for the parent (the only stdout line;
   the node's progress lines are dropped) and tick every 5 ms, so a
   checkpoint period is kept to within that. *)
let run_node ?segment_bytes cfg =
  match Node.start ?segment_bytes cfg with
  | Error _ -> failwith "child node failed to start"
  | Ok node ->
      Printf.printf "PORT=%d\n%!" (Node.port node);
      while true do
        Unix.sleepf 0.005;
        Node.tick node
      done

let durability () =
  match arg_value "durability" with
  | None | Some "sync" -> Pstore.Sync
  | Some "async" -> Pstore.Async
  | Some d -> failwith ("--durability must be sync or async, not " ^ d)

let child_config () =
  {
    Node.default_config with
    port = 0;
    range = arg_int "universe" 4096;
    domains = arg_int "server-domains" 2;
    data_dir =
      Some
        (match arg_value "dir" with
        | Some d -> d
        | None -> failwith "child modes require --dir");
    durability = durability ();
  }

(* A durable primary.  With --repl acknowledgements also wait
   until each attached follower has applied the mutation — the property
   the failover trials verify across a SIGKILL. *)
let server_mode () =
  let chaos_us = arg_int "chaos-us" 0 in
  if chaos_us > 0 then
    Chaos.set_policy ~name:"wal-delay"
      (Some
         (function
         | Chaos.Wal_append | Chaos.Wal_fsync | Chaos.Wal_rotate ->
             Unix.sleepf (float_of_int chaos_us *. 1e-6)
         | _ -> ()));
  let segment_bytes =
    match arg_int "segment-bytes" 0 with 0 -> None | n -> Some n
  in
  run_node ?segment_bytes
    {
      (child_config ()) with
      checkpoint_s =
        (match arg_float "checkpoint-s" 0. with 0. -> None | s -> Some s);
      repl_sync = has_flag "repl";
    }

(* A follower of the primary at --follow-port, promotable over the
   wire.  It prints its port only once its subscription is confirmed. *)
let follower_mode () =
  run_node
    {
      (child_config ()) with
      follow = Some ("127.0.0.1", arg_int "follow-port" 0);
      staleness = 1_000_000;
    }

(* ------------------------------------------------------------------ *)
(* Parent: one trial. *)

let read_port ic =
  match input_line ic with
  | line -> (
      match String.index_opt line '=' with
      | Some i when String.sub line 0 i = "PORT" ->
          int_of_string (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> failwith ("unexpected server output: " ^ line))
  | exception End_of_file -> failwith "server child died before printing PORT"

let run_trial ~seed ~trial ~universe ~keep =
  let mode = Pstore.mode_name (durability ()) in
  let rng = Rng.of_int_seed (seed + (trial * 7919)) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crashfuzz_%d_%d" (Unix.getpid ()) trial)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  (* Randomized trial shape: when the kill lands, whether the WAL sites
     are artificially widened, whether checkpoints race the crash. *)
  let kill_delay = 0.08 +. (float_of_int (Rng.int rng 400) /. 1000.) in
  let chaos_us = [| 0; 0; 200; 1500 |].(Rng.int rng 4) in
  let checkpoint_s = [| 0.; 0.; 0.07; 0.2 |].(Rng.int rng 4) in
  (* Tiny segments in some trials put rotations (and, with checkpoints,
     segment deletion) inside the crash window. *)
  let segment_bytes = [| 0; 0; 16384; 65536 |].(Rng.int rng 4) in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name;
        "--server";
        "--dir";
        dir;
        "--universe";
        string_of_int universe;
        "--chaos-us";
        string_of_int chaos_us;
        "--checkpoint-s";
        string_of_float checkpoint_s;
        "--segment-bytes";
        string_of_int segment_bytes;
        "--durability";
        mode;
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
       with Unix.Unix_error (_, _, _) -> ());
      close_in_noerr ic)
  @@ fun () ->
  let port = read_port ic in
  let load_domains = 3 in
  let cfg =
    {
      Server.Loadgen.default_config with
      port;
      domains = load_domains;
      pacing = Closed 8;
      seconds = 60.0 (* the kill, not the clock, ends the run *);
      universe;
      seed = seed + trial;
      mix = Harness.Mix.v ~insert:40 ~delete:20 ~find:10 ~replace:30 ();
      journal = true;
    }
  in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf kill_delay;
        try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ())
  in
  let r = Server.Loadgen.run cfg in
  Domain.join killer;
  ignore (Unix.waitpid [] pid : int * Unix.process_status);
  (* Recover twice: once to verify against the journals, once to verify
     determinism/idempotence of replay. *)
  let s1 = Pstore.open_ ~dir ~universe ~mode:Pstore.Ephemeral () in
  let s2 = Pstore.open_ ~dir ~universe ~mode:Pstore.Ephemeral () in
  let ri = Pstore.recovery_info s1 in
  let recovered = IS.of_list (Pstore.to_list s1) in
  let recovered2 = IS.of_list (Pstore.to_list s2) in
  if not (IS.equal recovered recovered2) then
    violate "second replay diverged: %d keys vs %d keys" (IS.cardinal recovered)
      (IS.cardinal recovered2);
  (match Core.Patricia.check_invariants (Pstore.underlying s1) with
  | Result.Ok () -> ()
  | Result.Error m -> violate "recovered trie violates invariants: %s" m);
  (* Snapshot-checkpoint trial: image each recovered store through its
     frozen view (the only checkpoint path — forced tail replay is
     gone), require the two independent recoveries to write
     byte-identical images, and reopen from the image alone. *)
  let image_bytes () =
    match Persist.Checkpoint.list_checkpoints dir with
    | [] -> violate "no image on disk after snapshot checkpoint"
    | l ->
        let _, path = List.nth l (List.length l - 1) in
        In_channel.with_open_bin path In_channel.input_all
  in
  ignore (Pstore.checkpoint s1 : int * int);
  let img1 = image_bytes () in
  ignore (Pstore.checkpoint s2 : int * int);
  let img2 = image_bytes () in
  if img1 <> img2 then
    violate "snapshot checkpoints of identical recoveries are not \
             byte-identical (%d vs %d bytes)"
      (String.length img1) (String.length img2);
  let s3 = Pstore.open_ ~dir ~universe ~mode:Pstore.Ephemeral () in
  let recovered3 = IS.of_list (Pstore.to_list s3) in
  if not (IS.equal recovered recovered3) then
    violate "reopen from the snapshot checkpoint diverged: %d keys vs %d"
      (IS.cardinal recovered) (IS.cardinal recovered3);
  let span = max 1 (universe / load_domains) in
  (* Keys no connection could have written must not appear. *)
  let ghost = IS.filter (fun k -> k >= load_domains * span) recovered in
  if not (IS.is_empty ghost) then
    violate "recovered keys outside every partition: %d of them"
      (IS.cardinal ghost);
  List.iteri
    (fun conn (j : Server.Loadgen.journal) ->
      check_connection ~conn ~recovered ~lo:(conn * span)
        ~hi:((conn + 1) * span) j)
    r.Server.Loadgen.journals;
  let acked = r.Server.Loadgen.acked in
  let in_flight =
    List.fold_left
      (fun a (j : Server.Loadgen.journal) ->
        a + List.length j.Server.Loadgen.in_flight)
      0 r.Server.Loadgen.journals
  in
  Printf.eprintf
    "trial %3d: %s kill@%.3fs chaos=%dus ckpt=%.2fs | acked=%d in-flight=%d \
     recovered=%d segs=%d%s%s\n%!"
    trial mode kill_delay chaos_us checkpoint_s acked in_flight
    (IS.cardinal recovered) ri.Pstore.wal_segments
    (if ri.Pstore.torn_tail then " torn-tail" else "")
    (match ri.Pstore.checkpoint_seq with
    | Some s -> Printf.sprintf " ckpt@%d" s
    | None -> "");
  if not keep then rm_rf dir

(* ------------------------------------------------------------------ *)
(* Parent: one failover trial — SIGKILL the sync-ack primary mid-stream,
   promote the follower (twice: the second must be an idempotent
   success), and verify over the wire that the promoted follower serves
   exactly the acknowledged history plus a prefix-closed cut of each
   connection's in-flight operations. *)

let spawn_child args =
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  (pid, Unix.in_channel_of_descr out_r)

let run_failover_trial ~seed ~trial ~universe ~keep =
  let mode = Pstore.mode_name (durability ()) in
  let rng = Rng.of_int_seed (seed + (trial * 6977)) in
  let mkdir_fresh d =
    rm_rf d;
    Unix.mkdir d 0o755;
    d
  in
  let pdir =
    mkdir_fresh
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "crashfuzz_fo_%d_%d_p" (Unix.getpid ()) trial))
  in
  let fdir =
    mkdir_fresh
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "crashfuzz_fo_%d_%d_f" (Unix.getpid ()) trial))
  in
  let kill_delay = 0.08 +. (float_of_int (Rng.int rng 400) /. 1000.) in
  let segment_bytes = [| 0; 0; 16384; 65536 |].(Rng.int rng 4) in
  let ppid, pic =
    spawn_child
      [|
        "--server"; "--repl";
        "--dir"; pdir;
        "--universe"; string_of_int universe;
        "--segment-bytes"; string_of_int segment_bytes;
        "--durability"; mode;
      |]
  in
  let fpid = ref (-1) in
  let fic = ref None in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun pid ->
          if pid > 0 then begin
            (try Unix.kill pid Sys.sigkill
             with Unix.Unix_error (_, _, _) -> ());
            try ignore (Unix.waitpid [] pid : int * Unix.process_status)
            with Unix.Unix_error (_, _, _) -> ()
          end)
        [ ppid; !fpid ];
      close_in_noerr pic;
      Option.iter close_in_noerr !fic)
  @@ fun () ->
  let pport = read_port pic in
  (* The follower child only prints its PORT after its subscription is
     confirmed — from then on the primary's sync-ack barrier gates every
     acknowledgement on this follower having applied the mutation. *)
  let fpid', fic' =
    spawn_child
      [|
        "--follower";
        "--dir"; fdir;
        "--universe"; string_of_int universe;
        "--follow-port"; string_of_int pport;
        "--durability"; mode;
      |]
  in
  fpid := fpid';
  fic := Some fic';
  let fport = read_port fic' in
  let load_domains = 3 in
  let cfg =
    {
      Server.Loadgen.default_config with
      port = pport;
      domains = load_domains;
      pacing = Closed 8;
      seconds = 60.0 (* the kill, not the clock, ends the run *);
      universe;
      seed = seed + trial;
      mix = Harness.Mix.v ~insert:40 ~delete:20 ~find:10 ~replace:30 ();
      journal = true;
    }
  in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf kill_delay;
        try Unix.kill ppid Sys.sigkill with Unix.Unix_error (_, _, _) -> ())
  in
  let r = Server.Loadgen.run cfg in
  Domain.join killer;
  ignore (Unix.waitpid [] ppid : int * Unix.process_status);
  (* Promote the survivor — twice.  Both must succeed: promotion is
     keyed on "am I still a follower", so the second is a no-op. *)
  let c = Server.Client.connect ~port:fport ~retries:5 () in
  if not (Server.Client.promote c) then violate "first PROMOTE refused";
  if not (Server.Client.promote c) then
    violate "second PROMOTE refused: promotion is not idempotent";
  (* The promoted follower must now serve reads (it no longer lags
     anything) and the served state must be the acked history plus a
     prefix-closed cut of the in-flight suffix per connection. *)
  let recovered = ref IS.empty in
  let chunk = 1024 in
  let k = ref 0 in
  while !k < universe do
    let n = min chunk (universe - !k) in
    let ops = List.init n (fun i -> P.Member (!k + i)) in
    List.iteri
      (fun i b -> if b then recovered := IS.add (!k + i) !recovered)
      (Server.Client.batch c ops);
    k := !k + n
  done;
  let recovered = !recovered in
  Server.Client.close c;
  let span = max 1 (universe / load_domains) in
  let ghost = IS.filter (fun k -> k >= load_domains * span) recovered in
  if not (IS.is_empty ghost) then
    violate "promoted follower serves keys outside every partition: %d"
      (IS.cardinal ghost);
  List.iteri
    (fun conn (j : Server.Loadgen.journal) ->
      check_connection ~conn ~recovered ~lo:(conn * span)
        ~hi:((conn + 1) * span) j)
    r.Server.Loadgen.journals;
  let acked = r.Server.Loadgen.acked in
  let in_flight =
    List.fold_left
      (fun a (j : Server.Loadgen.journal) ->
        a + List.length j.Server.Loadgen.in_flight)
      0 r.Server.Loadgen.journals
  in
  Printf.eprintf
    "failover %3d: kill@%.3fs | acked=%d in-flight=%d promoted-serves=%d\n%!"
    trial kill_delay acked in_flight (IS.cardinal recovered);
  if not keep then begin
    (* The follower child still holds the dir; reap it first. *)
    (try Unix.kill !fpid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    (try ignore (Unix.waitpid [] !fpid : int * Unix.process_status)
     with Unix.Unix_error (_, _, _) -> ());
    fpid := -1;
    rm_rf pdir;
    rm_rf fdir
  end

let () =
  if has_flag "server" then server_mode ()
  else if has_flag "follower" then follower_mode ()
  else begin
    let trials = arg_int "trials" 50 in
    let seed = arg_int "seed" 2013 in
    let universe = arg_int "universe" 4096 in
    let keep = has_flag "keep" in
    (* A worker blocked on a vanished peer can get SIGPIPE on write. *)
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore : Sys.signal_behavior);
    let failover = has_flag "failover" in
    let mode = Pstore.mode_name (durability ()) in
    let failures = ref 0 in
    (try
       for trial = 1 to trials do
         try
           if failover then run_failover_trial ~seed ~trial ~universe ~keep
           else run_trial ~seed ~trial ~universe ~keep
         with Violation m ->
           incr failures;
           Printf.eprintf
             "trial %3d: DURABILITY VIOLATION: %s\n\
              data dir kept: %s\n%!"
             trial m
             (Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf
                   (if failover then "crashfuzz_fo_%d_%d_f"
                    else "crashfuzz_%d_%d")
                   (Unix.getpid ()) trial));
           raise Exit
       done
     with Exit -> ());
    if !failures = 0 then
      Printf.printf
        "crash_fuzzer: %d %strials (durability %s), zero acknowledged \
         operations lost\n%!"
        trials
        (if failover then "failover " else "")
        mode
    else begin
      Printf.printf "crash_fuzzer: FAILED\n%!";
      exit 1
    end
  end
