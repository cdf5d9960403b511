(* Durability: the lock-free trie fronted by the write-ahead log and
   checkpoints from lib/persist.

   The store applies every mutation to the in-memory trie first, then
   publishes it to a group-committed WAL; [barrier] blocks until this
   domain's last mutation is fsynced, which is the moment a server may
   acknowledge it.  Reopening the directory recovers the newest valid
   checkpoint plus the log tail — surviving kill -9 mid-write (a torn
   final record is detected by CRC and truncated).

   Run with:  dune exec examples/durable_set.exe *)

module Store = Persist.Store.Make (struct
  include Core.Patricia

  let create ~universe () = Core.Patricia.create ~universe ()
  let snapshot = Core.Patricia.snapshot_capability
end)

let dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "durable_set_example_%d" (Unix.getpid ()))

let () =
  (* First life: create, mutate, checkpoint, mutate some more. *)
  let s = Store.open_ ~dir ~universe:1024 ~mode:Store.Sync () in
  assert (Store.insert s 42);
  assert (Store.insert s 7);
  assert (Store.replace s ~remove:7 ~add:9);
  Store.barrier s;
  (* <- 42 and 9 are on disk; a server would ack here *)
  let keys, _segments_freed = Store.checkpoint s in
  Printf.printf "checkpointed %d keys\n" keys;
  assert (Store.delete s 42);
  assert (Store.insert s 100);
  Store.barrier s;
  Store.close s;

  (* Second life: recovery = checkpoint image + WAL tail replay. *)
  let s = Store.open_ ~dir ~universe:1024 ~mode:Store.Sync () in
  let ri = Store.recovery_info s in
  Printf.printf "recovered %d keys (checkpoint had %d, replayed %d wal records)\n"
    (Store.size s) ri.Store.checkpoint_keys ri.Store.wal_replayed;
  assert (Store.member s 9);
  assert (Store.member s 100);
  assert (not (Store.member s 42));
  assert (not (Store.member s 7));
  Store.close s;

  (* Clean up the example directory. *)
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  Unix.rmdir dir;
  print_endline "durable_set: ok"
