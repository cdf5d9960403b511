(** Checkpoint images: a serialized key set plus the WAL cut it is
    consistent with.

    {2 Format}

    A checkpoint file [ckpt-<replay_from>.ckpt] is:

    {v
    magic "PATCKPT1" | universe:u64be | replay_from:u64be | count:u64be
    | key:i64be ^ count | crc32c:u32be (of every byte before it)
    v}

    [replay_from] is the WAL sequence number the image cuts against:
    recovery loads the image and replays only records with
    [seq > replay_from].  The image is written to a temp file, fsynced,
    and atomically renamed into place, so a crash mid-checkpoint leaves
    either the old image or the new one, never a half-written one — a
    torn temp file is ignored (and cleaned up) by the next open.

    {2 Consistency against live traffic}

    The checkpoint writer images a {e live} trie: it records the
    current WAL sequence [S] {e before} taking an atomic frozen
    snapshot of the structure and stamps the image [replay_from = S].
    Operations publish to the WAL {e after} applying to the structure,
    so every record with [seq <= S] had finished applying before [S]
    was read and is inside the snapshot; the only records the snapshot
    may additionally contain have [seq > S] and are replayed on
    recovery.  Replay forces each record's effect (see {!Store.Make}):
    the last record on a key decides it whatever the image held, so
    records the image already contains replay harmlessly.  Recovery
    computes that replay as a last-effect set (the image's keys, then
    the tail, folded per key) and loads the keys that end present once,
    in ascending order; the semantics are those of per-record forced
    replay.  The
    recovered state therefore equals the linearization at the end of
    the replayed WAL, which is the same durable history a recovery
    without the checkpoint would have produced — the image only
    shortens the replay.  (Structures without a snapshot capability
    fall back to a weakly-consistent traversal, sound for
    insert/delete histories because replay overwrites any key the
    traversal raced with.) *)

let magic = "PATCKPT1"
let fixed_len = 8 + 8 + 8 + 8 (* magic, universe, replay_from, count *)

let name replay_from = Printf.sprintf "ckpt-%016x.ckpt" replay_from

let seq_of_name n =
  if
    String.length n = 5 + 16 + 5
    && String.sub n 0 5 = "ckpt-"
    && Filename.check_suffix n ".ckpt"
  then int_of_string_opt ("0x" ^ String.sub n 5 16)
  else None

let list_checkpoints dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun n ->
         Option.map (fun seq -> (seq, Filename.concat dir n)) (seq_of_name n))
  |> List.sort compare

(** [write ~dir ~universe ~replay_from ~keys] durably writes the image
    and removes every older checkpoint file (and stray temp files).
    Returns the new image's path. *)
let write ~dir ~universe ~replay_from ~keys =
  let count = Array.length keys in
  let len = fixed_len + (8 * count) + 4 in
  let b = Bytes.create len in
  Bytes.blit_string magic 0 b 0 8;
  Wal.set_u64 b 8 universe;
  Wal.set_u64 b 16 replay_from;
  Wal.set_u64 b 24 count;
  Array.iteri (fun i k -> Wal.set_u64 b (fixed_len + (8 * i)) k) keys;
  Wal.set_u32 b (len - 4) (Crc.crc32c b ~off:0 ~len:(len - 4));
  let path = Filename.concat dir (name replay_from) in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     Wal.write_all fd b 0 len;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  Unix.rename tmp path;
  Wal.fsync_dir dir;
  (* Older images are now dead weight; so are temp files from crashed
     checkpoint attempts. *)
  List.iter
    (fun (seq, p) -> if seq < replay_from then try Sys.remove p with _ -> ())
    (list_checkpoints dir);
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".ckpt.tmp" then
        try Sys.remove (Filename.concat dir n) with _ -> ())
    (Sys.readdir dir);
  Obs.Counter.incr Metrics.checkpoints;
  Obs.Counter.add Metrics.checkpoint_keys count;
  path

type loaded = {
  replay_from : int;
  keys : int array;  (** ascending, as serialized *)
  skipped : int;  (** newer-but-invalid images passed over *)
}

let validate ~universe path =
  let b = Wal.read_file path in
  let len = Bytes.length b in
  if len < fixed_len + 4 then Result.Error "checkpoint file too short"
  else if Bytes.sub_string b 0 8 <> magic then
    Result.Error "bad checkpoint magic"
  else if
    Wal.get_u32 b (len - 4) <> Crc.crc32c b ~off:0 ~len:(len - 4)
  then Result.Error "checkpoint CRC mismatch"
  else
    let file_universe = Wal.get_u64 b 8 in
    let replay_from = Wal.get_u64 b 16 in
    let count = Wal.get_u64 b 24 in
    if len <> fixed_len + (8 * count) + 4 then
      Result.Error "checkpoint length disagrees with key count"
    else if file_universe <> universe then
      Result.Error
        (Printf.sprintf
           "checkpoint universe %d does not match the store's %d (refusing to \
            recover into a differently-shaped trie)"
           file_universe universe)
    else
      let keys =
        Array.init count (fun i -> Wal.get_u64 b (fixed_len + (8 * i)))
      in
      Result.Ok { replay_from; keys; skipped = 0 }

(** Load the newest checkpoint that validates, skipping (but counting)
    corrupt ones; [Ok None] for a directory with no usable image.  A
    universe mismatch is an error, not a skip — silently recovering a
    differently-shaped store would lose data. *)
let load_newest ~dir ~universe =
  let rec go skipped = function
    | [] -> Result.Ok None
    | (_, path) :: older -> (
        match validate ~universe path with
        | Result.Ok l -> Result.Ok (Some { l with skipped })
        | Result.Error msg
          when String.length msg >= 19
               && String.sub msg 0 19 = "checkpoint universe" ->
            Result.Error (path ^ ": " ^ msg)
        | Result.Error _ -> go (skipped + 1) older)
  in
  go 0 (List.rev (list_checkpoints dir))
