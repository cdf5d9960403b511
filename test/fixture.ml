(* What the alcotest suites and the crash fuzzer share: scratch-directory
   removal, and the durability model a journaled load
   ([Server.Loadgen.config.journal]) is checked against. *)

module IS = Set.Make (Int)
module P = Server.Protocol

(* Remove [path] and everything under it; a missing path is fine. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

exception Violation of string

let violate fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* Blind application: what the server does to the set if it executes
   [op], independent of what was acknowledged. *)
let apply_blind set op =
  match op with
  | P.Insert k -> IS.add k set
  | P.Delete k -> IS.remove k set
  | P.Member _ -> set
  | P.Replace { remove; add } ->
      if IS.mem remove set && (not (IS.mem add set)) && remove <> add then
        IS.add add (IS.remove remove set)
      else set
  | _ -> set

(* Acknowledged application: additionally check the acked result against
   the model — per-connection pipelining means every earlier operation
   of this connection was acknowledged first, and the keyspace is
   partitioned, so the expected result is exact. *)
let apply_acked conn set ((op, r) : P.op * bool) =
  let expect_bool what expected =
    if r <> expected then
      violate "conn %d: %s acked %b, model says %b" conn what r expected
  in
  (match op with
  | P.Insert k -> expect_bool (Printf.sprintf "INSERT %d" k) (not (IS.mem k set))
  | P.Delete k -> expect_bool (Printf.sprintf "DELETE %d" k) (IS.mem k set)
  | P.Member k -> expect_bool (Printf.sprintf "MEMBER %d" k) (IS.mem k set)
  | P.Replace { remove; add } ->
      expect_bool
        (Printf.sprintf "REPLACE %d->%d" remove add)
        (IS.mem remove set && (not (IS.mem add set)) && remove <> add)
  | _ -> ());
  if r then apply_blind set op else set

(* The recovered slice must equal the acked state extended by some
   prefix of the in-flight operations: the server's state after the
   connection ended cuts the per-connection order at an arbitrary — but
   prefix-closed — point.  Raises [Violation] otherwise. *)
let check_connection ~conn ~recovered ~lo ~hi (j : Server.Loadgen.journal) =
  let slice = IS.filter (fun k -> k >= lo && k < hi) recovered in
  let acked_state = List.fold_left (apply_acked conn) IS.empty j.Server.Loadgen.acked in
  let ok = ref (IS.equal slice acked_state) in
  let s = ref acked_state in
  List.iter
    (fun op ->
      s := apply_blind !s op;
      if IS.equal slice !s then ok := true)
    j.Server.Loadgen.in_flight;
  if not !ok then begin
    let show set =
      String.concat "," (List.map string_of_int (IS.elements set))
    in
    violate
      "conn %d (keys [%d,%d)): recovered slice {%s} matches no prefix state; \
       acked state {%s} (+%d in-flight), lost {%s}, extra {%s}"
      conn lo hi (show slice) (show acked_state)
      (List.length j.Server.Loadgen.in_flight)
      (show (IS.diff acked_state slice))
      (show (IS.diff slice acked_state))
  end
