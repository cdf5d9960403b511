(* The bulk loader, [load_ascending], for PAT and PAT-VLK: a loaded trie
   is the trie the same keys inserted one by one build, a rejected input
   leaves the trie as it was, and a loaded trie takes concurrent updates
   and snapshots like any other. *)

module P = Core.Patricia
module V = Core.Patricia_vlk
module B = Bitkey.Bitstr

module type SUBJECT = sig
  type t
  type key

  val create : unit -> t
  val insert : t -> key -> bool
  val delete : t -> key -> bool
  val replace : t -> remove:key -> add:key -> bool
  val load : t -> key array -> unit
  val to_list : t -> key list
  val snapshot_list : t -> key list
  val check_invariants : t -> (unit, string) result
  val census : t -> Dset_intf.census option

  val order : key -> key -> int
  (** The trie's in-order order. *)

  val extremes : key array
  (** The keys next to the sentinels, ascending. *)

  val random : Rng.t -> int -> key array
  (** Distinct keys, ascending. *)

  val pp : key -> string
end

(* What two tries with the same shape agree on: contents, node counts
   and the distributions of leaf depths and label lengths. *)
let shape (c : Dset_intf.census) =
  ( c.internals,
    c.leaves,
    c.keys,
    c.max_depth,
    c.leaf_depth_hist,
    c.prefix_len_hist )

module Cases (X : SUBJECT) = struct
  let census t = Option.get (X.census t)

  let ok what t =
    match X.check_invariants t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: invariants: %s" what e

  let keys_equal what want got =
    if List.length want <> List.length got || List.exists2 (fun a b -> X.order a b <> 0) want got
    then
      Alcotest.failf "%s: %d keys, want %d (first: %s)" what (List.length got)
        (List.length want)
        (match got with k :: _ -> X.pp k | [] -> "none")

  (* Loaded and inserted, the same keys give the same trie. *)
  let same_as_inserted what keys =
    let loaded = X.create () and built = X.create () in
    X.load loaded keys;
    Array.iter (fun k -> ignore (X.insert built k : bool)) keys;
    ok what loaded;
    keys_equal what (Array.to_list keys) (X.to_list loaded);
    keys_equal what (X.to_list built) (X.to_list loaded);
    let cl = census loaded and cb = census built in
    Alcotest.(check int) (what ^ ": internal nodes") cb.internals cl.internals;
    Alcotest.(check int) (what ^ ": leaves") cb.leaves cl.leaves;
    if shape cl <> shape cb then Alcotest.failf "%s: shape differs" what

  let test_small () =
    same_as_inserted "0 keys" [||];
    Array.iter (fun k -> same_as_inserted ("1 key " ^ X.pp k) [| k |]) X.extremes;
    same_as_inserted "2 keys at the sentinels" X.extremes;
    let rng = Rng.of_int_seed 1 in
    for n = 1 to 40 do
      same_as_inserted (Printf.sprintf "%d random keys" n) (X.random rng n)
    done

  let test_random () =
    let rng = Rng.of_int_seed 2 in
    let keys = X.random rng 32768 in
    same_as_inserted "32768 random keys" keys;
    same_as_inserted "with the extremes"
      (Array.concat [ [| X.extremes.(0) |]; X.random rng 1000; [| X.extremes.(1) |] ])

  (* [load t keys] raises [Invalid_argument] naming [says], and [t]
     keeps its keys and its shape. *)
  let rejects ?(says = "") what t keys =
    let before = X.to_list t and shape_before = shape (census t) in
    (match X.load t keys with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument m ->
        let n = String.length says in
        let rec found i = i + n <= String.length m && (String.sub m i n = says || found (i + 1)) in
        if not (found 0) then Alcotest.failf "%s: %S does not say %S" what m says);
    keys_equal (what ^ ": contents kept") before (X.to_list t);
    if shape (census t) <> shape_before then Alcotest.failf "%s: shape changed" what;
    ok what t

  (* Bad keys, early and late in the array: the trie stays fresh, so a
     good load still works afterwards. *)
  let test_rejects_keys () =
    let rng = Rng.of_int_seed 3 in
    let k = X.random rng 50 in
    let swap a i j =
      let a = Array.copy a in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x;
      a
    in
    let bad =
      [
        ("descending pair", "ascending", [| k.(1); k.(0) |]);
        ("late descent", "ascending", swap k 40 41);
        ("early descent", "ascending", swap k 0 1);
        ("duplicate", "duplicate", [| k.(0); k.(0) |]);
        ("late duplicate", "duplicate", Array.append k [| k.(49) |]);
        ("reversed", "ascending", Array.of_list (List.rev (Array.to_list k)));
      ]
    in
    List.iter
      (fun (what, says, keys) ->
        let t = X.create () in
        rejects ~says what t keys;
        X.load t k;
        keys_equal (what ^ ": still fresh") (Array.to_list k) (X.to_list t))
      bad

  (* A trie that was updated, snapshotted or loaded is not fresh. *)
  let test_rejects_used () =
    let rng = Rng.of_int_seed 4 in
    let k = X.random rng 20 in
    let more = [| k.(3) |] in
    let inserted = X.create () in
    ignore (X.insert inserted k.(0) : bool);
    rejects ~says:"not fresh" "after an insert" inserted more;
    let emptied = X.create () in
    ignore (X.insert emptied k.(0) : bool);
    ignore (X.delete emptied k.(0) : bool);
    rejects ~says:"not fresh" "after insert and delete" emptied more;
    let snapped = X.create () in
    ignore (X.snapshot_list snapped : X.key list);
    rejects ~says:"not fresh" "after a snapshot" snapped more;
    let loaded = X.create () in
    X.load loaded k;
    rejects ~says:"not fresh" "after a load" loaded more;
    (* An empty load leaves a trie no different from a fresh one. *)
    let empty = X.create () in
    X.load empty [||];
    X.load empty k;
    keys_equal "empty load, then a load" (Array.to_list k) (X.to_list empty)

  (* Two domains update disjoint halves of a key pool over a loaded
     trie, the second taking snapshots as it goes; each keeps a model of
     its half, and the trie must end as their union with its invariants
     whole. *)
  let test_storm () =
    Tutil.time_limit 300;
    let rng = Rng.of_int_seed 5 in
    let pool = X.random rng 4096 in
    let half = Array.length pool / 2 in
    let initial = Array.of_list (List.filteri (fun i _ -> i mod 3 <> 0) (Array.to_list pool)) in
    let t = X.create () in
    X.load t initial;
    let present = Hashtbl.create 4096 in
    Array.iter (fun k -> Hashtbl.replace present k ()) initial;
    let run d =
      let rng = Rng.of_int_seed (10 + d) in
      let lo = d * half in
      let mine = Hashtbl.create half in
      for i = lo to lo + half - 1 do
        if Hashtbl.mem present pool.(i) then Hashtbl.replace mine pool.(i) ()
      done;
      let key () = pool.(lo + Rng.int rng half) in
      for i = 1 to 20_000 do
        let k = key () in
        (match Rng.int rng 3 with
        | 0 ->
            let want = not (Hashtbl.mem mine k) in
            if X.insert t k <> want then Alcotest.failf "domain %d: insert" d;
            Hashtbl.replace mine k ()
        | 1 ->
            let want = Hashtbl.mem mine k in
            if X.delete t k <> want then Alcotest.failf "domain %d: delete" d;
            Hashtbl.remove mine k
        | _ ->
            let a = key () in
            let want = Hashtbl.mem mine k && not (Hashtbl.mem mine a) in
            if X.replace t ~remove:k ~add:a <> want then
              Alcotest.failf "domain %d: replace" d;
            if want then begin
              Hashtbl.remove mine k;
              Hashtbl.replace mine a ()
            end);
        if d = 1 && i mod 500 = 0 then begin
          let rec ascending = function
            | a :: (b :: _ as rest) -> X.order a b < 0 && ascending rest
            | _ -> true
          in
          if not (ascending (X.snapshot_list t)) then
            Alcotest.fail "snapshot not ascending"
        end
      done;
      Hashtbl.fold (fun k () acc -> k :: acc) mine []
    in
    let finals = Tutil.join_all (Tutil.spawn_n 2 run) in
    let want = List.sort X.order (List.concat finals) in
    ok "after the storm" t;
    keys_equal "after the storm" want (X.to_list t)

  let cases =
    [
      Alcotest.test_case "0, 1, 2 keys and the extremes" `Quick test_small;
      Alcotest.test_case "32768 random keys" `Quick test_random;
      Alcotest.test_case "bad keys leave it fresh" `Quick test_rejects_keys;
      Alcotest.test_case "a used trie is refused" `Quick test_rejects_used;
      Alcotest.test_case "2-domain storm over a load" `Quick test_storm;
    ]
end

let universe = 1 lsl 16

module Pat = struct
  type t = P.t
  type key = int

  let create () = P.create ~universe ()
  let insert = P.insert
  let delete = P.delete
  let replace = P.replace
  let load = P.load_ascending
  let to_list = P.to_list
  let snapshot_list t = P.View.to_list (P.snapshot t)
  let check_invariants = P.check_invariants
  let census = P.census
  let order = Int.compare
  let extremes = [| 0; universe - 1 |]

  let random rng n =
    let seen = Hashtbl.create n in
    while Hashtbl.length seen < n do
      Hashtbl.replace seen (Rng.int rng universe) ()
    done;
    let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
    Array.sort Int.compare a;
    a

  let pp = string_of_int
end

(* Keys are byte strings, loaded through their encoding and ordered by
   it: for prefix-free bit strings, [String.compare] on the padded data
   is the bit order. *)
module Vlk = struct
  type t = V.t
  type key = string

  let create () = V.create ()
  let insert = V.insert
  let delete = V.delete
  let replace = V.replace
  let load t keys = V.load_ascending t (Array.map B.encode_bytes keys)
  let to_list = V.to_list
  let snapshot_list t = V.View.to_list (V.snapshot t)
  let check_invariants = V.check_invariants
  let census = V.census
  let order a b = String.compare (B.encode_bytes a).data (B.encode_bytes b).data

  (* The longest all-zero string sorts first, the one-byte 0xff last. *)
  let extremes = [| "\000\000\000\000"; "\255" |]

  let random rng n =
    let seen = Hashtbl.create n in
    while Hashtbl.length seen < n do
      let len = 1 + Rng.int rng 3 in
      Hashtbl.replace seen (String.init len (fun _ -> Char.chr (Rng.int rng 256))) ()
    done;
    let a = Array.of_seq (Seq.map (fun s -> ((B.encode_bytes s).data, s)) (Hashtbl.to_seq_keys seen)) in
    Array.sort (fun (a, _) (b, _) -> String.compare a b) a;
    Array.map snd a

  let pp = String.escaped
end

module Pat_cases = Cases (Pat)
module Vlk_cases = Cases (Vlk)

(* Every key set of the smallest universes, loaded and inserted. *)
let test_pat_every_small_set () =
  for u = 1 to 6 do
    for bits = 0 to (1 lsl u) - 1 do
      let keys = Array.of_list (List.filter (fun k -> bits land (1 lsl k) <> 0) (List.init u Fun.id)) in
      let loaded = P.create ~universe:u () and built = P.create ~universe:u () in
      P.load_ascending loaded keys;
      Array.iter (fun k -> ignore (P.insert built k : bool)) keys;
      let what = Printf.sprintf "universe %d, set %#x" u bits in
      (match P.check_invariants loaded with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" what e);
      Alcotest.(check (list int)) what (P.to_list built) (P.to_list loaded);
      if shape (Option.get (P.census loaded)) <> shape (Option.get (P.census built))
      then Alcotest.failf "%s: shape differs" what
    done
  done

let test_pat_out_of_universe () =
  List.iter
    (fun (what, keys) ->
      let t = Pat.create () in
      Pat_cases.rejects what t keys;
      P.load_ascending t [| 1; 2 |];
      Alcotest.(check (list int)) (what ^ ": still fresh") [ 1; 2 ] (P.to_list t))
    [
      ("negative", [| -1 |]);
      ("the universe", [| universe |]);
      ("late, past the universe", [| 0; 7; universe - 1; universe |]);
      ("max_int", [| 3; max_int |]);
    ]

let test_vlk_sentinel_keys () =
  List.iter
    (fun (what, key) ->
      let t = V.create () in
      (match V.load_ascending t [| key |] with
      | () -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ());
      Alcotest.(check (list string)) (what ^ ": empty") [] (V.to_list t))
    [ ("low sentinel", B.sentinel_lo); ("high sentinel", B.sentinel_hi) ]

(* Keys that are each a prefix of the next as strings: one chain 200
   nodes deep, so the loader's stack grows past its first 64 entries. *)
let test_vlk_deep_chain () =
  let keys = Array.init 200 (fun i -> String.make (i + 1) 'a') in
  Array.sort Vlk.order keys;
  Vlk_cases.same_as_inserted "200 nested strings" keys;
  let depth = (Option.get (V.census (let t = V.create () in Vlk.load t keys; t))).max_depth in
  Alcotest.(check bool) (Printf.sprintf "depth %d > 64" depth) true (depth > 64)

let () =
  Alcotest.run "load"
    [
      ("PAT", Pat_cases.cases);
      ( "PAT edges",
        [
          Alcotest.test_case "every set of universes 1..6" `Quick
            test_pat_every_small_set;
          Alcotest.test_case "keys out of the universe" `Quick
            test_pat_out_of_universe;
        ] );
      ("PAT-VLK", Vlk_cases.cases);
      ( "PAT-VLK edges",
        [
          Alcotest.test_case "sentinel keys refused" `Quick test_vlk_sentinel_keys;
          Alcotest.test_case "a chain deeper than the stack" `Quick test_vlk_deep_chain;
        ] );
    ]
