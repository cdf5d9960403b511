(* Non-blocking Patricia trie with replace operations over l-bit integer
   keys: the paper's PAT.

   The algorithm, snapshots, counters and census are the shared trie
   (trie_body.ml) built over PAT's key module (pat_key.ml) into
   [Pat_trie]; see lib/core/dune.  This file adds the front end: the
   embedding of a key universe into l-bit keys, range folds that prune
   by label span, the extremes and the lazy view sequence. *)

include Pat_trie

let create_width ~width ?(record_stats = false) () =
  if width < 2 || width > Bitkey.max_width then
    invalid_arg "Patricia.create_width: width must be in [2, 62]";
  make ~record_stats { K.width; offset = 0; bound = (1 lsl width) - 1 }

(* Embed user keys [0, universe) as internal keys [1, universe], leaving
   0 and 2^width - 1 free for the sentinels. *)
let create ~universe ?(record_stats = false) () =
  if universe < 1 then invalid_arg "Patricia.create: universe must be >= 1";
  let width = max 2 (Bitkey.bit_length (universe + 1)) in
  make ~record_stats { K.width; offset = 1; bound = universe }

let iter t ~f = fold t ~init:() ~f:(fun () k -> f k)
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k -> k :: acc))

exception Found_key of int

let min_elt t =
  match fold t ~init:() ~f:(fun () k -> raise_notrace (Found_key k)) with
  | () -> None
  | exception Found_key k -> Some k

let max_elt t =
  (* Mirror traversal: rightmost real leaf first. *)
  let c = t.ctx in
  let rec go = function
    | Any (Leaf l as n) ->
        if
          (not (K.is_sentinel c l.key))
          && not (logically_removed (Atomic.get (info_cell n)))
        then raise_notrace (Found_key (K.export c l.key))
    | Any (Internal i) ->
        go i.c1;
        go i.c0
  in
  match go (Any (Atomic.get t.holder).hroot) with
  | () -> None
  | exception Found_key k -> Some k

(* Range query: visit keys in [lo, hi] in ascending order, pruning every
   subtree whose span is disjoint from the range — the quadtree-style
   search the paper's GIS application relies on.  [live] walks skip
   logically removed leaves; frozen ones ignore info fields (see the
   Snapshots section of trie_body.ml). *)
let fold_range_from ~live (c : K.ctx) root ~lo ~hi ~init ~f =
  (* Clamp to the valid user-key range: [0, bound) for embedded-universe
     tries, [1, 2^w - 2] for raw-width tries (offset 0). *)
  let lo = max lo (1 - c.offset) and hi = min hi (c.bound - 1) in
  if lo > hi then init
  else begin
    let ilo = lo + c.offset and ihi = hi + c.offset in
    let rec go acc node =
      match node with
      | Any (Leaf l as n) ->
          if
            l.key >= ilo && l.key <= ihi
            && not (live && logically_removed (Atomic.get (info_cell n)))
          then f acc (l.key - c.offset)
          else acc
      | Any (Internal i) ->
          (* The node's span, [m - low .. m + low - 1] (pat_key.ml). *)
          let m = i.label in
          let low = m land -m in
          if m + low - 1 < ilo || m - low > ihi then acc
          else go (go acc i.c0) i.c1
    in
    go init (Any root)
  end

let fold_range t = fold_range_from ~live:true t.ctx (Atomic.get t.holder).hroot

module View = struct
  include View

  let fold_range v = fold_range_from ~live:false v.vctx v.vroot
  let to_list v = List.rev (fold v ~init:[] ~f:(fun acc k -> k :: acc))

  let to_seq v =
    let c = v.vctx in
    let rec walk node tail () =
      match node with
      | Any (Leaf l) ->
          if K.is_sentinel c l.key then tail ()
          else Seq.Cons (K.export c l.key, tail)
      | Any (Internal i) ->
          walk i.c0 (fun () -> walk i.c1 tail ()) ()
    in
    fun () -> walk (Any v.vroot) (fun () -> Seq.Nil) ()
end

let snapshot_capability t =
  let v = snapshot t in
  Some
    Dset_intf.
      {
        v_epoch = View.epoch v;
        v_fold = (fun ~init ~f -> View.fold v ~init ~f);
        v_fold_range = (fun ~lo ~hi ~init ~f -> View.fold_range v ~lo ~hi ~init ~f);
        v_to_seq = (fun () -> View.to_seq v);
      }
