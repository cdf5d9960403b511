(* Non-blocking binary search tree of

     F. Ellen, P. Fatourou, E. Ruppert, F. van Breugel,
     "Non-blocking binary search trees", PODC 2010.

   This is the "BST" baseline of the Patricia-trie paper's evaluation, and
   also the algorithm whose flag/help coordination scheme the Patricia trie
   generalizes.

   The tree is leaf-oriented: internal nodes hold routing keys, elements
   live in leaves, and every internal node has exactly two children.  A
   search for k goes left iff k < node.key.  Two sentinel keys inf1 < inf2
   (here [universe] and [universe + 1]) pad the initial tree so the root is
   never replaced.

   Each internal node has an [update] field holding a (state, info) pair
   that is CASed as a unit.  We represent the pair as a fresh immutable
   record per write; [Atomic.compare_and_set]'s physical equality then
   gives exactly the pair-CAS of the paper with no ABA (a record is never
   reused). *)

type node = Leaf of int | Node of internal

and internal = {
  key : int;
  left : node Atomic.t;
  right : node Atomic.t;
  update : update Atomic.t;
}

and update = { state : state; info : info }

and state = Clean | IFlag | DFlag | Mark

and info = No_info | I of iinfo | D of dinfo

(* IInfo: p's child [l] (the physically-read leaf value) is to be replaced
   by [new_internal]. *)
and iinfo = { ip : internal; il : node; new_internal : node }

(* DInfo: gp's child [p_node] is to be replaced by the sibling of leaf
   [dl]; [pupdate] is the value read from p.update before flagging gp. *)
and dinfo = {
  dgp : internal;
  dp : internal;
  dp_node : node;
  dl : node;
  pupdate : update;
}

type t = { root : internal; inf1 : int; inf2 : int }

let clean () = { state = Clean; info = No_info }

let new_internal key left right =
  {
    key;
    left = Atomic.make left;
    right = Atomic.make right;
    update = Atomic.make (clean ());
  }

let name = "BST"

let create ~universe () =
  if universe < 1 then invalid_arg "Nbbst.create: universe must be >= 1";
  let inf1 = universe and inf2 = universe + 1 in
  { root = new_internal inf2 (Leaf inf1) (Leaf inf2); inf1; inf2 }

type search_result = {
  gp : internal option;
  p : internal;
  p_node : node;
  l : node;
  pupdate : update;
  gpupdate : update option;
}

let search t k =
  let rec go gp gpupdate (p : internal) p_node pupdate =
    let child = if k < p.key then Atomic.get p.left else Atomic.get p.right in
    match child with
    | Node i -> go (Some p) (Some pupdate) i child (Atomic.get i.update)
    | Leaf _ -> { gp; p; p_node; l = child; pupdate; gpupdate }
  in
  go None None t.root (Node t.root) (Atomic.get t.root.update)

let leaf_key = function Leaf k -> k | Node _ -> assert false

let member t k =
  let r = search t k in
  leaf_key r.l = k

(* CAS the child pointer of [p] that a key equal to [new_node]'s route
   would follow (the paper's CAS-Child). *)
let cas_child (p : internal) (old_node : node) (new_node : node) route_key =
  let field = if route_key < p.key then p.left else p.right in
  ignore (Atomic.compare_and_set field old_node new_node)

let help_insert_u (u : update) =
  match u.info with
  | I op ->
      cas_child op.ip op.il op.new_internal (leaf_key op.il);
      ignore
        (Atomic.compare_and_set op.ip.update u { state = Clean; info = I op })
  | _ -> assert false

let help_marked (u_dflag : update) (op : dinfo) =
  (* dchild CAS: replace p by the sibling of l, then dunflag gp. *)
  let other =
    if Atomic.get op.dp.right == op.dl then Atomic.get op.dp.left
    else Atomic.get op.dp.right
  in
  cas_child op.dgp op.dp_node other
    (match other with Node i -> i.key | Leaf k -> k);
  ignore
    (Atomic.compare_and_set op.dgp.update u_dflag { state = Clean; info = D op })

let rec help_delete (u_dflag : update) (op : dinfo) =
  (* mark CAS on p; if it (or a helper's) succeeded, finish; otherwise the
     deletion is aborted: help whatever got in the way and backtrack. *)
  ignore
    (Atomic.compare_and_set op.dp.update op.pupdate { state = Mark; info = D op });
  let result = Atomic.get op.dp.update in
  match result with
  | { state = Mark; info = D op' } when op' == op ->
      help_marked u_dflag op;
      true
  | _ ->
      help result;
      ignore
        (Atomic.compare_and_set op.dgp.update u_dflag
           { state = Clean; info = D op });
      false

and help (u : update) =
  match (u.state, u.info) with
  | IFlag, I _ -> help_insert_u u
  | DFlag, D op -> ignore (help_delete u op)
  | Mark, D op -> (
      (* Find the DFlag record on gp: it is the one op installed; helpers
         of a marked node finish the removal. *)
      match Atomic.get op.dgp.update with
      | { state = DFlag; info = D op' } as u' when op' == op -> help_marked u' op
      | _ -> ())
  | _ -> ()

(* [flagged] sees the IFlag record of the attempt that succeeds. *)
let insert_with ~flagged t k =
  if k < 0 || k >= t.inf1 then invalid_arg "Nbbst.insert: key out of universe";
  let rec attempt () =
    let r = search t k in
    if leaf_key r.l = k then false
    else if r.pupdate.state <> Clean then begin
      help r.pupdate;
      attempt ()
    end
    else begin
      let old_key = leaf_key r.l in
      let new_leaf = Leaf k in
      (* The old leaf is copied, as in the paper's Insert (newSibling),
         so no node is ever linked into the tree twice.  Reusing [r.l]
         would be an ABA: deleting [k] again splices [r.l] back under
         [r.p], and a helper of this insert still holding its IFlag
         record would then win its child CAS and re-link [inner]. *)
      let sibling = Leaf old_key in
      let inner =
        if k < old_key then new_internal old_key new_leaf sibling
        else new_internal k sibling new_leaf
      in
      let op = { ip = r.p; il = r.l; new_internal = Node inner } in
      let u = { state = IFlag; info = I op } in
      if Atomic.compare_and_set r.p.update r.pupdate u then begin
        flagged u;
        help_insert_u u;
        true
      end
      else begin
        help (Atomic.get r.p.update);
        attempt ()
      end
    end
  in
  attempt ()

let insert t k = insert_with ~flagged:ignore t k

let delete t k =
  if k < 0 || k >= t.inf1 then invalid_arg "Nbbst.delete: key out of universe";
  let rec attempt () =
    let r = search t k in
    if leaf_key r.l <> k then false
    else
      match (r.gp, r.gpupdate) with
      | Some gp, Some gpupdate ->
          if gpupdate.state <> Clean then begin
            help gpupdate;
            attempt ()
          end
          else if r.pupdate.state <> Clean then begin
            help r.pupdate;
            attempt ()
          end
          else begin
            let op =
              {
                dgp = gp;
                dp = r.p;
                dp_node = r.p_node;
                dl = r.l;
                pupdate = r.pupdate;
              }
            in
            let u = { state = DFlag; info = D op } in
            if Atomic.compare_and_set gp.update gpupdate u then begin
              if help_delete u op then true else attempt ()
            end
            else begin
              help (Atomic.get gp.update);
              attempt ()
            end
          end
      | _ ->
          (* p is the root: impossible for a real key, since the sentinel
             leaves keep every real leaf at depth >= 2. *)
          attempt ()
  in
  attempt ()

let fold_leaves t ~init ~f =
  let rec go acc = function
    | Leaf k -> if k >= t.inf1 then acc else f acc k
    | Node i -> go (go acc (Atomic.get i.left)) (Atomic.get i.right)
  in
  go init (Node t.root)

let to_list t = fold_leaves t ~init:[] ~f:(fun acc k -> k :: acc) |> List.sort Int.compare
let size t = fold_leaves t ~init:0 ~f:(fun acc _ -> acc + 1)

(* Structural invariants: leaf-oriented BST order and two children per
   internal node (the latter holds by construction). *)
let check_invariants t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let rec go lo hi = function
    | Leaf k ->
        if not (lo <= k && k < hi) then err "leaf %d outside (%d, %d)" k lo hi
    | Node i ->
        if not (lo <= i.key && i.key <= hi) then
          err "internal key %d outside (%d, %d)" i.key lo hi;
        go lo i.key (Atomic.get i.left);
        go i.key hi (Atomic.get i.right)
  in
  go min_int (t.inf2 + 1) (Node t.root);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* Structure forensics: this baseline is not instrumented; [None] is
   the registry's explicit "unsupported" marker for the census and
   descent-cost capabilities. *)
let census _ = None
let descent_stats _ = None

let snapshot _ = None

module For_testing = struct
  let insert_with_late_helper t k =
    let late = ref ignore in
    let inserted =
      insert_with ~flagged:(fun u -> late := fun () -> help_insert_u u) t k
    in
    (inserted, !late)
end
