(* Non-blocking Patricia trie over variable-length keys — the extension
   described in the paper's conclusion (Section VI).

   Same algorithm as {!Patricia} (flag descriptors, helping, one help
   routine for all updates, atomic replace), but keys and labels are
   {!Bitkey.Bitstr} bit strings of unbounded length instead of l-bit
   machine integers.  Keys are stored under the 0->01 / 1->10 / $->11
   encoding, which makes distinct keys mutually prefix-free and bounds
   them strictly between the sentinel leaves 00 and 111.

   As the paper notes, with unbounded keys searches remain non-blocking
   (they terminate: the trie's height at any moment is bounded by the
   longest key currently stored) but are no longer wait-free, since
   concurrent insertions of ever-longer keys can extend a search path.

   Snapshots use the same generation-stamped-holder design as
   {!Patricia} (see the [Snapshots] section there for the full
   correctness argument): the root sits behind a holder, every update
   descriptor validates the holder at a single decision CAS, updates
   renew stale internals on descent, and [snapshot] swings the holder
   to a copied root in O(1) of the key count. *)

module B = Bitkey.Bitstr

type info = Unflag of unit ref | Flag of flag | Snap of snap

and node = Leaf of leaf | Internal of internal

and leaf = { key : B.t; linfo : info Atomic.t }

and internal = {
  label : B.t;
  c0 : node Atomic.t; (* left child (next bit 0) *)
  c1 : node Atomic.t; (* right child (next bit 1) *)
  iinfo : info Atomic.t;
  gen : unit ref; (* generation stamp, as in {!Patricia} *)
}

and holder = { epoch : int; hgen : unit ref; hroot : internal }

and decision = Pending | Commit | Abort

and flag = {
  flag_nodes : internal array;
  old_infos : info array;
  unflag_nodes : internal array;
  pnodes : internal array;
  old_children : node array;
  new_children : node array;
  rmv_leaf : leaf option;
  decision : decision Atomic.t;
  fholder : holder;
  fcell : holder Atomic.t;
}

and snap = { s_old : holder; s_new : holder; s_cell : holder Atomic.t }

(* Descent-cost accounting, the [Patricia.stats] subset that makes
   sense here (the contention counters stay PAT-only; the descriptor
   carries no stats field).  Striped like every hot-path counter. *)
type stats = {
  descent_find : Obs.Counter.t;
  descent_insert : Obs.Counter.t;
  descent_delete : Obs.Counter.t;
  descent_replace : Obs.Counter.t;
  descent_searches : Obs.Counter.t;
  descent_depth : Obs.Histogram.t;
}

type t = {
  holder : holder Atomic.t;
  slots : info option Atomic.t list Atomic.t;
  slot_key : info option Atomic.t option ref Domain.DLS.key;
  stats : stats option;
}

let make_stats () =
  {
    descent_find = Obs.Counter.create ();
    descent_insert = Obs.Counter.create ();
    descent_delete = Obs.Counter.create ();
    descent_replace = Obs.Counter.create ();
    descent_searches = Obs.Counter.create ();
    descent_depth = Obs.Histogram.create ();
  }

(* Disabled cost: one branch, as for [Patricia.bump]. *)
let[@inline] descent (stats : stats option) (field : stats -> Obs.Counter.t) d =
  match stats with
  | None -> ()
  | Some s ->
      Obs.Counter.add (field s) d;
      Obs.Counter.incr s.descent_searches;
      Obs.Histogram.record s.descent_depth d

let fresh_unflag () = Unflag (ref ())
let new_leaf key = { key; linfo = Atomic.make (fresh_unflag ()) }

(* The calling domain's published-descriptor slot for [t] (see
   {!Patricia.my_slot}): an update publishes its descriptor here before
   flagging and clears it after completion, so a snapshot can resolve
   every descriptor that might still commit against the frozen
   generation. *)
let my_slot t =
  let r = Domain.DLS.get t.slot_key in
  match !r with
  | Some s -> s
  | None ->
      let s = Atomic.make None in
      let rec push () =
        let l = Atomic.get t.slots in
        if not (Atomic.compare_and_set t.slots l (s :: l)) then push ()
      in
      push ();
      r := Some s;
      s

(* Fault-injection sites and retry backoff, as in {!Patricia}: one
   atomic load and an untaken branch per site unless a chaos policy or
   the contention backoff is enabled. *)
let[@inline] chaos_point (s : Chaos.site) =
  if Atomic.get Chaos.active then Chaos.hit s

let[@inline] retry_pause bo =
  chaos_point Chaos.Retry;
  if Chaos.Backoff.enabled () then Chaos.Backoff.wait bo else bo

(* Flight recorder (lib/obs), as in {!Patricia}: one closed span per
   update attempt into the global trace recorder plus per-cause retry
   attribution, each site costing one atomic load and an untaken branch
   while disabled.  Bit-string keys are folded to an int with
   [Hashtbl.hash] for the trace's [key] field — a stable per-key tag,
   not a reversible encoding. *)
let[@inline] span_start () =
  if Atomic.get Obs.Trace.active then Obs.Clock.now_ns () else 0

let span_emit kind ~key ~ok ~attempt ~site ~t0 =
  match Obs.Trace.recorder () with
  | Some tr ->
      Obs.Trace.emit_span tr kind ~key:(Hashtbl.hash key) ~ok
        ~retries:(attempt - 1) ~attempt ~site ~t0_ns:t0
  | None -> ()

let[@inline] attempt_done kind ~key ~attempt ~t0 ~site ok =
  if t0 <> 0 then span_emit kind ~key ~ok ~attempt ~site ~t0;
  Obs.Attribution.op_complete ();
  ok

let[@inline] attempt_retry kind ~key ~attempt ~t0 cause =
  Obs.Attribution.mark cause ~attempt;
  if t0 <> 0 then
    span_emit kind ~key ~ok:false ~attempt
      ~site:(Obs.Attribution.cause_name cause)
      ~t0

let[@inline] flagged = function
  | Flag _ | Snap _ -> true
  | Unflag _ -> false

let[@inline] retry_cause2 a b =
  if flagged a || flagged b then Obs.Attribution.Flagged_ancestor
  else Obs.Attribution.Conflict

let node_info = function Leaf l -> l.linfo | Internal i -> i.iinfo
let node_label = function Leaf l -> l.key | Internal i -> i.label
let[@inline] child (i : internal) k = if k = 0 then i.c0 else i.c1

let make_internal ~gen label c0 c1 =
  {
    label;
    c0 = Atomic.make c0;
    c1 = Atomic.make c1;
    iinfo = Atomic.make (fresh_unflag ());
    gen;
  }

(* A copy of [i] in generation [gen], children read now: callers read
   [i]'s info field first (Lemma 31, as in {!Patricia.copy_internal}). *)
let copy_internal ~gen (i : internal) =
  make_internal ~gen i.label (Atomic.get i.c0) (Atomic.get i.c1)

let name = "PAT-VLK"

let create ?(record_stats = false) () =
  let gen = ref () in
  let root =
    make_internal ~gen B.empty
      (Leaf (new_leaf B.sentinel_lo))
      (Leaf (new_leaf B.sentinel_hi))
  in
  {
    holder = Atomic.make { epoch = 0; hgen = gen; hroot = root };
    slots = Atomic.make [];
    slot_key = Domain.DLS.new_key (fun () -> ref None);
    stats = (if record_stats then Some (make_stats ()) else None);
  }

(* ------------------------------------------------------------------ *)
(* Search *)

let logically_removed = function
  | Unflag _ | Snap _ -> false
  | Flag f ->
      let p = f.pnodes.(0) and old = f.old_children.(0) in
      not
        (Atomic.get p.c0 == old || Atomic.get p.c1 == old)

type search_result = {
  gp : internal option;
  p : internal;
  p_node : node;
  node : node;
  gp_info : info option;
  p_info : info;
  rmvd : bool;
  depth : int;
      (** child pointers followed from the root to reach [node]
          (the root's direct child is depth 1) *)
}

(* As in {!Patricia.found}: the descent carries [gp] and [gp_info]
   unboxed (the root stands in while [d] = 0) and the options are built
   once per search. *)
let[@inline] found gp gp_info (p : internal) p_boxed p_info d node =
  let rmvd =
    match node with
    | Leaf l -> logically_removed (Atomic.get l.linfo)
    | Internal _ -> false
  in
  {
    gp = (if d > 0 then Some gp else None);
    p;
    p_node = p_boxed;
    node;
    gp_info = (if d > 0 then Some gp_info else None);
    p_info;
    rmvd;
    depth = d + 1;
  }

let search_from (root : internal) v =
  let rec go gp gp_info (p : internal) p_boxed p_info d =
    let node = Atomic.get (child p (B.next_bit p.label v)) in
    match node with
    | Internal i when B.is_proper_prefix i.label v ->
        go p p_info i node (Atomic.get i.iinfo) (d + 1)
    | _ -> found gp gp_info p p_boxed p_info d node
  in
  let ri = Atomic.get root.iinfo in
  go root ri root (Internal root) ri 0

let search t v = search_from (Atomic.get t.holder).hroot v

let key_in_trie node v rmvd =
  match node with Leaf l -> B.equal l.key v && not rmvd | Internal _ -> false

(* ------------------------------------------------------------------ *)
(* help / newFlag / createNode — identical in structure to Patricia *)

let flag_phase fi f =
  let n = Array.length f.flag_nodes in
  let rec loop i =
    if i >= n then true
    else begin
      let x = f.flag_nodes.(i) in
      chaos_point Chaos.Flag_cas;
      ignore (Atomic.compare_and_set x.iinfo f.old_infos.(i) fi);
      if Atomic.get x.iinfo == fi then loop (i + 1) else false
    end
  in
  loop 0

(* Complete an in-flight snapshot: swing the holder (idempotent) and
   release the old root's info field. *)
let help_snap (si : info) (s : snap) =
  ignore (Atomic.compare_and_set s.s_cell s.s_old s.s_new);
  ignore (Atomic.compare_and_set s.s_old.hroot.iinfo si (fresh_unflag ()))

let child_cas_phase f =
  Array.iteri
    (fun i p ->
      let nc = f.new_children.(i) in
      let k = B.next_bit p.label (node_label nc) in
      chaos_point Chaos.Child_cas;
      if not (Atomic.compare_and_set (child p k) f.old_children.(i) nc) then
        Obs.Attribution.mark Obs.Attribution.Child_cas_lost ~attempt:0;
      chaos_point Chaos.After_child_cas)
    f.pnodes

(* Helpers of the array-based [new_flag] below, over the first [m]
   entries of an array.  [index_of a m x 0] is the position of [x] among
   [a.(0 .. m-1)] (physical equality), or -1. *)
let rec index_of (a : internal array) m x j =
  if j = m then -1 else if a.(j) == x then j else index_of a m x (j + 1)

(* Position of the first Flag or Snap among [infos], or its length. *)
let rec first_flagged (infos : info array) i =
  if i = Array.length infos || flagged infos.(i) then i
  else first_flagged infos (i + 1)

(* Lines 112-114: duplicates among the nodes to flag are fine iff they
   carry the same old info value (the same node read twice); otherwise
   the node changed between two reads and the attempt must retry (-1).
   Compacts the first occurrence of each node, with its info, into
   [nodes.(0 .. m-1)] and returns [m]. *)
let rec dedup_flags (nodes : internal array) (infos : info array) i m =
  if i = Array.length nodes then m
  else
    let j = index_of nodes m nodes.(i) 0 in
    if j < 0 then begin
      nodes.(m) <- nodes.(i);
      infos.(m) <- infos.(i);
      dedup_flags nodes infos (i + 1) (m + 1)
    end
    else if infos.(j) == infos.(i) then dedup_flags nodes infos (i + 1) m
    else -1

(* Compacts the first occurrence of each node into [a.(0 .. k-1)]. *)
let rec dedup_nodes (a : internal array) i k =
  if i = Array.length a then k
  else if index_of a k a.(i) 0 >= 0 then dedup_nodes a (i + 1) k
  else begin
    a.(k) <- a.(i);
    dedup_nodes a (i + 1) (k + 1)
  end

let rec help (fi : info) : bool =
  match fi with
  | Unflag _ -> assert false
  | Snap s ->
      help_snap fi s;
      true
  | Flag f -> help_flag fi f

and help_flag (fi : info) (f : flag) : bool =
  let do_child_cas = flag_phase fi f in
  (* The decision CAS: commit only if every flag landed *and* the
     owning trie's holder is still the generation this attempt searched
     — see {!Patricia.help_flag}. *)
  (if Atomic.get f.decision = Pending then
     let d =
       if do_child_cas && Atomic.get f.fcell == f.fholder then Commit
       else Abort
     in
     ignore (Atomic.compare_and_set f.decision Pending d));
  match Atomic.get f.decision with
  | Commit ->
      (match f.rmv_leaf with Some l -> Atomic.set l.linfo fi | None -> ());
      child_cas_phase f;
      chaos_point Chaos.Unflag;
      for i = Array.length f.unflag_nodes - 1 downto 0 do
        ignore
          (Atomic.compare_and_set f.unflag_nodes.(i).iinfo fi (fresh_unflag ()))
      done;
      true
  | Abort ->
      chaos_point Chaos.Backtrack;
      Obs.Attribution.mark Obs.Attribution.Backtrack ~attempt:0;
      for i = Array.length f.flag_nodes - 1 downto 0 do
        ignore
          (Atomic.compare_and_set f.flag_nodes.(i).iinfo fi (fresh_unflag ()))
      done;
      false
  | Pending -> assert false

(* Array-based, as {!Patricia.new_flag}: [nodes.(i)] was read with
   info [infos.(i)]; both are fresh array literals, de-duplicated and
   sorted in place. *)
and new_flag ~fh ~cell ~(nodes : internal array) ~infos ~unflag ~pnodes
    ~old_children ~new_children ~rmv_leaf =
  let n = Array.length nodes in
  let p = first_flagged infos 0 in
  if p < n then begin
    ignore (help infos.(p));
    None
  end
  else
    let m = dedup_flags nodes infos 0 0 in
    if m < 0 then None
    else begin
      (* Line 115: flag in a fixed total order to avoid livelock.  A
         stable insertion sort: at most four entries. *)
      for i = 1 to m - 1 do
        let x = nodes.(i) and xi = infos.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && B.compare nodes.(!j).label x.label > 0 do
          nodes.(!j + 1) <- nodes.(!j);
          infos.(!j + 1) <- infos.(!j);
          decr j
        done;
        nodes.(!j + 1) <- x;
        infos.(!j + 1) <- xi
      done;
      let u = Array.length unflag and k = dedup_nodes unflag 0 0 in
      Some
        (Flag
           {
             flag_nodes = (if m = n then nodes else Array.sub nodes 0 m);
             old_infos = (if m = n then infos else Array.sub infos 0 m);
             unflag_nodes = (if k = u then unflag else Array.sub unflag 0 k);
             pnodes;
             old_children;
             new_children;
             rmv_leaf;
             decision = Atomic.make Pending;
             fholder = fh;
             fcell = cell;
           })
    end

and create_node ~gen n1 n2 info =
  let l1 = node_label n1 and l2 = node_label n2 in
  if B.is_prefix l1 l2 || B.is_prefix l2 l1 then begin
    (match info with
    | Some ((Flag _ | Snap _) as fi) -> ignore (help fi)
    | _ -> ());
    None
  end
  else
    let lcp = B.lcp l1 l2 in
    Some
      (if B.next_bit lcp l1 = 0 then make_internal ~gen lcp n1 n2
       else make_internal ~gen lcp n2 n1)

let copy_node ~gen = function
  | Leaf l -> Leaf (new_leaf l.key)
  | Internal i -> Internal (copy_internal ~gen i)

(* Publication wrapper and copy-on-descent renewal — the update-side
   snapshot machinery, as in {!Patricia.run_own} / [search_renew]. *)

let run_own t fi =
  let slot = my_slot t in
  Atomic.set slot (Some fi);
  let r = help fi in
  Atomic.set slot None;
  r

(* [true] iff the renewal of [p]'s stale child [i] committed. *)
let renew_child t (h : holder) (p : internal) p_info c_boxed (i : internal) =
  match Atomic.get i.iinfo with
  | (Flag _ | Snap _) as fi ->
      ignore (help fi);
      false
  | Unflag _ as ii -> (
      let copy = Internal (copy_internal ~gen:h.hgen i) in
      match
        new_flag ~fh:h ~cell:t.holder ~nodes:[| p; i |] ~infos:[| p_info; ii |]
          ~unflag:[| p |] ~pnodes:[| p |] ~old_children:[| c_boxed |]
          ~new_children:[| copy |] ~rmv_leaf:None
      with
      | Some fi ->
          chaos_point Chaos.Renew;
          run_own t fi
      | None -> false)

(* After a committed renewal the descent goes on from the parent with
   its info re-read, as in {!Patricia.search_renew}.  [None]: a renewal
   aborted or helped a pending descriptor; the caller restarts from a
   fresh holder read. *)
let search_renew t (h : holder) v =
  let rec go gp gp_info (p : internal) p_boxed p_info d =
    let node = Atomic.get (child p (B.next_bit p.label v)) in
    match node with
    | Internal i when B.is_proper_prefix i.label v ->
        if i.gen == h.hgen then go p p_info i node (Atomic.get i.iinfo) (d + 1)
        else if renew_child t h p p_info node i then
          go gp gp_info p p_boxed (Atomic.get p.iinfo) d
        else None
    | _ -> Some (found gp gp_info p p_boxed p_info d node)
  in
  let ri = Atomic.get h.hroot.iinfo in
  go h.hroot ri h.hroot (Internal h.hroot) ri 0

(* ------------------------------------------------------------------ *)
(* Operations over raw encoded keys *)

let check_key v =
  if
    B.is_prefix v B.sentinel_lo
    || B.is_prefix B.sentinel_lo v
    || B.is_prefix v B.sentinel_hi
    || B.is_prefix B.sentinel_hi v
  then invalid_arg "Patricia_vlk: key collides with a sentinel"

let member_key t v =
  check_key v;
  let r = search t v in
  descent t.stats (fun s -> s.descent_find) r.depth;
  key_in_trie r.node v r.rmvd

let sibling_index (p : internal) v = 1 - B.next_bit p.label v

let insert_key t v =
  check_key v;
  let rec attempt bo n =
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew t h v with
    | None ->
        attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
          Obs.Attribution.Conflict;
        attempt (retry_pause bo) (n + 1)
    | Some r ->
        descent t.stats (fun s -> s.descent_insert) r.depth;
        if key_in_trie r.node v r.rmvd then
          attempt_done Obs.Trace.Insert ~key:v ~attempt:n ~t0 ~site:"present"
            false
        else begin
          let node_info_v = Atomic.get (node_info r.node) in
          let node_copy = copy_node ~gen:h.hgen r.node in
          match
            create_node ~gen:h.hgen node_copy (Leaf (new_leaf v))
              (Some node_info_v)
          with
          | None ->
              attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
                (if flagged node_info_v then Obs.Attribution.Flagged_ancestor
                 else Obs.Attribution.Conflict);
              attempt (retry_pause bo) (n + 1)
          | Some new_node -> (
              let fi =
                match r.node with
                | Internal i ->
                    new_flag ~fh:h ~cell:t.holder
                      ~nodes:[| r.p; i |] ~infos:[| r.p_info; node_info_v |]
                      ~unflag:[| r.p |] ~pnodes:[| r.p |]
                      ~old_children:[| r.node |]
                      ~new_children:[| Internal new_node |] ~rmv_leaf:None
                | Leaf _ ->
                    new_flag ~fh:h ~cell:t.holder
                      ~nodes:[| r.p |] ~infos:[| r.p_info |]
                      ~unflag:[| r.p |] ~pnodes:[| r.p |]
                      ~old_children:[| r.node |]
                      ~new_children:[| Internal new_node |] ~rmv_leaf:None
              in
              match fi with
              | Some fi when run_own t fi ->
                  attempt_done Obs.Trace.Insert ~key:v ~attempt:n ~t0
                    ~site:"applied" true
              | Some _ ->
                  attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
                    Obs.Attribution.Flag_cas_lost;
                  attempt (retry_pause bo) (n + 1)
              | None ->
                  attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
                    (retry_cause2 r.p_info node_info_v);
                  attempt (retry_pause bo) (n + 1))
        end
  in
  attempt Chaos.Backoff.init 1

let delete_key t v =
  check_key v;
  let rec attempt bo n =
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew t h v with
    | None ->
        attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
          Obs.Attribution.Conflict;
        attempt (retry_pause bo) (n + 1)
    | Some r ->
        descent t.stats (fun s -> s.descent_delete) r.depth;
        if not (key_in_trie r.node v r.rmvd) then
          attempt_done Obs.Trace.Delete ~key:v ~attempt:n ~t0 ~site:"absent"
            false
        else begin
          let node_sibling = Atomic.get (child r.p (sibling_index r.p v)) in
          match (r.gp, r.gp_info) with
          | Some gp, Some gp_info -> (
              match
                new_flag ~fh:h ~cell:t.holder
                  ~nodes:[| gp; r.p |] ~infos:[| gp_info; r.p_info |]
                  ~unflag:[| gp |] ~pnodes:[| gp |]
                  ~old_children:[| r.p_node |]
                  ~new_children:[| node_sibling |] ~rmv_leaf:None
              with
              | Some fi when run_own t fi ->
                  attempt_done Obs.Trace.Delete ~key:v ~attempt:n ~t0
                    ~site:"applied" true
              | Some _ ->
                  attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
                    Obs.Attribution.Flag_cas_lost;
                  attempt (retry_pause bo) (n + 1)
              | None ->
                  attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
                    (retry_cause2 gp_info r.p_info);
                  attempt (retry_pause bo) (n + 1))
          | _ ->
              attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
                Obs.Attribution.Conflict;
              attempt (retry_pause bo) (n + 1)
        end
  in
  attempt Chaos.Backoff.init 1

let replace_key t vd vi =
  check_key vd;
  check_key vi;
  if B.equal vd vi then false
  else
    let rec attempt bo n =
      let t0 = span_start () in
      let restart bo =
        attempt_retry Obs.Trace.Replace ~key:vd ~attempt:n ~t0
          Obs.Attribution.Conflict;
        bo
      in
      let h = Atomic.get t.holder in
      match search_renew t h vd with
      | None -> attempt (retry_pause (restart bo)) (n + 1)
      | Some rd -> (
      descent t.stats (fun s -> s.descent_replace) rd.depth;
      if not (key_in_trie rd.node vd rd.rmvd) then
        attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0 ~site:"absent"
          false
      else begin
        match search_renew t h vi with
        | None -> attempt (retry_pause (restart bo)) (n + 1)
        | Some ri -> (
        descent t.stats (fun s -> s.descent_replace) ri.depth;
        if key_in_trie ri.node vi ri.rmvd then
          attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0 ~site:"present"
            false
        else begin
          let node_info_i = Atomic.get (node_info ri.node) in
          let node_sibling_d = Atomic.get (child rd.p (sibling_index rd.p vd)) in
          let node_d = rd.node and node_i = ri.node in
          let pd = rd.p and pi = ri.p in
          let leaf_d =
            match node_d with Leaf l -> l | Internal _ -> assert false
          in
          let same_node a b =
            match (a, b) with
            | Leaf x, Leaf y -> x == y
            | Internal x, Internal y -> x == y
            | _ -> false
          in
          let node_i_is ni (x : internal) =
            match ni with Internal i -> i == x | Leaf _ -> false
          in
          let fi =
            if
              rd.gp <> None
              && (not (same_node node_i node_d))
              && (not (node_i_is node_i pd))
              && (not
                    (match rd.gp with
                    | Some gp -> node_i_is node_i gp
                    | None -> false))
              && not (pi == pd)
            then begin
              let gpd = Option.get rd.gp and gpd_info = Option.get rd.gp_info in
              let copy_i = copy_node ~gen:h.hgen node_i in
              match
                create_node ~gen:h.hgen copy_i (Leaf (new_leaf vi))
                  (Some node_info_i)
              with
              | None -> None
              | Some new_node_i -> (
                  match node_i with
                  | Internal i ->
                      new_flag ~fh:h ~cell:t.holder
                        ~nodes:[| gpd; pd; pi; i |]
                        ~infos:[| gpd_info; rd.p_info; ri.p_info; node_info_i |]
                        ~unflag:[| gpd; pi |]
                        ~pnodes:[| pi; gpd |]
                        ~old_children:[| node_i; rd.p_node |]
                        ~new_children:[| Internal new_node_i; node_sibling_d |]
                        ~rmv_leaf:(Some leaf_d)
                  | Leaf _ ->
                      new_flag ~fh:h ~cell:t.holder
                        ~nodes:[| gpd; pd; pi |]
                        ~infos:[| gpd_info; rd.p_info; ri.p_info |]
                        ~unflag:[| gpd; pi |]
                        ~pnodes:[| pi; gpd |]
                        ~old_children:[| node_i; rd.p_node |]
                        ~new_children:[| Internal new_node_i; node_sibling_d |]
                        ~rmv_leaf:(Some leaf_d))
            end
            else if same_node node_i node_d then
              new_flag ~fh:h ~cell:t.holder
                ~nodes:[| pd |] ~infos:[| rd.p_info |]
                ~unflag:[| pd |] ~pnodes:[| pd |] ~old_children:[| node_i |]
                ~new_children:[| Leaf (new_leaf vi) |] ~rmv_leaf:None
            else if
              (node_i_is node_i pd
              && match rd.gp with Some gp -> pi == gp | None -> false)
              || (rd.gp <> None && pi == pd)
            then begin
              let gpd = Option.get rd.gp and gpd_info = Option.get rd.gp_info in
              let sib_info = Atomic.get (node_info node_sibling_d) in
              match
                create_node ~gen:h.hgen node_sibling_d (Leaf (new_leaf vi))
                  (Some sib_info)
              with
              | None -> None
              | Some new_node_i ->
                  new_flag ~fh:h ~cell:t.holder
                    ~nodes:[| gpd; pd |] ~infos:[| gpd_info; rd.p_info |]
                    ~unflag:[| gpd |] ~pnodes:[| gpd |]
                    ~old_children:[| rd.p_node |]
                    ~new_children:[| Internal new_node_i |] ~rmv_leaf:None
            end
            else if
              match rd.gp with Some gp -> node_i_is node_i gp | None -> false
            then begin
              let gpd = Option.get rd.gp in
              let p_sibling_d = Atomic.get (child gpd (sibling_index gpd vd)) in
              match create_node ~gen:h.hgen node_sibling_d p_sibling_d None with
              | None -> None
              | Some new_child_i -> (
                  match
                    create_node ~gen:h.hgen (Internal new_child_i)
                      (Leaf (new_leaf vi)) None
                  with
                  | None -> None
                  | Some new_node_i ->
                      new_flag ~fh:h ~cell:t.holder
                        ~nodes:[| pi; gpd; pd |]
                        ~infos:[| ri.p_info; Option.get rd.gp_info; rd.p_info |]
                        ~unflag:[| pi |] ~pnodes:[| pi |]
                        ~old_children:[| node_i |]
                        ~new_children:[| Internal new_node_i |] ~rmv_leaf:None)
            end
            else None
          in
          match fi with
          | Some fi when run_own t fi ->
              attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0
                ~site:"applied" true
          | Some _ ->
              attempt_retry Obs.Trace.Replace ~key:vd ~attempt:n ~t0
                Obs.Attribution.Flag_cas_lost;
              attempt (retry_pause bo) (n + 1)
          | None ->
              let cause =
                if
                  flagged node_info_i || flagged rd.p_info || flagged ri.p_info
                  || (match rd.gp_info with Some i -> flagged i | None -> false)
                then Obs.Attribution.Flagged_ancestor
                else Obs.Attribution.Conflict
              in
              attempt_retry Obs.Trace.Replace ~key:vd ~attempt:n ~t0 cause;
              attempt (retry_pause bo) (n + 1)
        end)
      end)
    in
    attempt Chaos.Backoff.init 1

(* ------------------------------------------------------------------ *)
(* Byte-string front end (one byte = 8 binary digits) *)

let insert t s = insert_key t (B.encode_bytes s)
let delete t s = delete_key t (B.encode_bytes s)
let member t s = member_key t (B.encode_bytes s)
let replace t ~remove ~add = replace_key t (B.encode_bytes remove) (B.encode_bytes add)

let fold_leaves t ~init ~f =
  let rec go acc = function
    | Leaf l ->
        if
          B.equal l.key B.sentinel_lo
          || B.equal l.key B.sentinel_hi
          || logically_removed (Atomic.get l.linfo)
        then acc
        else f acc l.key
    | Internal i ->
        go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
  in
  go init (Internal (Atomic.get t.holder).hroot)

let to_list t =
  List.rev (fold_leaves t ~init:[] ~f:(fun acc k -> B.decode_bytes k :: acc))

let size t = fold_leaves t ~init:0 ~f:(fun acc _ -> acc + 1)

let check_invariants t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let rec go (path : B.t) node =
    (match Atomic.get (node_info node) with
    | Unflag _ -> ()
    | Snap _ -> err "residual snapshot descriptor on reachable node"
    | Flag _ -> (
        match node with
        | Leaf l -> err "residual flag on reachable leaf %a" B.pp l.key
        | Internal i -> err "residual flag on internal %a" B.pp i.label));
    match node with
    | Leaf l ->
        if not (B.is_prefix path l.key) then
          err "leaf %a not under path %a" B.pp l.key B.pp path
    | Internal i ->
        if not (B.is_prefix path i.label) then
          err "internal %a not under path %a" B.pp i.label B.pp path;
        let c0 = Atomic.get i.c0 and c1 = Atomic.get i.c1 in
        let check dir c =
          let expect = B.extend i.label dir in
          if not (B.is_prefix expect (node_label c)) then
            err "child %d of %a mislabelled" dir B.pp i.label
        in
        check 0 c0;
        check 1 c1;
        go (B.extend i.label 0) c0;
        go (B.extend i.label 1) c1
  in
  go B.empty (Internal (Atomic.get t.holder).hroot);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Snapshots: the same protocol as {!Patricia.snapshot} — sandwich a
   Snap descriptor on the root's info field, swing the holder to a
   fresh-generation copy, then resolve every published descriptor so
   the frozen generation is physically complete before returning. *)

type view = { vepoch : int; vroot : internal }

let snapshot t =
  let rec attempt () =
    let h = Atomic.get t.holder in
    let root = h.hroot in
    match Atomic.get root.iinfo with
    | (Flag _ | Snap _) as fi ->
        ignore (help fi);
        attempt ()
    | Unflag _ as ri ->
        let gen' = ref () in
        let root' = copy_internal ~gen:gen' root in
        let h' = { epoch = h.epoch + 1; hgen = gen'; hroot = root' } in
        let si = Snap { s_old = h; s_new = h'; s_cell = t.holder } in
        if Atomic.compare_and_set root.iinfo ri si then begin
          ignore (Atomic.compare_and_set t.holder h h');
          ignore (Atomic.compare_and_set root.iinfo si (fresh_unflag ()));
          List.iter
            (fun slot ->
              match Atomic.get slot with
              | Some fi -> ignore (help fi)
              | None -> ())
            (Atomic.get t.slots);
          h
        end
        else attempt ()
  in
  let h = attempt () in
  { vepoch = h.epoch; vroot = h.hroot }

module View = struct
  type t = view

  let epoch v = v.vepoch

  (* Frozen walk: info fields are ignored (see {!Patricia.View}) —
     every reachable non-sentinel leaf is an element of the frozen
     set. *)
  let fold_keys v ~init ~f =
    let rec go acc = function
      | Leaf l ->
          if B.equal l.key B.sentinel_lo || B.equal l.key B.sentinel_hi then
            acc
          else f acc l.key
      | Internal i ->
          go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
    in
    go init (Internal v.vroot)

  let fold v ~init ~f =
    fold_keys v ~init ~f:(fun acc k -> f acc (B.decode_bytes k))

  let to_list v = List.rev (fold v ~init:[] ~f:(fun acc s -> s :: acc))
  let size v = fold_keys v ~init:0 ~f:(fun acc _ -> acc + 1)
end

(* ------------------------------------------------------------------ *)
(* Structure forensics: shape census and descent-cost exports *)

(* Per-node footprint on 64-bit, in words.  Fixed parts match
   {!Patricia} (variant wrapper 2, record fields + header, one Atomic
   box of 2 per mutable slot, [Unflag (ref ())] info 4): an internal is
   wrapper 2 + record 6 (header, label, c0, c1, iinfo, gen) + 2 child
   Atomics 4 + iinfo Atomic 2 + Unflag 4 = 18 words before its label.
   Labels and keys add a {!Bitkey.Bitstr.t} record (3 words) plus its
   backing string block (header + padded data words).  Shared strings (the
   sentinels, [B.empty]) are counted once per node by the estimate;
   [Obj.reachable_words] in [census] reports the deduplicated truth. *)
let bitstr_words b =
  let bytes = (B.length b + 7) / 8 in
  3 + 1 + ((bytes + 8) / 8)

let internal_base_words = 18
let leaf_base_words = 11

let census t =
  let a = Obs.Shape.acc ~structure:name in
  let rec go depth node =
    match node with
    | Leaf l ->
        let sentinel =
          B.equal l.key B.sentinel_lo || B.equal l.key B.sentinel_hi
        in
        let keys =
          if sentinel || logically_removed (Atomic.get l.linfo) then 0 else 1
        in
        Obs.Shape.leaf a ~depth ~keys ~sentinel
          ~words:(leaf_base_words + bitstr_words l.key)
    | Internal i ->
        Obs.Shape.internal a ~depth ~prefix_len:(B.length i.label) ~children:2
          ~words:(internal_base_words + bitstr_words i.label);
        go (depth + 1) (Atomic.get i.c0);
        go (depth + 1) (Atomic.get i.c1)
  in
  let root = (Atomic.get t.holder).hroot in
  go 0 (Internal root);
  let measured_words = Obj.reachable_words (Obj.repr root) in
  Some (Obs.Shape.finish ~measured_words a)

let descent_stats t =
  match t.stats with
  | None -> None
  | Some s ->
      Some
        [
          ("descent_nodes_find", Obs.Counter.sum s.descent_find);
          ("descent_nodes_insert", Obs.Counter.sum s.descent_insert);
          ("descent_nodes_delete", Obs.Counter.sum s.descent_delete);
          ("descent_nodes_replace", Obs.Counter.sum s.descent_replace);
          ("descent_searches", Obs.Counter.sum s.descent_searches);
        ]

let descent_summary t =
  match t.stats with
  | None -> None
  | Some s -> Some (Obs.Histogram.snapshot s.descent_depth)
