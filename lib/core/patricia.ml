(* Non-blocking Patricia trie with replace operations.

   This is a direct transcription of the algorithm of

     N. Shafiei, "Non-blocking Patricia Tries with Replace Operations",
     ICDCS 2013 (arXiv:1303.3626),

   for an asynchronous shared-memory system with single-word CAS.  Line
   numbers in comments refer to the paper's pseudocode (Figures 2-4).

   Concurrency notes specific to OCaml 5:

   - [Atomic.compare_and_set] compares by physical equality, which matches
     the paper's pointer-identity CAS.
   - The paper avoids the ABA problem on [info] fields by installing a
     *newly allocated* Unflag object on every unflag/backtrack CAS; we
     reproduce this with [Unflag (ref ())], whose block is fresh per
     allocation, so two Unflags are never physically equal.
   - A Flag descriptor must be wrapped in the [info] variant exactly once
     so that all CASes and reads compare the same physical value; the
     shared wrapper is created in [new_flag] and threaded everywhere.

   Snapshots (not part of the paper; see the [Snapshots] section below):
   the trie root sits behind a generation-stamped holder, every update
   descriptor validates the holder at a single decision CAS, and a
   snapshot swings the holder to a copied root — O(1) in the number of
   keys — after which the old generation is immutable. *)

module Label = Bitkey.Label

type info = Unflag of unit ref | Flag of flag | Snap of snap

and node = Leaf of leaf | Internal of internal

and leaf = { key : int; linfo : info Atomic.t }

and internal = {
  lbits : int;
  llen : int;
      (* The node's label, the first [llen] bits of its keys right-aligned
         in [lbits]: two immediate fields rather than a boxed [Label.t],
         so a descent step reads the label from the record it already
         holds. *)
  c0 : node Atomic.t; (* left child (next bit 0) *)
  c1 : node Atomic.t; (* right child (next bit 1) *)
  iinfo : info Atomic.t;
  gen : unit ref;
      (* Generation stamp: physically equal to [hgen] of the holder that
         was current when this node was created.  Immutable.  Updates
         renew (copy into the current generation) every internal node
         they descend through whose stamp is stale, so the nodes whose
         children they CAS always belong to the live generation and the
         frozen generations behind past snapshots are never mutated. *)
}

(* One generation of the trie.  [hroot] is that generation's root;
   [hgen] is the identity the root's descendants are stamped with.
   The live generation is the one in [t.holder]; a snapshot replaces it
   wholesale (fresh [hroot] sharing the old children), so a holder value
   doubles as a frozen, immutable version once superseded. *)
and holder = { epoch : int; hgen : unit ref; hroot : internal }

(* The fate of an update descriptor.  [Pending] until some process that
   completed the flagging phase validates the generation; the single
   decision CAS is the only place an update commits, so a snapshot that
   swings the holder strictly before that CAS is never missed. *)
and decision = Pending | Commit | Abort

(* The Flag descriptor (paper Figure 2, lines 8-16).  [flag_nodes] are the
   internal nodes to flag, sorted by label; [old_infos.(i)] is the value
   that must still be in [flag_nodes.(i).iinfo] for the flag CAS to
   succeed.  Child [k] of [pnodes.(i)] is CASed from [old_children.(i)]
   to [new_children.(i)].  [unflag_nodes] are unflagged afterwards; flagged
   nodes absent from it are removed from the trie and stay flagged
   ("marked") forever.  [rmv_leaf] is the leaf logically removed by a
   general-case replace. *)
and flag = {
  flag_nodes : internal array;
  old_infos : info array;
  unflag_nodes : internal array;
  pnodes : internal array;
  old_children : node array;
  new_children : node array;
  rmv_leaf : leaf option;
  decision : decision Atomic.t;
      (* Replaces the paper's [flag_done] bit: [Commit] is decided by
         the single CAS of a process that observed every flag CAS
         succeed *and* the owning trie's holder still equal to
         [fholder]; the child CASes run only under a [Commit].  The
         paper's semantics are the special case where the holder never
         changes. *)
  fholder : holder; (* the generation this attempt's search ran against *)
  fcell : holder Atomic.t; (* the owning trie's holder cell, for validation *)
  fwidth : int; (* key width of the owning trie, for child-index computation *)
  fstats : stats option;
      (* The owning trie's counters, carried by the descriptor so that
         helpers — which see only the descriptor — can attribute events
         (helps received, backtracks) to the right trie. *)
}

(* Descriptor of an in-flight snapshot, installed on the old root's
   [iinfo] like a one-node flag: it proves the root's children did not
   change between being copied into [s_new.hroot] and the holder CAS,
   and it lets any process (an update that finds it while flagging the
   root, or a concurrent snapshot) complete the swing. *)
and snap = { s_old : holder; s_new : holder; s_cell : holder Atomic.t }

(* Counters for the help-rate ablation and the observability layer;
   disabled (None) by default so the hot path pays a single branch.
   Each counter is striped per domain ([Obs.Counter]): enabling stats no
   longer shares one Atomic.t across domains, so the instrumentation
   does not become the contention hotspot it is measuring. *)
and stats = {
  attempts : Obs.Counter.t; (* retry-loop iterations across all updates *)
  helps_given : Obs.Counter.t; (* calls to help on *another* op's descriptor *)
  helps_received : Obs.Counter.t;
      (* flag CASes lost because another process had already installed
         this very descriptor — i.e. our operation was helped along *)
  flag_failures : Obs.Counter.t; (* attempts abandoned in the flagging phase *)
  backtracks : Obs.Counter.t; (* failed flag phases backed out in help *)
  backoff_waits : Obs.Counter.t;
      (* retries that paused in the contention backoff (Chaos.Backoff) *)
  renewals : Obs.Counter.t;
      (* committed copy-on-descent renewals of stale-generation nodes *)
  (* Descent-cost accounting: nodes visited per search (root included),
     split by the opcode that ran the search, plus a depth histogram
     for the tail.  One search = one histogram record + one counter
     add, on the recording domain's own stripe. *)
  descent_find : Obs.Counter.t;
  descent_insert : Obs.Counter.t;
  descent_delete : Obs.Counter.t;
  descent_replace : Obs.Counter.t;
  descent_searches : Obs.Counter.t;
  descent_depth : Obs.Histogram.t;
}

(* Point-in-time merged view of the counters (see [stats_snapshot]). *)
type snapshot = {
  attempts : int;
  helps_given : int;
  helps_received : int;
  flag_failures : int;
  backtracks : int;
  backoff_waits : int;
  descent_nodes_find : int;
  descent_nodes_insert : int;
  descent_nodes_delete : int;
  descent_nodes_replace : int;
  descent_searches : int;
  renewals : int;
}

type t = {
  width : int;
  holder : holder Atomic.t; (* the live generation; swung only by snapshots *)
  slots : info option Atomic.t list Atomic.t;
      (* Published-descriptor registry: one slot per domain that ever
         updated this trie.  An update publishes its descriptor before
         the flagging phase and clears the slot after completion, so a
         snapshot can resolve (commit or abort) every descriptor that
         might still commit against the generation it froze — the scan
         is O(#domains), independent of the key count. *)
  slot_key : info option Atomic.t option ref Domain.DLS.key;
  offset : int;
  bound : int; (* exclusive upper bound on user keys *)
  stats : stats option;
}

(* The calling domain's published-descriptor slot for [t], created and
   registered on first use. *)
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

let fresh_unflag () = Unflag (ref ())

let new_leaf key = { key; linfo = Atomic.make (fresh_unflag ()) }

let node_info = function
  | Leaf l -> l.linfo
  | Internal i -> i.iinfo

let[@inline] child (i : internal) k = if k = 0 then i.c0 else i.c1

(* The label predicates the descent and the flag order need, computed on
   the two label fields directly; [Label.t] values are built only by the
   cold paths below ([create_node], invariants, printers).  An internal
   label is always shorter than the key width (Invariant 7), so the
   shifts are in range. *)
let[@inline] next_bit_of_key ~width (i : internal) v =
  (v lsr (width - i.llen - 1)) land 1

let[@inline] is_prefix_of_key ~width (i : internal) v =
  v lsr (width - i.llen) = i.lbits

(* Line 115's total order: length, then bits (as [Label.compare]). *)
let[@inline] compare_label (a : internal) (b : internal) =
  match Int.compare a.llen b.llen with 0 -> Int.compare a.lbits b.lbits | c -> c

let label_of (i : internal) = { Label.bits = i.lbits; len = i.llen }

let node_label ~width = function
  | Leaf l -> Label.of_key ~width l.key
  | Internal i -> label_of i

let make_internal ~gen ~lbits ~llen c0 c1 =
  {
    lbits;
    llen;
    c0 = Atomic.make c0;
    c1 = Atomic.make c1;
    iinfo = Atomic.make (fresh_unflag ());
    gen;
  }

(* A copy of [i] in generation [gen], children read now: callers read
   [i]'s info field first (see [copy_node]). *)
let copy_internal ~gen (i : internal) =
  make_internal ~gen ~lbits:i.lbits ~llen:i.llen (Atomic.get i.c0)
    (Atomic.get i.c1)

let make_stats () : stats =
  {
    attempts = Obs.Counter.create ();
    helps_given = Obs.Counter.create ();
    helps_received = Obs.Counter.create ();
    flag_failures = Obs.Counter.create ();
    backtracks = Obs.Counter.create ();
    backoff_waits = Obs.Counter.create ();
    renewals = Obs.Counter.create ();
    descent_find = Obs.Counter.create ();
    descent_insert = Obs.Counter.create ();
    descent_delete = Obs.Counter.create ();
    descent_replace = Obs.Counter.create ();
    descent_searches = Obs.Counter.create ();
    descent_depth = Obs.Histogram.create ();
  }

(* The disabled-stats hot path must stay a single branch: [None -> ()]
   and nothing else.  The closure arguments below are constant (capture
   nothing), so the compiler lifts them to static data — no allocation
   either way. *)
let[@inline] bump (stats : stats option) (field : stats -> Obs.Counter.t) =
  match stats with None -> () | Some s -> Obs.Counter.incr (field s)

(* One completed search: [d] nodes visited, attributed to the opcode's
   counter.  Same disabled contract as [bump] — [None] is one branch. *)
let[@inline] descent (stats : stats option) (field : stats -> Obs.Counter.t) d =
  match stats with
  | None -> ()
  | Some s ->
      Obs.Counter.add (field s) d;
      Obs.Counter.incr s.descent_searches;
      Obs.Histogram.record s.descent_depth d

(* Fault-injection site (lib/chaos).  Same hot-path discipline as
   [bump]: with no chaos policy installed this is one atomic load and an
   untaken branch, inlined at every labelled synchronization point. *)
let[@inline] chaos_point (s : Chaos.site) =
  if Atomic.get Chaos.active then Chaos.hit s

(* Pause before retrying a failed update attempt.  [bo] is the backoff
   state (a plain int) threaded through the attempt loop; with backoff
   disabled (the default) this retries immediately, as in the paper. *)
let[@inline] retry_pause (stats : stats option) bo =
  chaos_point Chaos.Retry;
  if Chaos.Backoff.enabled () then begin
    bump stats (fun s -> s.backoff_waits);
    Chaos.Backoff.wait bo
  end
  else bo

(* ------------------------------------------------------------------ *)
(* Flight recorder (lib/obs).  Two further gated instrumentation
   families alongside [bump] and [chaos_point], with the same disabled
   cost — one atomic load and an untaken branch per site:

   - one closed span per update attempt into the global trace recorder
     ([Obs.Trace.set_recorder]), labelled with the attempt number and
     the retry cause / CAS site it ended at;
   - per-cause retry attribution ([Obs.Attribution.mark] and
     [op_complete], both gated internally on their own flag).

   [span_start] reads the clock only when tracing is live; a zero start
   marks the attempt as untraced, so the completion helpers need no
   second atomic load. *)

let[@inline] span_start () =
  if Atomic.get Obs.Trace.active then Obs.Clock.now_ns () else 0

let span_emit kind ~key ~ok ~attempt ~site ~t0 =
  match Obs.Trace.recorder () with
  | Some tr ->
      Obs.Trace.emit_span tr kind ~key ~ok ~retries:(attempt - 1) ~attempt
        ~site ~t0_ns:t0
  | None -> ()

(* Attempt finished with outcome [ok]; [site] says how ("applied", or
   why the operation was a no-op). *)
let[@inline] attempt_done kind ~key ~attempt ~t0 ~site ok =
  if t0 <> 0 then span_emit kind ~key ~ok ~attempt ~site ~t0;
  Obs.Attribution.op_complete ();
  ok

(* Attempt failed and the loop will go around; [cause] names the CAS it
   lost or the conflict it hit. *)
let[@inline] attempt_retry kind ~key ~attempt ~t0 cause =
  Obs.Attribution.mark cause ~attempt;
  if t0 <> 0 then
    span_emit kind ~key ~ok:false ~attempt
      ~site:(Obs.Attribution.cause_name cause)
      ~t0

let[@inline] flagged = function
  | Flag _ | Snap _ -> true
  | Unflag _ -> false

(* Cause of a [None] return from the newFlag family, recovered from the
   info values the attempt read: if any was a Flag we restarted after
   helping a pending descriptor; otherwise a node changed between two
   reads of the same attempt. *)
let[@inline] retry_cause2 a b =
  if flagged a || flagged b then Obs.Attribution.Flagged_ancestor
  else Obs.Attribution.Conflict

(* ------------------------------------------------------------------ *)
(* Construction *)

let create_width ~width ?(record_stats = false) () =
  if width < 2 || width > Bitkey.max_width then
    invalid_arg "Patricia.create_width: width must be in [2, 62]";
  let lo = new_leaf 0 and hi = new_leaf ((1 lsl width) - 1) in
  (* Line 18-19: the root is permanent (within its generation), its
     children start as the two sentinel leaves 00...0 and 11...1, which
     are never elements of D. *)
  let gen = ref () in
  let root = make_internal ~gen ~lbits:0 ~llen:0 (Leaf lo) (Leaf hi) in
  {
    width;
    holder = Atomic.make { epoch = 0; hgen = gen; hroot = root };
    slots = Atomic.make [];
    slot_key = Domain.DLS.new_key (fun () -> ref None);
    offset = 0;
    bound = (1 lsl width) - 1;
    stats = (if record_stats then Some (make_stats ()) else None);
  }

let create ~universe ?record_stats () =
  if universe < 1 then invalid_arg "Patricia.create: universe must be >= 1";
  (* Embed user keys [0, universe) as internal keys [1, universe], leaving
     0 and 2^width - 1 free for the sentinels. *)
  let width = max 2 (Bitkey.bit_length (universe + 1)) in
  let t = create_width ~width ?record_stats () in
  { t with offset = 1; bound = universe }

let max_sentinel t = (1 lsl t.width) - 1

let internal_key t k =
  let k' = k + t.offset in
  if k < 0 || k >= t.bound || k' < 1 || k' >= max_sentinel t then
    invalid_arg "Patricia: key out of the universe"
  else k'

(* ------------------------------------------------------------------ *)
(* Search (lines 76-85) — wait-free: at most [width] iterations, no writes *)

(* logicallyRemoved (lines 122-124): a leaf flagged by a general-case
   replace is logically removed once the replace's first child CAS has
   happened, i.e. once oldChild[0] is no longer a child of pNode[0]. *)
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
      (* The *same physical* [node] value stored in gp's child field for
         [p].  CAS compares physical identity, so an update whose old
         child is [p] must use this value — re-wrapping [p] in the
         [Internal] constructor would allocate a distinct block and the
         child CAS would never succeed. *)
  node : node;
  gp_info : info option;
  p_info : info;
  rmvd : bool;
  depth : int;
      (* Child pointers followed to reach [node] — the pointer-chase
         cost of this search, counting the terminal node but not the
         root (root's child = 1).  Computed from values the loop already
         holds, so uninstrumented searches pay one add per level. *)
}

(* The result of a descent that stopped at [node], child of [p].  The
   descent carries [gp] and [gp_info] unboxed, with the root and its info
   as placeholders while [p] is still the root (depth [d] = 0); the
   options are built here, once per search, not once per level. *)
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

let search_from ~width (root : internal) v =
  (* The root's label ε is a prefix of every key, so the loop body runs at
     least once and [p] is always an internal node on return.  The root is
     never an old child of any CAS, so its boxed stand-in is harmless. *)
  let rec go gp gp_info (p : internal) p_boxed p_info d =
    let node = Atomic.get (child p (next_bit_of_key ~width p v)) in
    match node with
    | Internal i when is_prefix_of_key ~width i v ->
        go p p_info i node (Atomic.get i.iinfo) (d + 1)
    | _ -> found gp gp_info p p_boxed p_info d node
  in
  let ri = Atomic.get root.iinfo in
  go root ri root (Internal root) ri 0

let search t v = search_from ~width:t.width (Atomic.get t.holder).hroot v

(* keyInTrie (lines 125-126) *)
let key_in_trie node v rmvd =
  match node with Leaf l -> l.key = v && not rmvd | Internal _ -> false

(* ------------------------------------------------------------------ *)
(* help (lines 86-106) *)

(* [flag_phase fi f] performs the flag CASes in order (lines 87-92) and
   returns the paper's [doChildCAS]: whether every node in f.flag_nodes
   was observed flagged with [fi] immediately after our CAS on it.

   A CAS that fails while the node nevertheless holds [fi] means some
   other process installed this very descriptor before us — the
   operation is being helped; count it on the owning trie. *)
let flag_phase fi f =
  let n = Array.length f.flag_nodes in
  let rec loop i =
    if i >= n then true
    else begin
      let x = f.flag_nodes.(i) in
      chaos_point Chaos.Flag_cas;
      let ours = Atomic.compare_and_set x.iinfo f.old_infos.(i) fi in
      if Atomic.get x.iinfo == fi then begin
        if not ours then bump f.fstats (fun s -> s.helps_received);
        loop (i + 1)
      end
      else false
    end
  in
  loop 0

let child_cas_phase f =
  Array.iteri
    (fun i p ->
      let nc = f.new_children.(i) in
      (* Line 97: the child index is the (|p.label|+1)-th bit of the new
         child's label, which p.label properly prefixes by Invariant 7. *)
      let k =
        match nc with
        | Leaf l -> next_bit_of_key ~width:f.fwidth p l.key
        | Internal c -> (c.lbits lsr (c.llen - p.llen - 1)) land 1
      in
      chaos_point Chaos.Child_cas;
      if not (Atomic.compare_and_set (child p k) f.old_children.(i) nc) then
        (* Expected old child already gone: a helper or a conflicting
           update got there first.  Attempt number unknown on the
           helper side, recorded as 0. *)
        Obs.Attribution.mark Obs.Attribution.Child_cas_lost ~attempt:0;
      chaos_point Chaos.After_child_cas)
    f.pnodes

let help_counter_hook : (unit -> unit) option ref = ref None

(* Complete an in-flight snapshot found installed on a root: swing the
   holder (idempotent — the new holder value is carried by the
   descriptor, so every helper CASes to the same value) and release the
   old root's info field. *)
let help_snap (si : info) (s : snap) =
  ignore (Atomic.compare_and_set s.s_cell s.s_old s.s_new);
  ignore (Atomic.compare_and_set s.s_old.hroot.iinfo si (fresh_unflag ()))

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
      (* A snapshot never fails; completing it counts as success and the
         helper retries its own operation against the new generation. *)
      help_snap fi s;
      true
  | Flag f -> help_flag fi f

and help_flag (fi : info) (f : flag) : bool =
  (match !help_counter_hook with Some h -> h () | None -> ());
  let do_child_cas = flag_phase fi f in
  (* The decision CAS (not in the paper): an update commits only if some
     process that saw every flag in place also saw the trie's holder
     still at the generation the attempt searched — so a snapshot that
     swung the holder first wins, and the update aborts and retries
     against the new generation.  Exactly one of Commit/Abort ever
     lands; every helper then follows the recorded outcome, which
     subsumes the paper's [flag_done] protocol. *)
  (if Atomic.get f.decision = Pending then
     let d =
       if do_child_cas && Atomic.get f.fcell == f.fholder then Commit
       else Abort
     in
     ignore (Atomic.compare_and_set f.decision Pending d));
  match Atomic.get f.decision with
  | Commit ->
      (* Line 95: flag the leaf removed by a general-case replace; leaves
         are flagged by a plain write, never by CAS, and never unflagged. *)
      (match f.rmv_leaf with Some l -> Atomic.set l.linfo fi | None -> ());
      child_cas_phase f;
      (* Lines 99-102: unflag, in reverse order, the nodes still in the trie. *)
      chaos_point Chaos.Unflag;
      for i = Array.length f.unflag_nodes - 1 downto 0 do
        ignore
          (Atomic.compare_and_set f.unflag_nodes.(i).iinfo fi (fresh_unflag ()))
      done;
      true
  | Abort ->
      (* Lines 103-106: flagging failed (or the generation moved on) —
         back the flags out. *)
      chaos_point Chaos.Backtrack;
      bump f.fstats (fun s -> s.backtracks);
      Obs.Attribution.mark Obs.Attribution.Backtrack ~attempt:0;
      for i = Array.length f.flag_nodes - 1 downto 0 do
        ignore
          (Atomic.compare_and_set f.flag_nodes.(i).iinfo fi (fresh_unflag ()))
      done;
      false
  | Pending -> assert false

(* Specialized newFlag for the one-flag shape (insert at a leaf, replace
   special case 1): allocation-lean version of the generic constructor
   below, to which it is behaviourally identical. *)
and new_flag1 ~width ~stats ~fh ~cell ~node ~old ~old_child ~new_child =
  match old with
  | Flag _ | Snap _ ->
      bump stats (fun s -> s.helps_given);
      ignore (help old);
      None
  | Unflag _ ->
      let nodes = [| node |] in
      Some
        (Flag
           {
             flag_nodes = nodes;
             old_infos = [| old |];
             unflag_nodes = nodes;
             pnodes = nodes;
             old_children = [| old_child |];
             new_children = [| new_child |];
             rmv_leaf = None;
             decision = Atomic.make Pending;
             fholder = fh;
             fcell = cell;
             fwidth = width;
             fstats = stats;
           })

(* Specialized newFlag for the two-flag, one-child-CAS shape (delete;
   insert replacing an internal node; replace special cases 2/3).  The
   first node of the pair is the one to unflag and CAS; the other is
   removed from the trie and stays flagged. *)
and new_flag2 ~width ~stats ~fh ~cell ~a ~a_old ~b ~b_old ~old_child ~new_child =
  match a_old with
  | Flag _ | Snap _ ->
      bump stats (fun s -> s.helps_given);
      ignore (help a_old);
      None
  | Unflag _ -> (
      match b_old with
      | Flag _ | Snap _ ->
          bump stats (fun s -> s.helps_given);
          ignore (help b_old);
          None
      | Unflag _ ->
          if a == b then
            (* Duplicate flag target (lines 112-114): allowed only when
               both reads saw the same info value. *)
            if a_old == b_old then
              Some
                (Flag
                   {
                     flag_nodes = [| a |];
                     old_infos = [| a_old |];
                     unflag_nodes = [| a |];
                     pnodes = [| a |];
                     old_children = [| old_child |];
                     new_children = [| new_child |];
                     rmv_leaf = None;
                     decision = Atomic.make Pending;
                     fholder = fh;
                     fcell = cell;
                     fwidth = width;
                     fstats = stats;
                   })
            else None
          else
            let flag_nodes, old_infos =
              if compare_label a b <= 0 then
                ([| a; b |], [| a_old; b_old |])
              else ([| b; a |], [| b_old; a_old |])
            in
            Some
              (Flag
                 {
                   flag_nodes;
                   old_infos;
                   unflag_nodes = [| a |];
                   pnodes = [| a |];
                   old_children = [| old_child |];
                   new_children = [| new_child |];
                   rmv_leaf = None;
                   decision = Atomic.make Pending;
                   fholder = fh;
                   fcell = cell;
                   fwidth = width;
                   fstats = stats;
                 }))

(* newFlag (lines 107-116), generic form used by the replace cases that
   flag three or four nodes.  [nodes.(i)] is a node to flag and
   [infos.(i)] the info value read from it; returns the shared [Flag]
   info value, or [None] after helping a conflicting update (the caller
   then retries).  Callers pass fresh array literals, which are
   de-duplicated and sorted in place. *)
and new_flag ~width ~stats ~fh ~cell ~(nodes : internal array) ~infos ~unflag
    ~pnodes ~old_children ~new_children ~rmv_leaf =
  let n = Array.length nodes in
  let p = first_flagged infos 0 in
  if p < n then begin
    (* Lines 109-111: someone else's update is pending on a node we
       need; help it, then fail so our caller restarts from scratch. *)
    bump stats (fun s -> s.helps_given);
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
        while !j >= 0 && compare_label nodes.(!j) x > 0 do
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
             fwidth = width;
             fstats = stats;
           })
    end

and create_node ~width ~stats ~gen n1 n2 info =
  let l1 = node_label ~width n1 and l2 = node_label ~width n2 in
  if Label.is_prefix l1 l2 || Label.is_prefix l2 l1 then begin
    (match info with
    | Some ((Flag _ | Snap _) as fi) ->
        bump stats (fun s -> s.helps_given);
        ignore (help fi)
    | _ -> ());
    None
  end
  else
    let lcp = Label.lcp l1 l2 in
    let lbits = lcp.Label.bits and llen = Label.length lcp in
    Some
      (if Label.next_bit lcp l1 = 0 then make_internal ~gen ~lbits ~llen n1 n2
       else make_internal ~gen ~lbits ~llen n2 n1)

(* ------------------------------------------------------------------ *)
(* Node copying (lines 26 and 52).  The copy must be taken *after* the
   node's info field was read: the flag CAS on that info value then
   guarantees the children did not change in between (Lemma 31), so the
   copy's children equal the original's at the child CAS. *)

let copy_node ~gen = function
  | Leaf l -> Leaf (new_leaf l.key)
  | Internal i -> Internal (copy_internal ~gen i)

(* ------------------------------------------------------------------ *)
(* Update-side search: publication and copy-on-descent renewal.

   [run_own] wraps [help] on a descriptor this domain created: the
   descriptor is published in the domain's slot before the flagging
   phase and withdrawn after completion.  The SC ordering argument the
   snapshot relies on: a descriptor's Commit decision reads the holder
   *after* the slot publish, and a snapshot reads the slots *after* its
   holder CAS — so any descriptor that committed against the old
   generation is either visible in a slot (and helped to completion
   before the snapshot returns) or already fully applied.

   [search_renew] is [search] for updates: it additionally copies every
   stale-generation internal node the path descends *through* into the
   current generation ([renew_child]) before using it, so the nodes an
   update flags-and-CASes-children-of always carry the live generation
   stamp and frozen views behind past snapshots are never structurally
   mutated.  (Terminal nodes that only get *marked* — e.g. an internal
   node an insert replaces — may be stale: marking touches only the
   info field, which frozen-view traversals ignore.)  A renewal is an
   ordinary two-flag descriptor (the stale node is marked forever, the
   parent's child pointer swings to the copy), so it validates like any
   update and aborts if a snapshot intervenes.  A committed renewal does
   not end the descent: the search re-reads the parent and goes on
   through the copy, so a path that is stale all the way down is renewed
   node by node in one pass. *)

let run_own t fi =
  let slot = my_slot t in
  Atomic.set slot (Some fi);
  let r = help fi in
  Atomic.set slot None;
  r

(* Swing [p]'s child [i] (stale, boxed as [c_boxed]) to a live-generation
   copy.  [true] iff the renewal committed; [false] after helping a
   descriptor pending on [i] or [p], or when the attempt aborted. *)
let renew_child t (h : holder) (p : internal) p_info c_boxed (i : internal) =
  let width = t.width and stats = t.stats in
  match Atomic.get i.iinfo with
  | (Flag _ | Snap _) as fi ->
      bump stats (fun s -> s.helps_given);
      ignore (help fi);
      false
  | Unflag _ as ii -> (
      (* The copy is taken after [ii] was read; the flag CAS on [ii]
         then certifies the children did not change in between (the same
         Lemma 31 discipline as an insert replacing an internal node). *)
      let copy = Internal (copy_internal ~gen:h.hgen i) in
      match
        new_flag2 ~width ~stats ~fh:h ~cell:t.holder ~a:p ~a_old:p_info ~b:i
          ~b_old:ii ~old_child:c_boxed ~new_child:copy
      with
      | Some fi ->
          chaos_point Chaos.Renew;
          let ok = run_own t fi in
          if ok then bump stats (fun s -> s.renewals);
          ok
      | None -> false)

(* A stale node on the path is renewed and the descent continues from
   its parent: the committed renewal left a fresh Unflag in [p.iinfo]
   (the old [p_info] would fail every later flag CAS on [p]), so re-read
   it — before the child, the order Lemma 31 needs — and the child slot
   now holds the copy.  [gp], [gp_info], [p_boxed] and the depth are
   untouched by the renewal.  [None] means a renewal failed (it aborted,
   or it helped a pending descriptor instead): the caller restarts from
   a fresh holder read, so once a snapshot supersedes [h] the descent
   stops at its first aborted renewal. *)
let search_renew t (h : holder) v =
  let width = t.width in
  let rec go gp gp_info (p : internal) p_boxed p_info d =
    let node = Atomic.get (child p (next_bit_of_key ~width p v)) in
    match node with
    | Internal i when is_prefix_of_key ~width i v ->
        if i.gen == h.hgen then go p p_info i node (Atomic.get i.iinfo) (d + 1)
        else if renew_child t h p p_info node i then
          go gp gp_info p p_boxed (Atomic.get p.iinfo) d
        else None
    | _ -> Some (found gp gp_info p p_boxed p_info d node)
  in
  let ri = Atomic.get h.hroot.iinfo in
  go h.hroot ri h.hroot (Internal h.hroot) ri 0

(* ------------------------------------------------------------------ *)
(* find (lines 72-75) *)

let member_internal t v =
  let r = search t v in
  descent t.stats (fun s -> s.descent_find) r.depth;
  key_in_trie r.node v r.rmvd

let member t k = member_internal t (internal_key t k)

(* ------------------------------------------------------------------ *)
(* insert (lines 20-32) *)

let sibling_index ~width (p : internal) v =
  1 - next_bit_of_key ~width p v

let insert_internal t v =
  let width = t.width and stats = t.stats in
  let rec attempt bo n =
    bump stats (fun s -> s.attempts);
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew t h v with
    | None ->
        attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
          Obs.Attribution.Conflict;
        attempt (retry_pause stats bo) (n + 1)
    | Some r -> (
        descent stats (fun s -> s.descent_insert) r.depth;
        if key_in_trie r.node v r.rmvd then
          attempt_done Obs.Trace.Insert ~key:v ~attempt:n ~t0 ~site:"present"
            false
        else begin
          let node_info_v = Atomic.get (node_info r.node) in
          let node_copy = copy_node ~gen:h.hgen r.node in
          match
            create_node ~width ~stats ~gen:h.hgen node_copy
              (Leaf (new_leaf v)) (Some node_info_v)
          with
          | None ->
              attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
                (if flagged node_info_v then Obs.Attribution.Flagged_ancestor
                 else Obs.Attribution.Conflict);
              attempt (retry_pause stats bo) (n + 1)
          | Some new_node ->
              let fi =
                match r.node with
                | Internal i ->
                    (* Line 30: replacing an internal node permanently flags
                       it, since it leaves the trie. *)
                    new_flag2 ~width ~stats ~fh:h ~cell:t.holder ~a:r.p
                      ~a_old:r.p_info ~b:i ~b_old:node_info_v ~old_child:r.node
                      ~new_child:(Internal new_node)
                | Leaf _ ->
                    new_flag1 ~width ~stats ~fh:h ~cell:t.holder ~node:r.p
                      ~old:r.p_info ~old_child:r.node
                      ~new_child:(Internal new_node)
              in
              (match fi with
              | Some fi when run_own t fi ->
                  attempt_done Obs.Trace.Insert ~key:v ~attempt:n ~t0
                    ~site:"applied" true
              | Some _ ->
                  bump stats (fun s -> s.flag_failures);
                  attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
                    Obs.Attribution.Flag_cas_lost;
                  attempt (retry_pause stats bo) (n + 1)
              | None ->
                  attempt_retry Obs.Trace.Insert ~key:v ~attempt:n ~t0
                    (retry_cause2 r.p_info node_info_v);
                  attempt (retry_pause stats bo) (n + 1))
        end)
  in
  attempt Chaos.Backoff.init 1

let insert t k = insert_internal t (internal_key t k)

(* ------------------------------------------------------------------ *)
(* delete (lines 33-41) *)

let delete_internal t v =
  let width = t.width and stats = t.stats in
  let rec attempt bo n =
    bump stats (fun s -> s.attempts);
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew t h v with
    | None ->
        attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
          Obs.Attribution.Conflict;
        attempt (retry_pause stats bo) (n + 1)
    | Some r -> (
        descent stats (fun s -> s.descent_delete) r.depth;
        if not (key_in_trie r.node v r.rmvd) then
          attempt_done Obs.Trace.Delete ~key:v ~attempt:n ~t0 ~site:"absent"
            false
        else begin
          let node_sibling =
            Atomic.get (child r.p (sibling_index ~width r.p v))
          in
          match (r.gp, r.gp_info) with
          | Some gp, Some gp_info -> (
              (* Line 40: flag gp, mark p (p leaves the trie), and swing
                 gp's child from p to node's sibling. *)
              match
                new_flag2 ~width ~stats ~fh:h ~cell:t.holder ~a:gp
                  ~a_old:gp_info ~b:r.p ~b_old:r.p_info ~old_child:r.p_node
                  ~new_child:node_sibling
              with
              | Some fi when run_own t fi ->
                  attempt_done Obs.Trace.Delete ~key:v ~attempt:n ~t0
                    ~site:"applied" true
              | Some _ ->
                  bump stats (fun s -> s.flag_failures);
                  attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
                    Obs.Attribution.Flag_cas_lost;
                  attempt (retry_pause stats bo) (n + 1)
              | None ->
                  attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
                    (retry_cause2 gp_info r.p_info);
                  attempt (retry_pause stats bo) (n + 1))
          | _ ->
              (* gp = null can only be observed transiently: a real key's leaf
                 always has an internal proper ancestor besides the root
                 (the sentinel on its side shares that subtree).  Retry. *)
              attempt_retry Obs.Trace.Delete ~key:v ~attempt:n ~t0
                Obs.Attribution.Conflict;
              attempt (retry_pause stats bo) (n + 1)
        end)
  in
  attempt Chaos.Backoff.init 1

let delete t k = delete_internal t (internal_key t k)

(* ------------------------------------------------------------------ *)
(* replace (lines 42-71) *)

let replace_internal t vd vi =
  let width = t.width and stats = t.stats in
  let restart bo n t0 =
    attempt_retry Obs.Trace.Replace ~key:vd ~attempt:n ~t0
      Obs.Attribution.Conflict;
    bo
  in
  let rec attempt bo n =
    bump stats (fun s -> s.attempts);
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew t h vd with
    | None -> attempt (retry_pause stats (restart bo n t0)) (n + 1)
    | Some rd -> (
    descent stats (fun s -> s.descent_replace) rd.depth;
    if not (key_in_trie rd.node vd rd.rmvd) then
      attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0 ~site:"absent" false
    else begin
      match search_renew t h vi with
      | None -> attempt (retry_pause stats (restart bo n t0)) (n + 1)
      | Some ri -> (
      descent stats (fun s -> s.descent_replace) ri.depth;
      if key_in_trie ri.node vi ri.rmvd then
        attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0 ~site:"present"
          false
      else begin
        let node_info_i = Atomic.get (node_info ri.node) in
        let node_sibling_d =
          Atomic.get (child rd.p (sibling_index ~width rd.p vd))
        in
        let node_d = rd.node and node_i = ri.node in
        let pd = rd.p and pi = ri.p in
        let leaf_d = match node_d with Leaf l -> l | Internal _ -> assert false in
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
            && (not (match rd.gp with Some gp -> node_i_is node_i gp | None -> false))
            && not (pi == pd)
          then begin
            (* General case (lines 51-57): insert vi at pi, then delete
               vd's leaf by swinging gp_d — two child CASes, linearized
               at the first; noded is flagged as the logically-removed
               leaf in between. *)
            let gpd = Option.get rd.gp and gpd_info = Option.get rd.gp_info in
            let copy_i = copy_node ~gen:h.hgen node_i in
            match
              create_node ~width ~stats ~gen:h.hgen copy_i (Leaf (new_leaf vi))
                (Some node_info_i)
            with
            | None -> None
            | Some new_node_i -> (
                match node_i with
                | Internal i ->
                    new_flag ~width ~stats ~fh:h ~cell:t.holder
                      ~nodes:[| gpd; pd; pi; i |]
                      ~infos:[| gpd_info; rd.p_info; ri.p_info; node_info_i |]
                      ~unflag:[| gpd; pi |]
                      ~pnodes:[| pi; gpd |]
                      ~old_children:[| node_i; rd.p_node |]
                      ~new_children:[| Internal new_node_i; node_sibling_d |]
                      ~rmv_leaf:(Some leaf_d)
                | Leaf _ ->
                    new_flag ~width ~stats ~fh:h ~cell:t.holder
                      ~nodes:[| gpd; pd; pi |]
                      ~infos:[| gpd_info; rd.p_info; ri.p_info |]
                      ~unflag:[| gpd; pi |]
                      ~pnodes:[| pi; gpd |]
                      ~old_children:[| node_i; rd.p_node |]
                      ~new_children:[| Internal new_node_i; node_sibling_d |]
                      ~rmv_leaf:(Some leaf_d))
          end
          else if same_node node_i node_d then
            (* Special case 1 (lines 58-59): both searches ended at vd's
               leaf; replace it by a fresh leaf containing vi. *)
            new_flag1 ~width ~stats ~fh:h ~cell:t.holder ~node:pd
              ~old:rd.p_info ~old_child:node_i ~new_child:(Leaf (new_leaf vi))
          else if
            (node_i_is node_i pd
            && match rd.gp with Some gp -> pi == gp | None -> false)
            || (rd.gp <> None && pi == pd)
          then begin
            (* Special cases 2 and 3 (lines 60-64): the insertion point
               is pd itself (or shares it), and pd is removed by the
               deletion; one CAS replaces pd by a new node built from
               noded's sibling and the new leaf. *)
            let gpd = Option.get rd.gp and gpd_info = Option.get rd.gp_info in
            let sib_info = Atomic.get (node_info node_sibling_d) in
            match
              create_node ~width ~stats ~gen:h.hgen node_sibling_d
                (Leaf (new_leaf vi)) (Some sib_info)
            with
            | None -> None
            | Some new_node_i ->
                new_flag2 ~width ~stats ~fh:h ~cell:t.holder ~a:gpd
                  ~a_old:gpd_info ~b:pd ~b_old:rd.p_info ~old_child:rd.p_node
                  ~new_child:(Internal new_node_i)
          end
          else if
            match rd.gp with Some gp -> node_i_is node_i gp | None -> false
          then begin
            (* Special case 4 (lines 65-70): the insertion replaces gp_d,
               which the deletion also restructures; one CAS replaces
               gp_d by a new two-level node built from the two siblings
               and the new leaf. *)
            let gpd = Option.get rd.gp in
            let p_sibling_d =
              Atomic.get (child gpd (sibling_index ~width gpd vd))
            in
            match
              create_node ~width ~stats ~gen:h.hgen node_sibling_d p_sibling_d
                None
            with
            | None -> None
            | Some new_child_i -> (
                match
                  create_node ~width ~stats ~gen:h.hgen (Internal new_child_i)
                    (Leaf (new_leaf vi)) None
                with
                | None -> None
                | Some new_node_i ->
                    new_flag ~width ~stats ~fh:h ~cell:t.holder
                      ~nodes:[| pi; gpd; pd |]
                      ~infos:[| ri.p_info; Option.get rd.gp_info; rd.p_info |]
                      ~unflag:[| pi |] ~pnodes:[| pi |] ~old_children:[| node_i |]
                      ~new_children:[| Internal new_node_i |] ~rmv_leaf:None)
          end
          else None
        in
        match fi with
        | Some fi when run_own t fi ->
            attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0
              ~site:"applied" true
        | Some _ ->
            bump stats (fun s -> s.flag_failures);
            attempt_retry Obs.Trace.Replace ~key:vd ~attempt:n ~t0
              Obs.Attribution.Flag_cas_lost;
            attempt (retry_pause stats bo) (n + 1)
        | None ->
            (* Recover the cause from every info value this attempt
               read; [new_flag]'s [None] collapses help-and-restart and
               read-read conflicts into one constructor. *)
            let cause =
              if
                flagged node_info_i || flagged rd.p_info || flagged ri.p_info
                || (match rd.gp_info with Some i -> flagged i | None -> false)
              then Obs.Attribution.Flagged_ancestor
              else Obs.Attribution.Conflict
            in
            attempt_retry Obs.Trace.Replace ~key:vd ~attempt:n ~t0 cause;
            attempt (retry_pause stats bo) (n + 1)
      end)
    end)
  in
  attempt Chaos.Backoff.init 1

(* replace(v, v) is always false: the sequential specification requires
   [remove] present *and* [add] absent, which a single key cannot satisfy. *)
let replace t ~remove ~add =
  let vd = internal_key t remove and vi = internal_key t add in
  if vd = vi then false else replace_internal t vd vi

(* ------------------------------------------------------------------ *)
(* Quiescent traversals and invariant checking (test/debug interface) *)

(* In-order traversal of the current leaves.  Like the Ctrie paper's
   snapshot-free iterator this is weakly consistent: each leaf is
   observed at the moment the traversal reaches it, so the view is a
   union of states the trie passed through, exact in quiescence. *)
let fold_leaves t ~init ~f =
  let rec go acc = function
    | Leaf l ->
        if
          l.key = 0
          || l.key = max_sentinel t
          || logically_removed (Atomic.get l.linfo)
        then acc
        else f acc l.key
    | Internal i -> go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
  in
  go init (Internal (Atomic.get t.holder).hroot)

let fold t ~init ~f = fold_leaves t ~init ~f:(fun acc k -> f acc (k - t.offset))
let iter t ~f = fold t ~init:() ~f:(fun () k -> f k)

(* Children are visited in label order, so leaves come out ascending. *)
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k -> k :: acc))
let size t = fold_leaves t ~init:0 ~f:(fun acc _ -> acc + 1)

exception Found_key of int

let min_elt t =
  match fold t ~init:() ~f:(fun () k -> raise_notrace (Found_key k)) with
  | () -> None
  | exception Found_key k -> Some k

let max_elt t =
  (* Mirror traversal: rightmost real leaf first. *)
  let rec go = function
    | Leaf l ->
        if
          l.key <> 0
          && l.key <> max_sentinel t
          && not (logically_removed (Atomic.get l.linfo))
        then raise_notrace (Found_key (l.key - t.offset))
    | Internal i ->
        go (Atomic.get i.c1);
        go (Atomic.get i.c0)
  in
  match go (Internal (Atomic.get t.holder).hroot) with
  | () -> None
  | exception Found_key k -> Some k

(* Range query: visit keys in [lo, hi] in ascending order, pruning every
   subtree whose label interval is disjoint from the range — the
   quadtree-style search the paper's GIS application relies on. *)
let fold_range t ~lo ~hi ~init ~f =
  (* Clamp to the valid user-key range: [0, bound) for embedded-universe
     tries, [1, 2^w - 2] for raw-width tries (offset 0). *)
  let lo = max lo (1 - t.offset) and hi = min hi (t.bound - 1) in
  if lo > hi then init
  else begin
    let ilo = internal_key t lo and ihi = internal_key t hi in
    let width = t.width in
    let rec go acc node =
      match node with
      | Leaf l ->
          if
            l.key >= ilo && l.key <= ihi
            && not (logically_removed (Atomic.get l.linfo))
          then f acc (l.key - t.offset)
          else acc
      | Internal i ->
          (* The subtree under a node labelled (bits, len) holds exactly
             the keys in [bits << (width-len), (bits+1) << (width-len)). *)
          let shift = width - i.llen in
          let node_lo = i.lbits lsl shift in
          let node_hi = node_lo lor ((1 lsl shift) - 1) in
          if node_hi < ilo || node_lo > ihi then acc
          else go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
    in
    go init (Internal (Atomic.get t.holder).hroot)
  end

(* ------------------------------------------------------------------ *)
(* Snapshots.

   [snapshot t] atomically freezes the current generation and returns a
   view of it, in O(1) of the key count (O(#domains) for the slot scan):

     1. read the holder [h] and the root's info field; if a Flag or a
        Snap is pending, help it and retry;
     2. read the root's two children and build a fresh-generation root
        copy around them;
     3. CAS the root's info from the Unflag read in (1) to a [Snap]
        descriptor — the sandwich proves the children did not change
        since (2), because children are only CASed under a Flag and
        every unflag installs a physically fresh Unflag (no ABA);
     4. swing the holder to the new generation (helpers of the Snap do
        the same CAS, so this is idempotent) and release the old root's
        info field;
     5. help every descriptor published in the per-domain slots.

   Step 4's holder CAS is the linearization point.  Step 5 makes the
   frozen generation *physically* complete before [snapshot] returns:
   a descriptor that committed against [h] (its decision CAS saw the
   holder still equal to [h], hence ran before step 4) either already
   finished its child CASes or is still published in its owner's slot
   — the publish precedes the decision read, and our scan follows the
   holder CAS, so SC order leaves no third case.  Helping it completes
   those child CASes, which are the last writes the frozen subtree can
   ever receive: updates after step 4 renew every internal node they
   descend through into the new generation before CASing its children,
   and late straggler CASes of old descriptors fail by no-ABA.

   The frozen walk therefore ignores info fields entirely: every
   reachable non-sentinel leaf is an element of the frozen set.  A
   [logically_removed] mark on a shared leaf can only come from a
   replace that committed *after* the snapshot (pre-snapshot commits
   were physically completed in step 5, removing their victim from this
   structure; aborted attempts never set the mark), and such a leaf was
   present at the linearization point. *)

type view = {
  vwidth : int;
  voffset : int;
  vbound : int;
  vepoch : int;
  vroot : internal;
}

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
          (* If this holder CAS fails, a concurrent snapshot already
             superseded [h] — then [h] is frozen all the same and this
             call linearizes at that snapshot's swing. *)
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
  {
    vwidth = t.width;
    voffset = t.offset;
    vbound = t.bound;
    vepoch = h.epoch;
    vroot = h.hroot;
  }

module View = struct
  type t = view

  let epoch v = v.vepoch

  let fold v ~init ~f =
    let maxs = (1 lsl v.vwidth) - 1 in
    let rec go acc = function
      | Leaf l ->
          if l.key = 0 || l.key = maxs then acc else f acc (l.key - v.voffset)
      | Internal i ->
          go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
    in
    go init (Internal v.vroot)

  let fold_range v ~lo ~hi ~init ~f =
    let lo = max lo (1 - v.voffset) and hi = min hi (v.vbound - 1) in
    if lo > hi then init
    else begin
      let ilo = lo + v.voffset and ihi = hi + v.voffset in
      let width = v.vwidth in
      let rec go acc node =
        match node with
        | Leaf l ->
            if l.key >= ilo && l.key <= ihi then f acc (l.key - v.voffset)
            else acc
        | Internal i ->
            let shift = width - i.llen in
            let node_lo = i.lbits lsl shift in
            let node_hi = node_lo lor ((1 lsl shift) - 1) in
            if node_hi < ilo || node_lo > ihi then acc
            else
              go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
      in
      go init (Internal v.vroot)
    end

  let to_list v = List.rev (fold v ~init:[] ~f:(fun acc k -> k :: acc))
  let size v = fold v ~init:0 ~f:(fun acc _ -> acc + 1)

  let to_seq v =
    let maxs = (1 lsl v.vwidth) - 1 in
    let rec walk node tail () =
      match node with
      | Leaf l ->
          if l.key = 0 || l.key = maxs then tail ()
          else Seq.Cons (l.key - v.voffset, tail)
      | Internal i ->
          walk
            (Atomic.get i.c0)
            (fun () -> walk (Atomic.get i.c1) tail ())
            ()
    in
    fun () -> walk (Internal v.vroot) (fun () -> Seq.Nil) ()
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

let stats_snapshot t : snapshot option =
  match t.stats with
  | None -> None
  | Some s ->
      Some
        {
          attempts = Obs.Counter.sum s.attempts;
          helps_given = Obs.Counter.sum s.helps_given;
          helps_received = Obs.Counter.sum s.helps_received;
          flag_failures = Obs.Counter.sum s.flag_failures;
          backtracks = Obs.Counter.sum s.backtracks;
          backoff_waits = Obs.Counter.sum s.backoff_waits;
          descent_nodes_find = Obs.Counter.sum s.descent_find;
          descent_nodes_insert = Obs.Counter.sum s.descent_insert;
          descent_nodes_delete = Obs.Counter.sum s.descent_delete;
          descent_nodes_replace = Obs.Counter.sum s.descent_replace;
          descent_searches = Obs.Counter.sum s.descent_searches;
          renewals = Obs.Counter.sum s.renewals;
        }

(* Monotone cumulative counters only: the harness differences two of
   these alists around a timed window, so a percentile or a mean here
   would produce garbage.  Mean descent depth is derived downstream as
   descent_nodes_* / descent_searches over the deltas. *)
let stats_to_alist (s : snapshot) =
  [
    ("attempts", s.attempts);
    ("helps_given", s.helps_given);
    ("helps_received", s.helps_received);
    ("flag_failures", s.flag_failures);
    ("backtracks", s.backtracks);
    ("backoff_waits", s.backoff_waits);
    ("descent_nodes_find", s.descent_nodes_find);
    ("descent_nodes_insert", s.descent_nodes_insert);
    ("descent_nodes_delete", s.descent_nodes_delete);
    ("descent_nodes_replace", s.descent_nodes_replace);
    ("descent_searches", s.descent_searches);
    ("renewals", s.renewals);
  ]

let descent_stats t =
  match stats_snapshot t with
  | None -> None
  | Some s ->
      Some
        [
          ("descent_nodes_find", s.descent_nodes_find);
          ("descent_nodes_insert", s.descent_nodes_insert);
          ("descent_nodes_delete", s.descent_nodes_delete);
          ("descent_nodes_replace", s.descent_nodes_replace);
          ("descent_searches", s.descent_searches);
        ]

let descent_summary t =
  match t.stats with
  | None -> None
  | Some s -> Some (Obs.Histogram.snapshot s.descent_depth)

(* Structural invariants of the Patricia trie (paper Invariant 7 and the
   sentinel properties), plus the quiescence conditions the chaos suite
   audits after every fault-injection scenario: no residual flags on any
   reachable node (every descriptor must have been completed or backed
   out, including on behalf of stalled processes) and strictly ascending
   leaf keys (no duplicated or misplaced element).  Only meaningful in
   quiescent states. *)
let check_invariants t =
  let width = t.width in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let last_key = ref (-1) in
  let rec go (lab : Label.t) node =
    (match Atomic.get (node_info node) with
    | Unflag _ -> ()
    | Snap _ -> err "residual snapshot descriptor on reachable node"
    | Flag _ -> (
        match node with
        | Leaf l -> err "residual flag on reachable leaf %d" l.key
        | Internal i ->
            err "residual flag on internal %a" Label.pp (label_of i)));
    match node with
    | Leaf l ->
        let kl = Label.of_key ~width l.key in
        if not (Label.is_prefix lab kl) then
          err "leaf %d not under its path label %a" l.key Label.pp lab;
        if l.key <= !last_key then
          err "leaf %d out of order (previous leaf %d)" l.key !last_key;
        last_key := l.key
    | Internal i ->
        let il = label_of i in
        if not (Label.equal il lab) && not (Label.is_proper_prefix lab il)
        then err "internal label %a does not extend path %a" Label.pp il Label.pp lab;
        if Label.length il >= width then
          err "internal label %a too long" Label.pp il;
        let c0 = Atomic.get i.c0 and c1 = Atomic.get i.c1 in
        let check_child dir c =
          let expect = Label.extend il dir in
          let cl = node_label ~width c in
          if not (Label.is_prefix expect cl) then
            err "child %d of %a has label %a (expected prefix %a)" dir Label.pp
              il Label.pp cl Label.pp expect;
          if Label.length cl <= Label.length il then
            err "child of %a has shorter label %a" Label.pp il Label.pp cl
        in
        check_child 0 c0;
        check_child 1 c1;
        go (Label.extend il 0) c0;
        go (Label.extend il 1) c1
  in
  let root = (Atomic.get t.holder).hroot in
  go Label.empty (Internal root);
  (* The two sentinels must always be logically in the trie (Lemma 62). *)
  let rec find_leaf k = function
    | Leaf l -> l.key = k
    | Internal i ->
        find_leaf k (Atomic.get (child i (next_bit_of_key ~width i k)))
  in
  if not (find_leaf 0 (Internal root)) then err "missing sentinel 00...0";
  if not (find_leaf (max_sentinel t) (Internal root)) then
    err "missing sentinel 11...1";
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Shape census (Obs.Shape): weakly-consistent walk like [fold_leaves],
   exact in quiescence.  Per-node word estimates, 64-bit layout:

     internal:  Internal wrapper 2 + record 7 (header, lbits, llen,
                c0, c1, iinfo, gen) + 2 child Atomics 4
                + iinfo Atomic 2 + Unflag wrapper/ref 4     = 19
     leaf:      Leaf wrapper 2 + record 3 + linfo Atomic 2
                + Unflag wrapper/ref 4                      = 11

   (an Atomic.t is a one-field record; Unflag carries a fresh ref).
   [measured_words] cross-checks the estimate with
   [Obj.reachable_words] from the root, which also charges shared or
   flag-retained blocks the estimate ignores. *)
let internal_words = 19
let leaf_words = 11

let census t =
  let a = Obs.Shape.acc ~structure:"PAT" in
  let rec go depth node =
    match node with
    | Leaf l ->
        let sentinel = l.key = 0 || l.key = max_sentinel t in
        let keys =
          if sentinel || logically_removed (Atomic.get l.linfo) then 0 else 1
        in
        Obs.Shape.leaf a ~depth ~keys ~sentinel ~words:leaf_words
    | Internal i ->
        Obs.Shape.internal a ~depth ~prefix_len:i.llen
          ~children:2 ~words:internal_words;
        go (depth + 1) (Atomic.get i.c0);
        go (depth + 1) (Atomic.get i.c1)
  in
  let root = (Atomic.get t.holder).hroot in
  go 0 (Internal root);
  let measured_words = Obj.reachable_words (Obj.repr root) in
  Some (Obs.Shape.finish ~measured_words a)

(* ------------------------------------------------------------------ *)
(* Test-only access to the coordination machinery, used to exercise the
   helping paths deterministically (e.g. a process that "crashes" after
   flagging, which others must complete — paper Section IV, part 4). *)

module For_testing = struct
  type descriptor = info

  let help = help

  (* Run one insert attempt up to and including descriptor creation, but
     do not apply it.  Returns None if the attempt would have restarted. *)
  let prepare_insert t k =
    let v = internal_key t k in
    let width = t.width and stats = t.stats in
    let h = Atomic.get t.holder in
    let r = search t v in
    if key_in_trie r.node v r.rmvd then None
    else
      let node_info_v = Atomic.get (node_info r.node) in
      let node_copy = copy_node ~gen:h.hgen r.node in
      match
        create_node ~width:t.width ~stats ~gen:h.hgen node_copy
          (Leaf (new_leaf v)) (Some node_info_v)
      with
      | None -> None
      | Some new_node -> (
          match r.node with
          | Internal i ->
              new_flag ~width ~stats ~fh:h ~cell:t.holder
                ~nodes:[| r.p; i |] ~infos:[| r.p_info; node_info_v |]
                ~unflag:[| r.p |] ~pnodes:[| r.p |] ~old_children:[| r.node |]
                ~new_children:[| Internal new_node |] ~rmv_leaf:None
          | Leaf _ ->
              new_flag ~width ~stats ~fh:h ~cell:t.holder
                ~nodes:[| r.p |] ~infos:[| r.p_info |]
                ~unflag:[| r.p |] ~pnodes:[| r.p |] ~old_children:[| r.node |]
                ~new_children:[| Internal new_node |] ~rmv_leaf:None)

  (* Run one delete attempt up to descriptor creation without applying
     it.  Returns None if the key is absent or the attempt would have
     restarted. *)
  let prepare_delete t k =
    let v = internal_key t k in
    let width = t.width in
    let h = Atomic.get t.holder in
    let r = search t v in
    if not (key_in_trie r.node v r.rmvd) then None
    else
      let node_sibling = Atomic.get (child r.p (sibling_index ~width r.p v)) in
      match (r.gp, r.gp_info) with
      | Some gp, Some gp_info ->
          new_flag2 ~width ~stats:t.stats ~fh:h ~cell:t.holder ~a:gp
            ~a_old:gp_info ~b:r.p ~b_old:r.p_info ~old_child:r.p_node
            ~new_child:node_sibling
      | _ -> None

  (* Perform only the flagging phase of a descriptor, simulating a
     process that dies between flagging and the child CAS. *)
  let flag_only fi =
    match fi with
    | Flag f -> flag_phase fi f
    | Unflag _ | Snap _ -> invalid_arg "flag_only: not a Flag descriptor"

  let set_help_hook h = help_counter_hook := h

  (* Count of nodes currently flagged along the search path of [k]. *)
  let flags_on_path t k =
    let v = internal_key t k in
    let width = t.width in
    let rec go acc (node : node) =
      match node with
      | Leaf l -> (
          acc + match Atomic.get l.linfo with Flag _ -> 1 | _ -> 0)
      | Internal i ->
          let acc =
            acc + match Atomic.get i.iinfo with Flag _ -> 1 | _ -> 0
          in
          if is_prefix_of_key ~width i v then
            go acc (Atomic.get (child i (next_bit_of_key ~width i v)))
          else acc
    in
    go 0 (Internal (Atomic.get t.holder).hroot)
end

let name = "PAT"
