(* The non-blocking Patricia trie with replace operations, once for both
   key representations.

   This is a direct transcription of the algorithm of

     N. Shafiei, "Non-blocking Patricia Tries with Replace Operations",
     ICDCS 2013 (arXiv:1303.3626),

   for an asynchronous shared-memory system with single-word CAS.  Line
   numbers in comments refer to the paper's pseudocode (Figures 2-4).

   This file is not a module of its own.  The dune rules of lib/core
   paste a key module [K] (pat_key.ml or vlk_key.ml) and then this file
   into one compilation unit per instance: PAT, whose keys are l-bit
   ints, and PAT-VLK, the Section-VI extension whose keys are bit
   strings of unbounded length.  Patricia and Patricia_vlk add only
   their front ends.  [K] sits in the same unit as the descent so its
   label operations compile to direct, inlinable code: a functor
   application would make each of them an indirect call on this
   compiler, which has no flambda.  Edit the algorithm here; the two
   instances are generated under _build.

   Concurrency notes specific to OCaml 5:

   - [Atomic.compare_and_set] compares by physical equality, which matches
     the paper's pointer-identity CAS.
   - The paper avoids the ABA problem on [info] fields by installing a
     *newly allocated* Unflag object on every unflag/backtrack CAS; we
     reproduce this with [Unflag { mutable u : unit }], a 2-word block
     that is fresh per allocation (a mutable block is never shared), so
     two Unflags are never physically equal.  A new node starts with the
     immediate [Clean] instead and allocates no Unflag; since only the
     CASes that release a flag install an Unflag, and always a fresh
     one, an info field that reads [Clean] has never been flagged, and
     a flag CAS expecting [Clean] is as ABA-free as one expecting an
     Unflag.  Leaves are never unflagged, so they never hold one.
   - A node an update removes is flagged for good, as in the paper, but
     not with the descriptor: whoever completes a committed descriptor
     CASes each node it removed from the Flag to the immediate [Dead].
     A removed node already in the major heap would otherwise keep the
     whole descriptor alive after the update returns, and every minor
     collection would promote it.
   - A Flag descriptor must be wrapped in the [info] variant exactly once
     so that all CASes and reads compare the same physical value; the
     shared wrapper is created in [new_flag] and threaded everywhere.

   With unbounded keys (PAT-VLK) searches remain non-blocking but are no
   longer wait-free, as the paper notes: concurrent insertions of
   ever-longer keys can extend a search path.

   Snapshots (not part of the paper; see the [Snapshots] section below):
   the trie root sits behind a generation-stamped holder, every update
   descriptor validates the holder at a single decision CAS, and a
   snapshot swings the holder to a copied root — O(1) in the number of
   keys — after which the old generation is immutable.  An update copies
   the old-generation nodes on its path into the live one with a
   descriptor that flags only their live parent: the copied run leaves
   the live trie unflagged, the one exception to the rule above that a
   removed node stays flagged. *)

(* What an instance's key module provides.  A label is the common
   prefix of the keys below an internal node; a span is the set of keys
   a node covers, so both leaves and internal nodes have one. *)
module type KEY = sig
  val name : string

  type ctx (* per-trie key parameters *)
  type key (* what a leaf stores *)
  type user (* a key as the operations take it *)
  type label

  val import : ctx -> user -> key
  (** Validates and embeds a user key.  @raise Invalid_argument *)

  val export : ctx -> key -> user
  val sentinel_lo : ctx -> key
  val sentinel_hi : ctx -> key
  val is_sentinel : ctx -> key -> bool
  val equal_key : key -> key -> bool
  val trace_key : key -> int
  val root_label : ctx -> label

  val bit : label -> key -> bool
  (** The key's bit after the label: [true] is the right child. *)

  val is_prefix : label -> key -> bool
  (** The label is a proper prefix of the key. *)

  val child_bit : label -> label -> bool
  (** [child_bit p c]: the bit of [c] after [p], for [c] below [p]. *)

  val compare_label : label -> label -> int
  (** Line 115's total order: length, then bits. *)

  type span

  val key_span : key -> span
  val label_span : label -> span
  val half : label -> bool -> span
  val within : span -> span -> bool
  val lcp : span -> span -> label
  val span_bit : label -> span -> bool
  val label_length : ctx -> label -> int

  val slot : ctx -> int -> key -> int
  (** [slot c bits v]: the key's index in a level cache of [2^bits]
      slots, taken from its leading bits. *)

  val fits : ctx -> int -> label -> bool
  (** [fits c bits l]: the label is no longer than the part of a key
      that [slot c bits] reads, so it prefixes every key of its slot. *)

  val max_bits : ctx -> int
  val never : ctx -> label (* a label that prefixes no key *)
  val key_words : key -> int
  val label_words : label -> int
  val pp_key : Format.formatter -> key -> unit
  val pp_label : ctx -> Format.formatter -> label -> unit
end

module _ : KEY = K

(* Node kinds, for the type index of [tnode]: a leaf and an internal node
   are distinct types, so a descriptor's [internal array] can hold only
   internal nodes, while a child field holds either kind as a [node]. *)
type lk = |
type ik = |

(* The info field of a node (paper Figure 2).  [Clean] is the immediate
   value every new node starts with; only the CASes that release a flag
   (unflag, backtrack, and a snapshot's release of the old root) install
   an [Unflag], and always a freshly allocated one (the mutable field
   keeps the compiler from sharing the block), so a field that reads
   [Clean] has never been flagged.  [Dead] marks a node a committed
   update removed: it replaces that update's [Flag] once the child CASes
   are done, is flagged for good, and no CAS ever expects it. *)
type info =
  | Clean
  | Dead
  | Unflag of { mutable u : unit }
  | Flag of flag
  | Snap of snap

(* A node carries its fields inline, as the paper's node does: an
   internal node is one block, and a child field points straight at the
   child's block, with no wrapper box between.  The info word is field 0
   of both kinds and is accessed only through [info_cell] below, never
   as a record field.  The children are read as plain fields and written
   after construction only by [cas_child], never with [<-]. *)
and _ tnode =
  | Leaf : { mutable linfo : info; key : K.key } -> lk tnode
  | Internal : {
      mutable iinfo : info;
      label : K.label;
      mutable c0 : node; (* left child (next bit 0), field 2 *)
      mutable c1 : node; (* right child (next bit 1), field 3 *)
      gen : unit ref;
          (* Generation stamp: physically equal to [hgen] of the holder
             that was current when this node was created.  Immutable.
             Updates renew (copy into the current generation) every
             internal node they descend through whose stamp is stale, so
             the nodes whose children they CAS always belong to the live
             generation and the frozen generations behind past snapshots
             are never mutated. *)
    }
      -> ik tnode

(* A child of either kind.  Unboxed: [Any n] is [n] itself at run time,
   so a node has one physical identity however it is reached, which is
   what the child CASes compare. *)
and node = Any : 'k tnode -> node [@@unboxed]

and leaf = lk tnode
and internal = ik tnode

(* One generation of the trie.  [hroot] is that generation's root;
   [hgen] is the identity the root's descendants are stamped with.
   The live generation is the one in [t.holder]; a snapshot replaces it
   wholesale (fresh [hroot] sharing the old children), so a holder value
   doubles as a frozen, immutable version once superseded. *)
and holder = {
  epoch : int;
  hgen : unit ref;
  hroot : internal;
  mutable hcache : cache;
      (* This generation's level cache (see [search]): the trie's shared
         empty one until enough descents have run to size it. *)
  mutable hsamples : int;
  mutable hdepth : int;
      (* The sampled descents that size [hcache], and the sum of their
         depths below the node each started at. *)
  mutable hbase : int;
      (* The mean root-descent depth the cache was last sized for, or -1
         once this generation has given its cache up.  All three are
         plain fields: a lost update only delays a decision. *)
}

(* A level cache: [2^bits] hints, slot [K.slot _ bits v] holding the
   deepest internal node with a label that [K.fits] that a descent for a
   key of that slot has passed, or a dummy node whose label prefixes no
   key.  Hints only: a search starts at one only after reading its info
   unflagged and checking its label, and the trie stays the source of
   truth. *)
and cache = { bits : int; slots : internal array }

(* The fate of an update descriptor.  [Pending] until some process that
   completed the flagging phase validates the generation; the single
   decision CAS is the only place an update commits, so a snapshot that
   swings the holder strictly before that CAS is never missed. *)
and decision = Pending | Commit | Abort

(* The Flag descriptor (paper Figure 2, lines 8-16).  [flag_nodes] are the
   internal nodes to flag, sorted by label; [old_infos.(i)] is the value
   that must still be in [flag_nodes.(i)]'s info for the flag CAS to
   succeed.  Child [k] of [pnodes.(i)] is CASed from [old_children.(i)]
   to [new_children.(i)].  [unflag_nodes] are unflagged afterwards; flagged
   nodes absent from it are removed from the trie and stay flagged
   ("marked") forever, as [Dead] once the child CASes are done.
   [rmv_leaf] is the leaf logically removed by a general-case replace,
   flagged and then marked [Dead] the same way. *)
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
  fstats : stats option;
      (* The owning trie's counters, carried by the descriptor so that
         helpers — which see only the descriptor — can attribute events
         (descriptors run, helps received, lost child CASes, backtracks)
         to the right trie. *)
}

(* Descriptor of an in-flight snapshot, installed on the old root's
   [iinfo] like a one-node flag: it proves the root's children did not
   change between being copied into [s_new.hroot] and the holder CAS,
   and it lets any process (an update that finds it while flagging the
   root, or a concurrent snapshot) complete the swing. *)
and snap = { s_old : holder; s_new : holder; s_cell : holder Atomic.t }

(* Counters for the help-rate ablation and the observability layer;
   disabled (None) by default so the hot path pays a single branch.
   Each counter is striped per domain ([Obs.Counter]): enabling stats
   does not share one Atomic.t across domains, so the instrumentation
   does not become the contention hotspot it is measuring. *)
and stats = {
  attempts : Obs.Counter.t; (* retry-loop iterations across all updates *)
  helps_given : Obs.Counter.t; (* calls to help on *another* op's descriptor *)
  helps_received : Obs.Counter.t;
      (* flag CASes lost because another process had already installed
         this very descriptor — i.e. our operation was helped along *)
  (* Every failed attempt bumps exactly one of the next three, by cause,
     so attempts = updates + flag_failures + flagged_ancestor + conflicts. *)
  flag_failures : Obs.Counter.t; (* attempts abandoned in the flagging phase *)
  flagged_ancestor : Obs.Counter.t;
      (* attempts restarted after helping a pending descriptor they read *)
  conflicts : Obs.Counter.t;
      (* attempts restarted with no descriptor to help: a prefix clash or
         a node that changed between two reads *)
  child_cas_lost : Obs.Counter.t;
      (* child CASes whose expected old child was already gone *)
  backtracks : Obs.Counter.t; (* failed flag phases backed out in help *)
  descriptors_run : Obs.Counter.t; (* entries to help on a Flag, own or not *)
  backoff_waits : Obs.Counter.t;
      (* retries that paused in the contention backoff (Chaos.Backoff) *)
  renewals : Obs.Counter.t;
      (* stale-generation nodes copied by committed path renewals *)
  renew_paths : Obs.Counter.t; (* committed path-renewal descriptors *)
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
  flagged_ancestor : int;
  conflicts : int;
  child_cas_lost : int;
  backtracks : int;
  descriptors_run : int;
  backoff_waits : int;
  descent_nodes_find : int;
  descent_nodes_insert : int;
  descent_nodes_delete : int;
  descent_nodes_replace : int;
  descent_searches : int;
  renewals : int;
  renew_paths : int;
}

type t = {
  ctx : K.ctx;
  holder : holder Atomic.t; (* the live generation; swung only by snapshots *)
  slots : info option Atomic.t list Atomic.t;
      (* Published-descriptor registry: one slot per domain that ever
         updated this trie.  An update publishes its descriptor before
         the flagging phase and clears the slot after completion, so a
         snapshot can resolve (commit or abort) every descriptor that
         might still commit against the generation it froze — the scan
         is O(#domains), independent of the key count. *)
  mine : mine Domain.DLS.key; (* the calling domain's own state for [t] *)
  stats : stats option;
  no_cache : cache; (* one slot holding the dummy node *)
  mutable fixed_bits : int; (* a level-cache size set by a test, or -1 *)
}

(* What one domain keeps for one trie, written by that domain only. *)
and mine = {
  mutable slot : info option Atomic.t option;
      (* its published-descriptor slot, registered on first update *)
  mutable descents : int; (* its cached descents, for sampling *)
}

let name = K.name

(* The calling domain's published-descriptor slot for [t], created and
   registered on first use. *)
let my_slot t =
  let m = Domain.DLS.get t.mine in
  match m.slot with
  | Some s -> s
  | None ->
      let s = Atomic.make None in
      let rec push () =
        let l = Atomic.get t.slots in
        if not (Atomic.compare_and_set t.slots l (s :: l)) then push ()
      in
      push ();
      m.slot <- Some s;
      s

let fresh_unflag () = Unflag { u = () }

(* A node's info word as an atomic cell.  [Atomic.get],
   [compare_and_set] and [set] act on field 0 of whatever block they are
   given, with the write barrier an [Atomic.t] gets, and field 0 of both
   node kinds is the info word (the layout test of test_patricia and
   test_patricia_vlk pins this).  The one cast in the trie: OCaml 5.4's
   atomic record fields would replace it. *)
external info_cell : _ tnode -> info Atomic.t = "%identity"

let new_leaf key : leaf = Leaf { linfo = Clean; key }

(* Field access on a typed node: the pattern is exhaustive at its type,
   so each compiles to a single load with no tag test. *)
let[@inline] label (Internal i : internal) = i.label
let[@inline] iinfo (i : internal) = info_cell i
let[@inline] child (Internal i : internal) b = if b then i.c1 else i.c0
let[@inline] node_info (Any n) = info_cell n

(* The child CAS (line 97): field [2 + b] of an internal node, [c0] or
   [c1], from [old] to [nc].  The stub (child_cas.c) calls the runtime's
   [caml_atomic_cas_field], the field-indexed twin of the [caml_atomic_cas]
   behind [Atomic.compare_and_set]: physical equality, a sequentially
   consistent CAS and the write barrier.  OCaml 5.4's atomic record
   fields would replace it. *)
external cas_field : internal -> int -> node -> node -> bool
  = "core_cas_field"
[@@noalloc]

let[@inline] cas_child p b old nc = cas_field p (2 + Bool.to_int b) old nc

let node_span = function
  | Any (Leaf l) -> K.key_span l.key
  | Any (Internal i) -> K.label_span i.label

let make_internal ~gen label c0 c1 : internal =
  Internal { iinfo = Clean; label; c0; c1; gen }

(* A copy of [i] in generation [gen], children read now: callers read
   [i]'s info field first (see [copy_node]). *)
let copy_internal ~gen (Internal i : internal) =
  make_internal ~gen i.label i.c0 i.c1

let make_stats () : stats =
  {
    attempts = Obs.Counter.create ();
    helps_given = Obs.Counter.create ();
    helps_received = Obs.Counter.create ();
    flag_failures = Obs.Counter.create ();
    flagged_ancestor = Obs.Counter.create ();
    conflicts = Obs.Counter.create ();
    child_cas_lost = Obs.Counter.create ();
    backtracks = Obs.Counter.create ();
    descriptors_run = Obs.Counter.create ();
    backoff_waits = Obs.Counter.create ();
    renewals = Obs.Counter.create ();
    renew_paths = Obs.Counter.create ();
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
(* Flight recorder (lib/obs).  One closed span per update attempt into
   the global trace recorder ([Obs.Trace.set_recorder]), labelled with
   the attempt number and the retry cause it ended at, so the spans of
   one operation give the attempt depth each cause struck at.  With no
   recorder the cost is that of [chaos_point]: one atomic load and an
   untaken branch.

   [span_start] reads the clock only when tracing is live; a zero start
   marks the attempt as untraced, so the completion helpers need no
   second atomic load. *)

let[@inline] span_start () =
  if Atomic.get Obs.Trace.active then Obs.Clock.now_ns () else 0

let span_emit kind ~key ~ok ~attempt ~site ~t0 =
  match Obs.Trace.recorder () with
  | Some tr ->
      Obs.Trace.emit_span tr kind ~key:(K.trace_key key) ~ok
        ~retries:(attempt - 1) ~attempt ~site ~t0_ns:t0
  | None -> ()

(* Attempt finished with outcome [ok]; [site] says how ("applied", or
   why the operation was a no-op). *)
let[@inline] attempt_done kind ~key ~attempt ~t0 ~site ok =
  if t0 <> 0 then span_emit kind ~key ~ok ~attempt ~site ~t0;
  ok

(* Why a failed attempt goes around: one of its flag CASes lost (paper
   lines 87-92), it helped a pending descriptor it read (lines 109-111),
   or it met a conflict with no descriptor to help. *)
type cause = Flag_cas_lost | Flagged_ancestor | Conflict

(* Attempt failed and the loop will go around: count it under its
   [cause], the only place a failed attempt is counted. *)
let[@inline] attempt_retry (stats : stats option) kind ~key ~attempt ~t0 cause =
  (match stats with
  | None -> ()
  | Some s ->
      Obs.Counter.incr
        (match cause with
        | Flag_cas_lost -> s.flag_failures
        | Flagged_ancestor -> s.flagged_ancestor
        | Conflict -> s.conflicts));
  if t0 <> 0 then
    span_emit kind ~key ~ok:false ~attempt
      ~site:
        (match cause with
        | Flag_cas_lost -> "flag_cas_lost"
        | Flagged_ancestor -> "flagged_ancestor"
        | Conflict -> "conflict")
      ~t0

let[@inline] flagged = function
  | Flag _ | Snap _ | Dead -> true
  | Clean | Unflag _ -> false

(* Cause of a [None] return from [new_flag], recovered from the info
   values the attempt read: if any was a Flag we restarted after helping
   a pending descriptor; otherwise a node changed between two reads of
   the same attempt. *)
let[@inline] retry_cause2 a b =
  if flagged a || flagged b then Flagged_ancestor else Conflict

(* ------------------------------------------------------------------ *)
(* Construction *)

(* Line 18-19: the root is permanent (within its generation), its
   children start as the two sentinel leaves, which are never elements
   of D. *)
let new_holder ~epoch ~gen root no_cache =
  {
    epoch;
    hgen = gen;
    hroot = root;
    hcache = no_cache;
    hsamples = 0;
    hdepth = 0;
    hbase = 0;
  }

let make ~record_stats ctx =
  let gen = ref () in
  let sentinel_lo = Any (new_leaf (K.sentinel_lo ctx)) in
  let root =
    make_internal ~gen (K.root_label ctx) sentinel_lo
      (Any (new_leaf (K.sentinel_hi ctx)))
  in
  (* The dummy of every empty cache slot, in no generation. *)
  let dummy = make_internal ~gen:(ref ()) (K.never ctx) sentinel_lo sentinel_lo in
  let no_cache = { bits = 0; slots = [| dummy |] } in
  {
    ctx;
    holder = Atomic.make (new_holder ~epoch:0 ~gen root no_cache);
    slots = Atomic.make [];
    mine = Domain.DLS.new_key (fun () -> { slot = None; descents = 0 });
    stats = (if record_stats then Some (make_stats ()) else None);
    no_cache;
    fixed_bits = -1;
  }

(* ------------------------------------------------------------------ *)
(* Search (lines 76-85) — no writes; wait-free for fixed-width keys *)

(* logicallyRemoved (lines 122-124): a leaf flagged by a general-case
   replace is logically removed once the replace's first child CAS has
   happened, i.e. once oldChild[0] is no longer a child of pNode[0].  A
   leaf reads [Dead] only after both child CASes. *)
let logically_removed = function
  | Dead -> true
  | Clean | Unflag _ | Snap _ -> false
  | Flag f ->
      let (Internal p) = f.pnodes.(0) and old = f.old_children.(0) in
      not (p.c0 == old || p.c1 == old)

type search_result = {
  gp : internal option;
  p : internal; (* [Any p] is the value in gp's child field *)
  node : node;
  gp_info : info option;
  p_info : info;
  rmvd : bool;
  depth : int;
      (* Child pointers followed to reach [node] — the pointer-chase
         cost of this search, counting the terminal node but not the
         node it started at (that node's child = 1).  Computed from
         values the loop already holds, so uninstrumented searches pay
         one add per level. *)
  hint : internal;
      (* The deepest node passed whose label fits the level cache's
         levels, or the start node: what the search writes back. *)
}

(* The result of a descent that stopped at [node], child of [p].  The
   descent carries [gp] and [gp_info] unboxed, with the root and its info
   as placeholders while [p] is still the root (depth [d] = 0); the
   options are built here, once per search, not once per level. *)
let[@inline] found hint gp gp_info p p_info d node =
  let rmvd =
    match node with
    | Any (Leaf _ as l) -> logically_removed (Atomic.get (info_cell l))
    | Any (Internal _) -> false
  in
  {
    gp = (if d > 0 then Some gp else None);
    p;
    node;
    gp_info = (if d > 0 then Some gp_info else None);
    p_info;
    rmvd;
    depth = d + 1;
    hint;
  }

let search_from (root : internal) v =
  (* The root's label is a prefix of every key, so the loop body runs at
     least once and [p] is always an internal node on return. *)
  let rec go gp gp_info p p_info d =
    let node = child p (K.bit (label p) v) in
    match node with
    | Any (Internal r as i) when K.is_prefix r.label v ->
        go p p_info i (Atomic.get (iinfo i)) (d + 1)
    | _ -> found root gp gp_info p p_info d node
  in
  let ri = Atomic.get (iinfo root) in
  go root ri root ri 0

let search_root t v = search_from (Atomic.get t.holder).hroot v

(* ------------------------------------------------------------------ *)
(* The level cache, after the cache tries of Prokopec, Bagwell and
   Odersky: each generation may hold an array of [2^bits] hints into
   its trie, indexed by a key's leading bits ([K.slot]).  A descent
   starts at the hint in its key's slot when the hint's info reads
   unflagged and its label prefixes the key, and at the root otherwise;
   on leaving the levels the slot covers ([K.fits]) it writes back the
   deepest node it passed there if that differs from the hint.

   Why a hint read unflagged is a sound start (DESIGN.md, "Level
   cache"): the trie never unlinks a node of the live generation
   without flagging it for good, and never links it again, so a node
   that was once on a search path and now reads unflagged is in the
   trie at that read, unless its generation was superseded since, and
   its label puts it on the search path of every key it prefixes.  The
   descent then goes on as one from the root would from there.  Two
   kinds of node leave the trie unflagged.  A superseded root, which
   [help_snap] unflags: roots are never written back, and each
   generation has its own array, so no search starts in an older
   generation's root through the cache.  And a stale run a path renewal
   copied ([renew_path]): it is reached only through its own, superseded
   generation's array, by a descent that read that holder before the
   swing.  Everything below it is frozen, so a find from it reads what a
   root descent read just before the renewal, an instant inside the
   find's interval; an update from it aborts at the decision CAS, since
   the holder moved.  Each generation's array holds
   only nodes stamped with it: [search_renew] flags and CASes the
   children of its start node, which must not belong to a frozen
   generation, so [search] writes back only live-stamped nodes.

   Sizing follows the trie ([size_cache]): one in 64 of each domain's
   descents that start at a hint (every one while the array has fewer
   than 64 slots; every descent, from the root, while there is no
   array) adds its depth to its generation's sample.  The count is the
   domain's own, so sampling writes no line another domain reads, and
   it is by descent, not by slot: an ascending build, which visits
   each slot once and in turn, is sampled as often as random keys.  A mean
   root-descent depth [m] asks for [2^(m-2.5)] slots, one per 4 to 8
   keys ([cache_cap] bits at most); a generation with no array
   allocates them once it has made that many root descents.  With an
   array of [2^bits] slots, whose hints sit about [bits] levels down,
   the sample is judged after as many descents as the array has slots.
   If the hints save less than one level of the root-descent depth the
   array was sized for, the keys' leading bits do not tell the trie's
   subtrees apart (keys that share a long prefix) and the generation
   gives its cache up; if [bits] plus the mean depth below the hints
   asks for more slots, the trie has outgrown the array and a larger
   one replaces it.  A generation that makes few descents, as between
   the snapshots of a paged scan, never allocates one, and [snapshot]
   itself allocates nothing for the cache. *)

let cache_cap = 16

(* A new array starts with [no_cache]'s one node, the dummy, in every
   slot.  No search ever writes to [no_cache]: with no bits, only the
   root's label fits. *)
let install_cache t h bits =
  h.hcache <-
    (if bits = 0 then t.no_cache
     else { bits; slots = Array.make (1 lsl bits) t.no_cache.slots.(0) })

(* Whether a descent that started at a hint of a [2^bits]-slot array
   joins the sample: one in 64 of the calling domain's, every one with
   a smaller array. *)
let sampled t bits =
  bits < 6
  ||
  let m = Domain.DLS.get t.mine in
  let n = m.descents + 1 in
  m.descents <- n;
  n land 63 = 0

(* A sampled descent of generation [h] went [depth] nodes below the node
   it started at. *)
let size_cache t h depth =
  let lc = h.hcache in
  if t.fixed_bits >= 0 then begin
    if lc.bits <> t.fixed_bits then install_cache t h t.fixed_bits
  end
  else if h.hbase >= 0 then begin
    let n = h.hsamples + 1 and sum = h.hdepth + depth in
    h.hsamples <- n;
    h.hdepth <- sum;
    (* Judged every 64 samples; a sample stands for 64 descents once
       the array has 64 slots. *)
    if n land 63 = 0 then begin
      (* [bits] plus the mean depth below the hints, less 2.5, rounded
         down: a hint sits about [bits] levels down. *)
      let bits = lc.bits in
      let want = ((2 * ((bits * n) + sum)) - (5 * n)) / (2 * n) in
      let want = min (min cache_cap (K.max_bits t.ctx)) want in
      if n lsl (if bits < 6 then 0 else 6) >= 1 lsl max want bits then begin
        h.hsamples <- 0;
        h.hdepth <- 0;
        if bits > 0 && sum >= (h.hbase - 1) * n then begin
          install_cache t h 0;
          h.hbase <- -1
        end
        else if want >= 4 && want > bits then begin
          install_cache t h want;
          h.hbase <- bits + (sum / n)
        end
      end
    end
  end

(* Search (lines 76-85) for [find], starting at [v]'s hint when it
   qualifies.  The loop tracks the last node it passes whose label fits
   the cache's levels, and the search writes that node back if it is
   not the hint it read, nor the root, and belongs to the live
   generation. *)
let search t v =
  let ctx = t.ctx and h = Atomic.get t.holder in
  let lc = h.hcache in
  let bits = lc.bits in
  let rec go hint gp gp_info p p_info d =
    let node = child p (K.bit (label p) v) in
    match node with
    | Any (Internal r as i) when K.is_prefix r.label v ->
        go
          (if K.fits ctx bits r.label then i else hint)
          p p_info i (Atomic.get (iinfo i)) (d + 1)
    | _ -> found hint gp gp_info p p_info d node
  in
  let slot = K.slot ctx bits v in
  let c = Array.unsafe_get lc.slots slot in
  chaos_point Chaos.Cache;
  let ci = Atomic.get (iinfo c) in
  let root = h.hroot in
  let r =
    if (not (flagged ci)) && K.is_prefix (label c) v then begin
      let r = go c c ci c ci 0 in
      if sampled t bits then size_cache t h r.depth;
      r
    end
    else
      let ri = Atomic.get (iinfo root) in
      let r = go root root ri root ri 0 in
      if bits = 0 then size_cache t h r.depth;
      r
  in
  let (Internal hr as hint) = r.hint in
  if hint != c && hint != root && hr.gen == h.hgen then
    Array.unsafe_set lc.slots slot hint;
  r

(* keyInTrie (lines 125-126) *)
let key_in_trie node v rmvd =
  match node with
  | Any (Leaf l) -> K.equal_key l.key v && not rmvd
  | Any (Internal _) -> false

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
      let x = iinfo f.flag_nodes.(i) in
      chaos_point Chaos.Flag_cas;
      let ours = Atomic.compare_and_set x f.old_infos.(i) fi in
      if Atomic.get x == fi then begin
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
      let b =
        match nc with
        | Any (Leaf l) -> K.bit (label p) l.key
        | Any (Internal c) -> K.child_bit (label p) c.label
      in
      chaos_point Chaos.Child_cas;
      if not (cas_child p b f.old_children.(i) nc) then
        (* Expected old child already gone: a helper or a conflicting
           update got there first. *)
        bump f.fstats (fun s -> s.child_cas_lost);
      chaos_point Chaos.After_child_cas)
    f.pnodes

(* [index_of a m x 0] is the position of [x] among [a.(0 .. m-1)]
   (physical equality), or -1.  [Array.memq] would allocate a closure
   per call. *)
let rec index_of (a : internal array) m x j =
  if j = m then -1 else if a.(j) == x then j else index_of a m x (j + 1)

(* Complete an in-flight snapshot found installed on a root: swing the
   holder (idempotent — the new holder value is carried by the
   descriptor, so every helper CASes to the same value) and release the
   old root's info field. *)
let help_snap (si : info) (s : snap) =
  ignore (Atomic.compare_and_set s.s_cell s.s_old s.s_new);
  ignore (Atomic.compare_and_set (iinfo s.s_old.hroot) si (fresh_unflag ()))

let rec help (fi : info) : bool =
  match fi with
  | Clean | Unflag _ -> assert false
  | Dead ->
      (* A completed descriptor's mark: helping it would only make CASes
         that fail. *)
      true
  | Snap s ->
      (* A snapshot never fails; completing it counts as success and the
         helper retries its own operation against the new generation. *)
      help_snap fi s;
      true
  | Flag f -> help_flag fi f

and help_flag (fi : info) (f : flag) : bool =
  bump f.fstats (fun s -> s.descriptors_run);
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
      (* Line 95: flag the leaf removed by a general-case replace.  A
         leaf is never unflagged, so it reads [Clean] until this CAS and
         only the first helper's succeeds: a late helper must not put
         the descriptor back on a leaf already marked [Dead]. *)
      (match f.rmv_leaf with
      | Some l -> ignore (Atomic.compare_and_set (info_cell l) Clean fi)
      | None -> ());
      child_cas_phase f;
      (* Lines 99-102: unflag, in reverse order, the nodes still in the trie. *)
      chaos_point Chaos.Unflag;
      let u = Array.length f.unflag_nodes in
      for i = u - 1 downto 0 do
        ignore
          (Atomic.compare_and_set (iinfo f.unflag_nodes.(i)) fi
             (fresh_unflag ()))
      done;
      (* The nodes the paper leaves flagged forever are out of the trie
         now: mark them [Dead], so that none keeps the descriptor alive. *)
      for i = 0 to Array.length f.flag_nodes - 1 do
        let x = f.flag_nodes.(i) in
        if index_of f.unflag_nodes u x 0 < 0 then
          ignore (Atomic.compare_and_set (iinfo x) fi Dead)
      done;
      (match f.rmv_leaf with
      | Some l -> ignore (Atomic.compare_and_set (info_cell l) fi Dead)
      | None -> ());
      true
  | Abort ->
      (* Lines 103-106: flagging failed (or the generation moved on) —
         back the flags out. *)
      chaos_point Chaos.Backtrack;
      bump f.fstats (fun s -> s.backtracks);
      for i = Array.length f.flag_nodes - 1 downto 0 do
        ignore
          (Atomic.compare_and_set (iinfo f.flag_nodes.(i)) fi (fresh_unflag ()))
      done;
      false
  | Pending -> assert false

(* Position of the first flagged info (a Flag, a Snap or [Dead]) among
   [infos], or its length. *)
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

(* newFlag (lines 107-116) for an attempt of [t] that searched
   generation [h].  [nodes.(i)] is a node to flag and [infos.(i)] the
   info value read from it; returns the shared [Flag] info value, or
   [None] after helping a conflicting update (the caller then retries).
   Callers pass fresh array literals, which are de-duplicated and sorted
   in place. *)
let new_flag t h ~(nodes : internal array) ~infos ~unflag ~pnodes
    ~old_children ~new_children ~rmv_leaf =
  let n = Array.length nodes in
  let p = first_flagged infos 0 in
  if p < n then begin
    (* Lines 109-111: someone else's update is pending on a node we
       need; help it, then fail so our caller restarts from scratch. *)
    bump t.stats (fun s -> s.helps_given);
    ignore (help infos.(p));
    None
  end
  else
    let m = dedup_flags nodes infos 0 0 in
    if m < 0 then None
    else begin
      (* Line 115: flag in a fixed total order to avoid livelock.  A
         stable insertion sort: at most four entries, the general
         replace's. *)
      for i = 1 to m - 1 do
        let x = nodes.(i) and xi = infos.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && K.compare_label (label nodes.(!j)) (label x) > 0 do
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
             fholder = h;
             fcell = t.holder;
             fstats = t.stats;
           })
    end

(* The single-child-CAS shape: flag [nodes] (read with [infos]), swing
   [p]'s child from [old_child] to [new_child], and unflag only [p] —
   the other flagged nodes leave the trie.  One array serves as both
   [unflag] and [pnodes]: de-duplicating a single node changes nothing. *)
let swing_flag t h ~nodes ~infos p old_child new_child =
  let ps = [| p |] in
  new_flag t h ~nodes ~infos ~unflag:ps ~pnodes:ps
    ~old_children:[| old_child |] ~new_children:[| new_child |] ~rmv_leaf:None

(* createNode (lines 117-121): a fresh internal node in [h]'s generation
   over [n1] and [n2], or [None] when one's label prefixes the other's
   (after helping [info] if it is pending). *)
let create_node t (h : holder) n1 n2 info =
  let s1 = node_span n1 and s2 = node_span n2 in
  if K.within s1 s2 || K.within s2 s1 then begin
    (match info with
    | Some ((Flag _ | Snap _) as fi) ->
        bump t.stats (fun s -> s.helps_given);
        ignore (help fi)
    | _ -> ());
    None
  end
  else
    let lcp = K.lcp s1 s2 in
    Some
      (if K.span_bit lcp s1 then make_internal ~gen:h.hgen lcp n2 n1
       else make_internal ~gen:h.hgen lcp n1 n2)

(* ------------------------------------------------------------------ *)
(* Node copying (lines 26 and 52).  The copy must be taken *after* the
   node's info field was read: the flag CAS on that info value then
   guarantees the children did not change in between (Lemma 31), so the
   copy's children equal the original's at the child CAS. *)

let copy_node ~gen = function
  | Any (Leaf l) -> Any (new_leaf l.key)
  | Any (Internal _ as i) -> Any (copy_internal ~gen i)

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
   current generation ([renew_path]) before using it, so the nodes an
   update flags-and-CASes-children-of always carry the live generation
   stamp and frozen views behind past snapshots are never structurally
   mutated.  (Terminal nodes that only get *marked* — e.g. an internal
   node an insert replaces — may be stale: marking touches only the
   info field, which frozen-view traversals ignore.)  Every node below a
   stale node is stale too, so the descent meets stale nodes in runs: a
   renewal copies the whole run toward the key at once.  It is the
   single-swing descriptor of an insert: it flags the live parent only,
   swings the parent's child to the top copy and unflags the parent.
   The run is frozen (its generation gets no new children once the
   descriptors it committed are done, and the copy helps any it finds
   pending), so its nodes need no flag and leave the live trie
   unmarked; a frozen view still walks them.  The descriptor validates
   at the same decision CAS as any update and aborts if a snapshot
   intervenes.  A committed renewal does not end the descent:
   the search re-reads the parent and goes on through the copies, so a
   path that is stale all the way down costs one renewal descriptor and
   one pass. *)

let run_own t fi =
  let slot = my_slot t in
  Atomic.set slot (Some fi);
  let r = help fi in
  Atomic.set slot None;
  r

(* The copies of a path renewal, built from the bottom of the stale run
   up.  [i] is a stale node of a run that hangs from a live node; the run
   goes on through every internal node whose label prefixes [v].  Each
   node's info is read before its children: a stale node read unflagged
   after the holder swing has its final children (DESIGN.md, "Path
   renewal"), and one read flagged is helped instead, since a descriptor
   of its own generation may still CAS its children.  The bottom frame
   puts the child below the run in [top.(0)], and each frame on the way
   back up replaces it with a copy of its own node over it and the
   original other child.  Returns the number of nodes copied, the top
   copy left in [top.(0)], or -1 after helping a descriptor pending on
   the run. *)
let rec renew_run t h v top (Internal ir as i : internal) =
  match Atomic.get (iinfo i) with
  | (Flag _ | Snap _ | Dead) as fi ->
      bump t.stats (fun s -> s.helps_given);
      ignore (help fi);
      -1
  | Clean | Unflag _ ->
      let c0 = ir.c0 and c1 = ir.c1 in
      let b = K.bit ir.label v in
      let n =
        match if b then c1 else c0 with
        | Any (Internal nr as n) when K.is_prefix nr.label v ->
            renew_run t h v top n
        | below ->
            top.(0) <- below;
            0
      in
      if n >= 0 then begin
        let below = top.(0) and gen = h.hgen in
        top.(0) <-
          Any
            (if b then make_internal ~gen ir.label c0 below
             else make_internal ~gen ir.label below c1);
        n + 1
      end
      else n

(* Renew the stale run below the live node [p] — the first stale node
   [i] and every node under it toward [v] — with the single-swing
   descriptor of an insert: flag [p], swing its child from [i] to the
   top copy, unflag [p].  The run itself is neither flagged nor marked:
   it belongs to a superseded generation, which gets no new children,
   so the flag on [p] alone orders the swing against every other update
   of that subtree.  [true] iff the renewal committed; [false] after
   helping a descriptor pending on [p] or the run, or when the attempt
   aborted. *)
let renew_path t (h : holder) p p_info (i : internal) v =
  if flagged p_info then begin
    bump t.stats (fun s -> s.helps_given);
    ignore (help p_info);
    false
  end
  else
    let top = [| Any i |] in
    let n = renew_run t h v top i in
    n > 0
    &&
    match swing_flag t h ~nodes:[| p |] ~infos:[| p_info |] p (Any i) top.(0) with
    | None -> false
    | Some fi ->
        chaos_point Chaos.Renew;
        let ok = run_own t fi in
        (match t.stats with
        | Some s when ok ->
            Obs.Counter.add s.renewals n;
            Obs.Counter.incr s.renew_paths
        | _ -> ());
        ok

(* The stale run under [p] is renewed and the descent continues from
   [p]: the committed renewal left a fresh Unflag in [p]'s info (the old
   [p_info] would fail every later flag CAS on [p]), so re-read it —
   before the child, the order Lemma 31 needs — and the child slot now
   holds the top copy, under which the rest of the run's copies are
   live.  [gp], [gp_info] and the depth are untouched by the renewal.
   [None] means a renewal failed (it aborted, or it helped a pending
   descriptor instead): the caller restarts from a fresh holder read, so
   once a snapshot supersedes [h] the descent stops at its first aborted
   renewal. *)
let search_renew ~need_gp t (h : holder) v =
  let ctx = t.ctx and lc = h.hcache in
  let bits = lc.bits in
  let rec go hint gp gp_info p p_info d =
    let node = child p (K.bit (label p) v) in
    match node with
    | Any (Internal r as i) when K.is_prefix r.label v ->
        if r.gen == h.hgen then
          go
            (if K.fits ctx bits r.label then i else hint)
            p p_info i (Atomic.get (iinfo i)) (d + 1)
        else if renew_path t h p p_info i v then
          go hint gp gp_info p (Atomic.get (iinfo p)) d
        else None
    | _ -> Some (found hint gp gp_info p p_info d node)
  in
  let slot = K.slot ctx bits v in
  let c = Array.unsafe_get lc.slots slot in
  chaos_point Chaos.Cache;
  let ci = Atomic.get (iinfo c) in
  let root = h.hroot in
  let r =
    if (not (flagged ci)) && K.is_prefix (label c) v then
      match go c c ci c ci 0 with
      | Some { gp = None; _ } when need_gp ->
          (* Stopped right under the hint: a delete or a replace needs
             the grandparent, so search again from the root. *)
          if sampled t bits then size_cache t h 1;
          let ri = Atomic.get (iinfo root) in
          go root root ri root ri 0
      | Some x as r ->
          if sampled t bits then size_cache t h x.depth;
          r
      | None -> None
    else
      let ri = Atomic.get (iinfo root) in
      let r = go root root ri root ri 0 in
      (match r with Some x when bits = 0 -> size_cache t h x.depth | _ -> ());
      r
  in
  (match r with
  | Some r when r.hint != c && r.hint != root ->
      Array.unsafe_set lc.slots slot r.hint
  | _ -> ());
  r

(* ------------------------------------------------------------------ *)
(* find (lines 72-75) *)

let member t k =
  let v = K.import t.ctx k in
  let r = search t v in
  descent t.stats (fun s -> s.descent_find) r.depth;
  key_in_trie r.node v r.rmvd

(* ------------------------------------------------------------------ *)
(* insert (lines 20-32) *)

(* The flag descriptor of an insert of [v] whose search ended at [r]
   (lines 27-31), or [None] if the attempt must restart. *)
let insert_flag t h r v node_info_v =
  let node_copy = copy_node ~gen:h.hgen r.node in
  match create_node t h node_copy (Any (new_leaf v)) (Some node_info_v) with
  | None -> None
  | Some new_node -> (
      let new_child = Any new_node in
      match r.node with
      | Any (Internal _ as i) ->
          (* Line 30: replacing an internal node permanently flags it,
             since it leaves the trie. *)
          swing_flag t h ~nodes:[| r.p; i |] ~infos:[| r.p_info; node_info_v |]
            r.p r.node new_child
      | Any (Leaf _) ->
          swing_flag t h ~nodes:[| r.p |] ~infos:[| r.p_info |] r.p r.node
            new_child)

let insert t k =
  let v = K.import t.ctx k in
  let stats = t.stats in
  let rec attempt bo n =
    bump stats (fun s -> s.attempts);
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew ~need_gp:false t h v with
    | None ->
        attempt_retry stats Obs.Trace.Insert ~key:v ~attempt:n ~t0 Conflict;
        attempt (retry_pause stats bo) (n + 1)
    | Some r -> (
        descent stats (fun s -> s.descent_insert) r.depth;
        if key_in_trie r.node v r.rmvd then
          attempt_done Obs.Trace.Insert ~key:v ~attempt:n ~t0 ~site:"present"
            false
        else
          let node_info_v = Atomic.get (node_info r.node) in
          match insert_flag t h r v node_info_v with
          | Some fi when run_own t fi ->
              attempt_done Obs.Trace.Insert ~key:v ~attempt:n ~t0
                ~site:"applied" true
          | Some _ ->
              attempt_retry stats Obs.Trace.Insert ~key:v ~attempt:n ~t0
                Flag_cas_lost;
              attempt (retry_pause stats bo) (n + 1)
          | None ->
              attempt_retry stats Obs.Trace.Insert ~key:v ~attempt:n ~t0
                (retry_cause2 r.p_info node_info_v);
              attempt (retry_pause stats bo) (n + 1))
  in
  attempt Chaos.Backoff.init 1

(* ------------------------------------------------------------------ *)
(* delete (lines 33-41) *)

(* A search for a delete or a replace that stopped without a
   grandparent started at the root: [search_renew ~need_gp:true] redoes
   one from a hint that would. *)
let[@inline] rooted h r = r.gp <> None || r.p == h.hroot

(* Line 40: flag gp, mark p (p leaves the trie), and swing gp's child
   from p to node's sibling.  [None] when gp is absent: that can only be
   observed transiently, since a real key's leaf always has an internal
   proper ancestor besides the root (the sentinel on its side shares
   that subtree), or when [new_flag] fails. *)
let delete_flag t h r v =
  assert (rooted h r);
  match (r.gp, r.gp_info) with
  | Some gp, Some gp_info ->
      let node_sibling = child r.p (not (K.bit (label r.p) v)) in
      swing_flag t h ~nodes:[| gp; r.p |] ~infos:[| gp_info; r.p_info |] gp
        (Any r.p) node_sibling
  | _ -> None

let delete t k =
  let v = K.import t.ctx k in
  let stats = t.stats in
  let rec attempt bo n =
    bump stats (fun s -> s.attempts);
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew ~need_gp:true t h v with
    | None ->
        attempt_retry stats Obs.Trace.Delete ~key:v ~attempt:n ~t0 Conflict;
        attempt (retry_pause stats bo) (n + 1)
    | Some r -> (
        descent stats (fun s -> s.descent_delete) r.depth;
        if not (key_in_trie r.node v r.rmvd) then
          attempt_done Obs.Trace.Delete ~key:v ~attempt:n ~t0 ~site:"absent"
            false
        else
          match delete_flag t h r v with
          | Some fi when run_own t fi ->
              attempt_done Obs.Trace.Delete ~key:v ~attempt:n ~t0
                ~site:"applied" true
          | Some _ ->
              attempt_retry stats Obs.Trace.Delete ~key:v ~attempt:n ~t0
                Flag_cas_lost;
              attempt (retry_pause stats bo) (n + 1)
          | None ->
              attempt_retry stats Obs.Trace.Delete ~key:v ~attempt:n ~t0
                (match r.gp_info with
                | Some gp_info -> retry_cause2 gp_info r.p_info
                | None -> Conflict);
              attempt (retry_pause stats bo) (n + 1))
  in
  attempt Chaos.Backoff.init 1

(* ------------------------------------------------------------------ *)
(* replace (lines 42-71) *)

(* The flag descriptor of a replace of [vd] by [vi] whose searches ended
   at [rd] and [ri] (lines 48-70), or [None] if the attempt must
   restart. *)
let replace_flag t h rd ri vd vi node_info_i =
  assert (rooted h rd);
  let node_sibling_d = child rd.p (not (K.bit (label rd.p) vd)) in
  let node_d = rd.node and node_i = ri.node in
  let pd = rd.p and pi = ri.p in
  let leaf_d =
    match node_d with Any (Leaf _ as l) -> l | Any (Internal _) -> assert false
  in
  let node_i_is_gpd =
    match rd.gp with Some gp -> node_i == Any gp | None -> false
  in
  if
    rd.gp <> None
    && node_i != node_d
    && node_i != Any pd
    && (not node_i_is_gpd)
    && not (pi == pd)
  then begin
    (* General case (lines 51-57): insert vi at pi, then delete vd's leaf
       by swinging gp_d — two child CASes, linearized at the first;
       noded is flagged as the logically-removed leaf in between. *)
    let gpd = Option.get rd.gp and gpd_info = Option.get rd.gp_info in
    let copy_i = copy_node ~gen:h.hgen node_i in
    match create_node t h copy_i (Any (new_leaf vi)) (Some node_info_i) with
    | None -> None
    | Some new_node_i -> (
        let unflag = [| gpd; pi |] and pnodes = [| pi; gpd |] in
        let old_children = [| node_i; Any pd |]
        and new_children = [| Any new_node_i; node_sibling_d |] in
        match node_i with
        | Any (Internal _ as i) ->
            new_flag t h ~nodes:[| gpd; pd; pi; i |]
              ~infos:[| gpd_info; rd.p_info; ri.p_info; node_info_i |]
              ~unflag ~pnodes ~old_children ~new_children
              ~rmv_leaf:(Some leaf_d)
        | Any (Leaf _) ->
            new_flag t h ~nodes:[| gpd; pd; pi |]
              ~infos:[| gpd_info; rd.p_info; ri.p_info |]
              ~unflag ~pnodes ~old_children ~new_children
              ~rmv_leaf:(Some leaf_d))
  end
  else if node_i == node_d then
    (* Special case 1 (lines 58-59): both searches ended at vd's leaf;
       replace it by a fresh leaf containing vi. *)
    swing_flag t h ~nodes:[| pd |] ~infos:[| rd.p_info |] pd node_i
      (Any (new_leaf vi))
  else if
    (node_i == Any pd
    && match rd.gp with Some gp -> pi == gp | None -> false)
    || (rd.gp <> None && pi == pd)
  then begin
    (* Special cases 2 and 3 (lines 60-64): the insertion point is pd
       itself (or shares it), and pd is removed by the deletion; one CAS
       replaces pd by a new node built from noded's sibling and the new
       leaf. *)
    let gpd = Option.get rd.gp and gpd_info = Option.get rd.gp_info in
    let sib_info = Atomic.get (node_info node_sibling_d) in
    match
      create_node t h node_sibling_d (Any (new_leaf vi)) (Some sib_info)
    with
    | None -> None
    | Some new_node_i ->
        swing_flag t h ~nodes:[| gpd; pd |] ~infos:[| gpd_info; rd.p_info |] gpd
          (Any pd) (Any new_node_i)
  end
  else if node_i_is_gpd then begin
    (* Special case 4 (lines 65-70): the insertion replaces gp_d, which
       the deletion also restructures; one CAS replaces gp_d by a new
       two-level node built from the two siblings and the new leaf. *)
    let gpd = Option.get rd.gp in
    let p_sibling_d = child gpd (not (K.bit (label gpd) vd)) in
    match create_node t h node_sibling_d p_sibling_d None with
    | None -> None
    | Some new_child_i -> (
        match
          create_node t h (Any new_child_i) (Any (new_leaf vi)) None
        with
        | None -> None
        | Some new_node_i ->
            swing_flag t h ~nodes:[| pi; gpd; pd |]
              ~infos:[| ri.p_info; Option.get rd.gp_info; rd.p_info |]
              pi node_i (Any new_node_i))
  end
  else None

let replace_keys t vd vi =
  let stats = t.stats in
  let rec attempt bo n =
    bump stats (fun s -> s.attempts);
    let t0 = span_start () in
    let h = Atomic.get t.holder in
    match search_renew ~need_gp:true t h vd with
    | None -> retry bo n t0 Conflict
    | Some rd -> (
        descent stats (fun s -> s.descent_replace) rd.depth;
        if not (key_in_trie rd.node vd rd.rmvd) then
          attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0 ~site:"absent"
            false
        else
          match search_renew ~need_gp:false t h vi with
          | None -> retry bo n t0 Conflict
          | Some ri -> (
              descent stats (fun s -> s.descent_replace) ri.depth;
              if key_in_trie ri.node vi ri.rmvd then
                attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0
                  ~site:"present" false
              else
                let node_info_i = Atomic.get (node_info ri.node) in
                match replace_flag t h rd ri vd vi node_info_i with
                | Some fi when run_own t fi ->
                    attempt_done Obs.Trace.Replace ~key:vd ~attempt:n ~t0
                      ~site:"applied" true
                | Some _ -> retry bo n t0 Flag_cas_lost
                | None ->
                    (* Recover the cause from every info value this
                       attempt read; [new_flag]'s [None] collapses
                       help-and-restart and read-read conflicts into one
                       constructor. *)
                    retry bo n t0
                      (if
                         flagged node_info_i || flagged rd.p_info
                         || flagged ri.p_info
                         ||
                         match rd.gp_info with
                         | Some i -> flagged i
                         | None -> false
                       then Flagged_ancestor
                       else Conflict)))
  and retry bo n t0 cause =
    attempt_retry stats Obs.Trace.Replace ~key:vd ~attempt:n ~t0 cause;
    attempt (retry_pause stats bo) (n + 1)
  in
  attempt Chaos.Backoff.init 1

(* replace(v, v) is always false: the sequential specification requires
   [remove] present *and* [add] absent, which a single key cannot satisfy. *)
let replace t ~remove ~add =
  let vd = K.import t.ctx remove and vi = K.import t.ctx add in
  if K.equal_key vd vi then false else replace_keys t vd vi

(* ------------------------------------------------------------------ *)
(* Quiescent traversals and invariant checking (test/debug interface) *)

(* In-order traversal of the current leaves.  Like the Ctrie paper's
   snapshot-free iterator this is weakly consistent: each leaf is
   observed at the moment the traversal reaches it, so the view is a
   union of states the trie passed through, exact in quiescence.
   Children are visited in label order, so keys come out ascending. *)
let fold t ~init ~f =
  let c = t.ctx in
  let rec go acc = function
    | Any (Leaf l as n) ->
        if K.is_sentinel c l.key || logically_removed (Atomic.get (info_cell n))
        then acc
        else f acc (K.export c l.key)
    | Any (Internal i) -> go (go acc i.c0) i.c1
  in
  go init (Any (Atomic.get t.holder).hroot)

let size t = fold t ~init:0 ~f:(fun acc _ -> acc + 1)

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

type view = { vctx : K.ctx; vepoch : int; vroot : internal }

let snapshot t =
  let rec attempt () =
    let h = Atomic.get t.holder in
    let root = h.hroot in
    match Atomic.get (iinfo root) with
    | (Flag _ | Snap _) as fi ->
        ignore (help fi);
        attempt ()
    | Dead -> assert false (* a root is never removed *)
    | (Clean | Unflag _) as ri ->
        let gen' = ref () in
        let root' = copy_internal ~gen:gen' root in
        let h' = new_holder ~epoch:(h.epoch + 1) ~gen:gen' root' t.no_cache in
        let si = Snap { s_old = h; s_new = h'; s_cell = t.holder } in
        if Atomic.compare_and_set (iinfo root) ri si then begin
          (* If this holder CAS fails, a concurrent snapshot already
             superseded [h] — then [h] is frozen all the same and this
             call linearizes at that snapshot's swing. *)
          ignore (Atomic.compare_and_set t.holder h h');
          chaos_point Chaos.Snap_swing;
          ignore (Atomic.compare_and_set (iinfo root) si (fresh_unflag ()));
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
  { vctx = t.ctx; vepoch = h.epoch; vroot = h.hroot }

module View = struct
  type t = view

  let epoch v = v.vepoch

  (* Frozen walk: info fields are ignored (see above) — every reachable
     non-sentinel leaf is an element of the frozen set. *)
  let fold v ~init ~f =
    let c = v.vctx in
    let rec go acc = function
      | Any (Leaf l) ->
          if K.is_sentinel c l.key then acc else f acc (K.export c l.key)
      | Any (Internal i) -> go (go acc i.c0) i.c1
    in
    go init (Any v.vroot)

  let size v = fold v ~init:0 ~f:(fun acc _ -> acc + 1)
end

(* ------------------------------------------------------------------ *)
(* Counters *)

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
          flagged_ancestor = Obs.Counter.sum s.flagged_ancestor;
          conflicts = Obs.Counter.sum s.conflicts;
          child_cas_lost = Obs.Counter.sum s.child_cas_lost;
          backtracks = Obs.Counter.sum s.backtracks;
          descriptors_run = Obs.Counter.sum s.descriptors_run;
          backoff_waits = Obs.Counter.sum s.backoff_waits;
          descent_nodes_find = Obs.Counter.sum s.descent_find;
          descent_nodes_insert = Obs.Counter.sum s.descent_insert;
          descent_nodes_delete = Obs.Counter.sum s.descent_delete;
          descent_nodes_replace = Obs.Counter.sum s.descent_replace;
          descent_searches = Obs.Counter.sum s.descent_searches;
          renewals = Obs.Counter.sum s.renewals;
          renew_paths = Obs.Counter.sum s.renew_paths;
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
    ("flagged_ancestor", s.flagged_ancestor);
    ("conflicts", s.conflicts);
    ("child_cas_lost", s.child_cas_lost);
    ("backtracks", s.backtracks);
    ("descriptors_run", s.descriptors_run);
    ("backoff_waits", s.backoff_waits);
    ("descent_nodes_find", s.descent_nodes_find);
    ("descent_nodes_insert", s.descent_nodes_insert);
    ("descent_nodes_delete", s.descent_nodes_delete);
    ("descent_nodes_replace", s.descent_nodes_replace);
    ("descent_searches", s.descent_searches);
    ("renewals", s.renewals);
    ("renew_paths", s.renew_paths);
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
   sentinel properties), plus the quiescence condition the chaos suite
   audits after every fault-injection scenario: no residual flags on any
   reachable node (every descriptor must have been completed or backed
   out, including on behalf of stalled processes).  Each node must lie
   in the half of its parent's span its child slot stands for, so every
   internal label strictly extends its parent's plus the branch bit and
   the leaves come out in strictly ascending key order.  Only
   meaningful in quiescent states. *)
let check_invariants t =
  let c = t.ctx in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let rec go path node =
    (match (Atomic.get (node_info node), node) with
    | (Clean | Unflag _), _ -> ()
    | Snap _, _ -> err "residual snapshot descriptor on reachable node"
    | Dead, Any (Leaf l) -> err "dead mark on reachable leaf %a" K.pp_key l.key
    | Dead, Any (Internal i) ->
        err "dead mark on internal %a" (K.pp_label c) i.label
    | Flag _, Any (Leaf l) ->
        err "residual flag on reachable leaf %a" K.pp_key l.key
    | Flag _, Any (Internal i) ->
        err "residual flag on internal %a" (K.pp_label c) i.label);
    match node with
    | Any (Leaf l) ->
        if not (K.within (K.key_span l.key) path) then
          err "leaf %a outside its parent's half" K.pp_key l.key
    | Any (Internal i) ->
        if not (K.within (K.label_span i.label) path) then
          err "internal %a outside its parent's half" (K.pp_label c) i.label;
        go (K.half i.label false) i.c0;
        go (K.half i.label true) i.c1
  in
  let root = (Atomic.get t.holder).hroot in
  go (K.label_span (label root)) (Any root);
  (* The two sentinels must always be logically in the trie (Lemma 62). *)
  let present k = key_in_trie (search_from root k).node k false in
  if not (present (K.sentinel_lo c)) then err "missing low sentinel";
  if not (present (K.sentinel_hi c)) then err "missing high sentinel";
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Shape census (Obs.Shape): weakly-consistent walk like [fold], exact
   in quiescence.  Per-node word estimates, 64-bit layout:

     internal:  block 6 (header, iinfo, label, c0, c1, gen) = 6
     leaf:      block 3 (header, linfo, key)                = 3

   plus 2 for a node whose info field holds an Unflag (a one-field
   mutable block; [Clean] is immediate, and a leaf is never unflagged),
   plus whatever a boxed label or key adds ([K.label_words],
   [K.key_words]; nothing for PAT's immediate ints).  [Any] is unboxed
   and the children are plain fields, so a child field points at the
   child's own block.  [measured_words] cross-checks the estimate with
   [Obj.reachable_words] from the root: in a quiescent trie with one
   generation the two differ by exactly the 2-word [hgen] ref the nodes
   share, and after snapshots the walk also charges the older
   generations' stamps and counts label blocks shared by a renewed node
   and its original once.

   The live generation's level cache is counted on both sides: its
   record (3 words) and its array (a header and one word per slot),
   estimated from the slot count and measured from the blocks' own
   headers.  The nodes it points at are the trie's, except the dummy
   (one node per trie, not counted) and, briefly, a node removed since
   a descent wrote it back. *)
let internal_words = 6
let leaf_words = 3
let info_words = function Unflag _ -> 2 | Clean | Dead | Flag _ | Snap _ -> 0

let census t =
  let c = t.ctx in
  let a = Obs.Shape.acc ~structure:name in
  let rec go depth node =
    match node with
    | Any (Leaf l as n) ->
        let li = Atomic.get (info_cell n) in
        let sentinel = K.is_sentinel c l.key in
        let keys = if sentinel || logically_removed li then 0 else 1 in
        Obs.Shape.leaf a ~depth ~keys ~sentinel
          ~words:(leaf_words + info_words li + K.key_words l.key)
    | Any (Internal i as n) ->
        Obs.Shape.internal a ~depth
          ~prefix_len:(K.label_length c i.label)
          ~children:2
          ~words:
            (internal_words
            + info_words (Atomic.get (info_cell n))
            + K.label_words i.label);
        go (depth + 1) i.c0;
        go (depth + 1) i.c1
  in
  let h = Atomic.get t.holder in
  go 0 (Any h.hroot);
  let lc = h.hcache in
  let cache_words = 3 + 1 + Array.length lc.slots in
  Obs.Shape.extra_words a cache_words;
  let block_words x = Obj.size (Obj.repr x) + 1 in
  let measured_words =
    Obj.reachable_words (Obj.repr h.hroot)
    + block_words lc + block_words lc.slots
  in
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
    let v = K.import t.ctx k in
    let h = Atomic.get t.holder in
    let r = search_root t v in
    if key_in_trie r.node v r.rmvd then None
    else insert_flag t h r v (Atomic.get (node_info r.node))

  (* Run one delete attempt up to descriptor creation without applying
     it.  Returns None if the key is absent or the attempt would have
     restarted. *)
  let prepare_delete t k =
    let v = K.import t.ctx k in
    let h = Atomic.get t.holder in
    let r = search_root t v in
    if not (key_in_trie r.node v r.rmvd) then None else delete_flag t h r v

  (* Perform only the flagging phase of a descriptor, simulating a
     process that dies between flagging and the child CAS. *)
  let flag_only fi =
    match fi with
    | Flag f -> flag_phase fi f
    | Clean | Dead | Unflag _ | Snap _ ->
        invalid_arg "flag_only: not a Flag descriptor"

  (* Fix the level cache at [2^bits] slots ([Some 0]: none) from the
     next sampled descent of every generation, or return it to sizing
     itself ([None]).  The live generation's cache is replaced now. *)
  let set_cache_bits t bits =
    match bits with
    | None -> t.fixed_bits <- -1
    | Some b ->
        let b = max 0 (min b (min cache_cap (K.max_bits t.ctx))) in
        t.fixed_bits <- b;
        install_cache t (Atomic.get t.holder) b

  let cache_bits t = (Atomic.get t.holder).hcache.bits

  let counters t = Option.map stats_to_alist (stats_snapshot t)

  (* Count of nodes currently flagged or marked [Dead] along the search
     path of [v] from [root]. *)
  let flags_from root v =
    let mark = function Flag _ | Dead -> 1 | Clean | Unflag _ | Snap _ -> 0 in
    let rec go acc (node : node) =
      match node with
      | Any (Leaf _ as l) -> acc + mark (Atomic.get (info_cell l))
      | Any (Internal r as i) ->
          let acc = acc + mark (Atomic.get (iinfo i)) in
          if K.is_prefix r.label v then
            go acc (child i (K.bit r.label v))
          else acc
    in
    go 0 (Any root)

  let flags_on_path t k = flags_from (Atomic.get t.holder).hroot (K.import t.ctx k)

  (* Each node on the search path of [k], root first, with the value its
     info cell reads and its other fields read by name, in declaration
     order: the layout test checks that the cell is field 0 and the
     named fields fill the rest. *)
  let layout_on_path t k =
    let v = K.import t.ctx k in
    let rec go acc node =
      let cell = Obj.repr (Atomic.get (node_info node)) in
      match node with
      | Any (Leaf l) ->
          List.rev ((Obj.repr node, cell, [ Obj.repr l.key ]) :: acc)
      | Any (Internal r as i) ->
          let named = Obj.[ repr r.label; repr r.c0; repr r.c1; repr r.gen ] in
          let acc = (Obj.repr node, cell, named) :: acc in
          if K.is_prefix r.label v then
            go acc (child i (K.bit r.label v))
          else List.rev acc
    in
    go [] (Any (Atomic.get t.holder).hroot)

  (* Whether a node [layout_on_path] returned reads [Dead]: a committed
     update removed it. *)
  let is_dead n = Atomic.get (node_info (Obj.obj n : node)) == Dead

  (* [cas_child] on a node [layout_on_path] returned, for the test that
     pins which field each child bit writes. *)
  let cas_child n b old nc =
    cas_child (Obj.obj n : internal) b (Obj.obj old : node) (Obj.obj nc)

  (* The same count in a frozen view.  A path renewal leaves the nodes
     it copies unflagged, so only the nodes a committed update removed
     since the snapshot count here. *)
  let view_flags_on_path w k = flags_from w.vroot (K.import w.vctx k)

  (* Count of internal nodes the search path of [k] descends through
     that belong to an older generation than the live one: the stale
     run an update of [k] would renew. *)
  let stale_on_path t k =
    let v = K.import t.ctx k in
    let h = Atomic.get t.holder in
    let rec go acc (Internal r as i : internal) =
      let acc = if r.gen == h.hgen then acc else acc + 1 in
      match child i (K.bit r.label v) with
      | Any (Internal cr as c) when K.is_prefix cr.label v -> go acc c
      | _ -> acc
    in
    go 0 h.hroot
end
