(** Non-blocking Patricia trie with an atomic replace operation.

    OCaml implementation of N. Shafiei, {e Non-blocking Patricia Tries with
    Replace Operations}, ICDCS 2013 (arXiv:1303.3626).

    The trie stores a linearizable set of integer keys.  {!insert},
    {!delete} and {!replace} are lock-free; {!find}/{!member} is wait-free
    and never writes to the trie.  {!replace} removes one key and
    inserts another {e atomically}: both changes become visible at a single
    linearization point, the first successful child CAS.  Updates operating
    on disjoint parts of the trie run completely concurrently.

    Every search may start below the root.  Each generation of the trie
    (see {!snapshot}) can hold a level cache: an array of hints, indexed
    by a key's leading bits, to the deepest internal node a search for a
    key with those bits has passed.  A search starts at its slot's hint
    only after reading the hint unflagged with a label that prefixes the
    key, and at the root otherwise; the trie, not the cache, is the
    source of truth, and the cache changes no result.  It is sized from
    the generation's own descents (one slot per 4 to 8 keys, at most
    [2^16] slots) and not allocated for a generation that does few.

    All operations may be called from any number of domains. *)

type t
(** A concurrent Patricia trie. *)

val name : string
(** ["PAT"], the label used in the paper's charts. *)

val create : universe:int -> ?record_stats:bool -> unit -> t
(** [create ~universe ()] is an empty trie accepting keys in
    [\[0, universe)].  Internally keys are embedded into [l]-bit strings
    with [l = ceil(log2 (universe + 2))]; the all-zeros and all-ones
    strings are reserved for the two permanent sentinel leaves (paper
    Section III-A).  [record_stats] enables the retry/help counters
    reported by {!stats_snapshot} (small constant overhead).

    @raise Invalid_argument if [universe < 1]. *)

val create_width : width:int -> ?record_stats:bool -> unit -> t
(** [create_width ~width ()] is a trie over raw [width]-bit keys; valid
    keys are [1 .. 2^width - 2] (the extremes are the sentinels).  Use
    this when the bit structure of keys matters, e.g. for Morton-encoded
    points or the Section-VI string encoding.

    @raise Invalid_argument unless [2 <= width <= 62]. *)

val load_ascending : t -> int array -> unit
(** [load_ascending t keys] fills [t] with [keys], which must be
    strictly ascending and in the universe, and [t] fresh from {!create}
    or {!create_width}: empty, never updated or snapshotted, and not yet
    shared with another domain.  The trie is built bottom-up in one O(n)
    pass over adjacent keys' common prefixes, with no search,
    descriptor or CAS; it is the trie the same keys inserted one by one
    would build.  Store recovery loads the recovered keys this way.

    @raise Invalid_argument on a key out of the universe, a duplicate or
    descending key, or a trie that is not fresh; [t] is left as it
    was. *)

val insert : t -> int -> bool
(** [insert t v] adds [v] and returns [true], or returns [false] if [v]
    was already present.  Lock-free.  An insert, delete or replace that
    returns [false] is decided on its search, as {!member} is, and
    writes nothing but its slot of the level cache: it builds no
    descriptor and, after a {!snapshot}, renews no stale path.  (If a
    concurrent update changes its answer after it renewed a path to
    commit, it returns [false] with that renewal made.) *)

val delete : t -> int -> bool
(** [delete t v] removes [v] and returns [true], or returns [false] if
    [v] was absent.  Lock-free; [false] writes nothing, as for
    {!insert}. *)

val replace : t -> remove:int -> add:int -> bool
(** [replace t ~remove ~add] atomically removes [remove] and inserts
    [add].  Returns [true] iff [remove] was present and [add] absent at
    the linearization point; otherwise the trie is unchanged and the
    result is [false], and the call wrote nothing, as for {!insert}.
    [replace t ~remove:v ~add:v] is always [false].  Lock-free; performs at most two child CASes (one in the special
    cases of Figure 6). *)

val member : t -> int -> bool
(** [member t v] is [true] iff [v] is in the set.  Wait-free: it reads at
    most [l] child pointers and writes nothing but its slot of the
    level cache. *)

val to_list : t -> int list
(** Ascending list of the keys currently stored.  Accurate in quiescent
    states; during concurrent updates it is a consistent-enough audit
    view used by tests. *)

val size : t -> int
(** Number of keys stored (quiescent accuracy, like {!to_list}). *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** In-order (ascending-key) fold over the stored keys.  Like the Ctrie
    paper's snapshot-free iterator this traversal is weakly consistent
    under concurrency: every key it reports was present at the moment it
    was visited; it is exact in quiescent states. *)

val iter : t -> f:(int -> unit) -> unit

val min_elt : t -> int option
(** Smallest stored key, or [None] if empty.  Weakly consistent. *)

val max_elt : t -> int option
(** Largest stored key, or [None] if empty.  Weakly consistent. *)

val fold_range : t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Ascending fold over the stored keys within [\[lo, hi\]] (clamped to
    the universe), pruning every subtree whose label interval misses the
    range — the quadtree-style search behind the paper's GIS use case.
    Weakly consistent like {!fold}. *)

type view
(** A frozen, immutable version of the trie, produced by {!snapshot}.
    Reading a view costs nothing beyond the traversal itself and never
    interferes with concurrent writers. *)

val snapshot : t -> view
(** [snapshot t] atomically freezes the current contents and returns a
    view of them.  O(1) in the number of keys (plus a scan of the
    per-domain descriptor slots): the trie root sits behind a
    generation-stamped holder; the snapshot installs a one-node
    descriptor on the root, swings the holder to a fresh-generation
    copy, and resolves every published update descriptor so the frozen
    generation is physically complete before returning.  The
    linearization point is the holder swing: the view contains exactly
    the keys for which a successful insert linearized before it and no
    successful delete/replace-removal did.  Subsequent updates pay a
    one-time copy of each internal node they first descend through in
    the new generation (copy-on-descent), within that same descent;
    {!member} is unaffected.
    Lock-free; any number of snapshots may run concurrently with any
    number of updates. *)

(** Reading frozen views.  All traversals are exact with respect to the
    snapshot's linearization point and never observe later updates. *)
module View : sig
  type t = view

  val epoch : t -> int
  (** Generation number of the view: 0 for a fresh trie, incremented by
      every snapshot.  Two views of the same trie with the same epoch
      are the same frozen version. *)

  val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
  (** In-order (ascending-key) fold over the frozen keys. *)

  val fold_range : t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> 'a) -> 'a
  (** Ascending fold over the frozen keys within [\[lo, hi\]] (clamped
      to the universe), with the same subtree pruning as
      {!Patricia.fold_range}. *)

  val to_list : t -> int list
  (** Ascending list of the frozen keys. *)

  val size : t -> int

  val to_seq : t -> int Seq.t
  (** Lazy ascending sequence over the frozen keys; safe to consume at
      any pace — the version it reads can never change. *)
end

val snapshot_capability : t -> Dset_intf.view option
(** {!snapshot} repackaged as the first-class optional capability record
    of the common signature — always [Some] for PAT.  Adapters that
    [include Core.Patricia] to satisfy [Dset_intf.CONCURRENT_SET] bind
    [let snapshot = snapshot_capability] instead of re-wrapping the view
    by hand. *)

val check_invariants : t -> (unit, string) result
(** Validate the structural invariants: Invariant 7 (a node's child label
    extends the node's label plus the branch bit), every internal node
    has two children, both sentinels are reachable, leaf keys are
    strictly ascending in traversal order, and — the quiescence audit
    the fault-injection suite relies on — no reachable node carries a
    residual flag (every update descriptor, including those of stalled
    processes, must have been run to completion or backed out by
    helpers).  Quiescent use. *)

(** Merged view of the contention counters at one point in time.  The
    live counters are striped per domain ([Obs.Counter]); a snapshot
    sums the stripes, so it is exact in quiescent states and a
    consistent-enough view during concurrent updates. *)
type snapshot = {
  attempts : int;  (** retry-loop iterations across all updates *)
  helps_given : int;
      (** times an update helped {e another} operation's pending
          descriptor before retrying *)
  helps_received : int;
      (** flag CASes lost because a helper had already installed the
          same descriptor — how often this trie's updates were helped *)
  flag_failures : int;
      (** attempts abandoned because a flag CAS lost (paper lines
          87-92) *)
  flagged_ancestor : int;
      (** attempts restarted after helping a pending descriptor they read
          (lines 109-111) *)
  conflicts : int;
      (** attempts restarted with no descriptor to help: a [createNode]
          prefix clash, or a node whose info changed between two reads.
          Every failed attempt is counted once, under one of these three
          causes: [attempts] = updates + [flag_failures] +
          [flagged_ancestor] + [conflicts], where a [replace] of a key by
          itself makes no attempt *)
  child_cas_lost : int;
      (** child CASes whose expected old child was already gone: a
          helper or a conflicting update got there first *)
  backtracks : int;
      (** failed flag phases backed out inside [help] (paper lines
          103-106) *)
  descriptors_run : int;
      (** entries to [help] on an update descriptor: each update's own
          run plus every help of a pending one *)
  backoff_waits : int;
      (** retries that paused in the contention backoff — always [0]
          unless [Chaos.Backoff.set_enabled true]
          ([patbench --backoff]) *)
  descent_nodes_find : int;
      (** nodes visited by [member] searches (root's child = 1 each) *)
  descent_nodes_insert : int;  (** nodes visited by insert-attempt searches *)
  descent_nodes_delete : int;  (** nodes visited by delete-attempt searches *)
  descent_nodes_replace : int;
      (** nodes visited by replace-attempt searches (two per attempt) *)
  descent_searches : int;
      (** completed searches — divide [descent_nodes_*] sums by this for
          the mean descent depth *)
  renewals : int;
      (** stale internal nodes that committed renewals copied into the
          live generation after a {!snapshot}.  Only an update that
          will commit renews, in a root descent of the same attempt, so
          this does not add to [attempts]; one that returns [false]
          copies nothing *)
  renew_paths : int;
      (** committed renewal descriptors, all made by committing
          updates: one renews a whole stale run of a path, so a renewal
          descent commits one per stale run it meets *)
}

val stats_snapshot : t -> snapshot option
(** The counters if the trie was created with [~record_stats:true].
    Recording is per-domain sharded: enabling stats does not introduce a
    shared CAS on the update hot path. *)

val stats_to_alist : snapshot -> (string * int) list
(** Stable [(name, value)] view of a snapshot, in declaration order —
    monotone cumulative counters only, so callers may difference two
    alists around a timed window; used by the metrics JSON emitters. *)

val descent_stats : t -> (string * int) list option
(** The descent-cost slice of {!stats_to_alist} (nodes visited per
    opcode plus the search count) — the uniform capability every
    registry structure answers; [None] when the trie records no stats. *)

val descent_summary : t -> Obs.Histogram.summary option
(** Depth histogram of all recorded searches (count/mean/p50/p90/p99 of
    nodes visited).  [None] without [~record_stats:true]. *)

val census : t -> Dset_intf.census option
(** Shape census of the current trie: node counts by kind, exact
    leaf-depth / label-length / branching distributions, and footprint
    (layout estimate cross-checked by [Obj.reachable_words]).  Always
    [Some] for PAT.  Weakly consistent like {!fold}; exact in
    quiescence. *)

(** Test-only access to the coordination machinery.  These entry points
    let the test-suite create an update descriptor, apply only its
    flagging phase (simulating a process that stops mid-update), and have
    other operations or an explicit {!For_testing.help} complete it —
    exercising the non-blocking property of Section IV part 4. *)
module For_testing : sig
  type descriptor

  val prepare_insert : t -> int -> descriptor option
  (** Run one insert attempt up to descriptor creation without applying
      it.  [None] if the attempt would have restarted (conflict) or the
      key is already present. *)

  val prepare_delete : t -> int -> descriptor option
  (** Like {!prepare_insert} for a deletion: the descriptor flags the
      grandparent and parent of the key's leaf but is not applied. *)

  val flag_only : descriptor -> bool
  (** Perform only the flag CASes of the descriptor; returns the paper's
      [doChildCAS].  The caller then "crashes", leaving flags behind. *)

  val help : descriptor -> bool
  (** Complete (or back out) the update described by the descriptor,
      exactly as any helping process would. *)

  val flags_on_path : t -> int -> int
  (** Number of flagged or removed-marked nodes on the search path of a
      key — 0 in any quiescent state where no update died holding
      flags. *)

  val layout_on_path : t -> int -> (Obj.t * Obj.t * Obj.t list) list
  (** Each node on the search path of a key, root first, with the value
      its info word reads and its other fields read by name, in
      declaration order.  The info word is field 0 of every node and the
      named fields follow it, so for each [(n, i, fs)],
      [Obj.field n 0 == i] and field [j + 1] is element [j] of [fs]. *)

  val is_dead : Obj.t -> bool
  (** Whether a node from {!layout_on_path} is marked removed: a
      committed update took it out of the trie and replaced its
      descriptor with the immediate mark that stays for good. *)

  val cas_child : Obj.t -> bool -> Obj.t -> Obj.t -> bool
  (** [cas_child n b old nc]: the child CAS of the updates, on an
      internal node [n] from {!layout_on_path}: child [b] ([true] the
      right one) from [old] to [nc], by physical equality.  [true] iff
      it swapped. *)

  val view_flags_on_path : view -> int -> int
  (** {!flags_on_path} in a frozen view.  The live trie's renewals
      leave the stale nodes they copy unflagged, so a node of the view
      renewed since the snapshot does not count here; one a committed
      update removed since does. *)

  val stale_on_path : t -> int -> int
  (** Number of internal nodes on the search path of a key that belong
      to a generation a {!snapshot} has frozen: the stale run an update
      of that key would renew with one descriptor. *)

  val set_cache_bits : t -> int option -> unit
  (** [set_cache_bits t (Some b)] fixes the level cache at [2^b] slots
      (clamped to what the key width allows; [Some 0] is no cache):
      the live generation gets a fresh, empty one now, and every later
      generation gets one at its first sampled descent.  [None] returns
      the trie to sizing its cache from its own descents. *)

  val cache_bits : t -> int
  (** [b] when the live generation's level cache has [2^b] slots; 0
      when it has none. *)
end
