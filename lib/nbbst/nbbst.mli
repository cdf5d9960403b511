(** Non-blocking binary search tree of Ellen, Fatourou, Ruppert & van
    Breugel (PODC 2010) — the "BST" baseline of the Patricia-trie
    paper's evaluation, and the origin of the flag/help coordination
    scheme the trie generalizes.

    Leaf-oriented: elements live in leaves, internal nodes are routing
    keys, every internal node has exactly two children.  [insert] and
    [delete] are lock-free; [member] is read-only (but not wait-free in
    general, since the tree is unbalanced and updates may lengthen the
    search path unboundedly — one of the contrasts the paper draws). *)

type t

val name : string
(** ["BST"]. *)

val create : universe:int -> unit -> t
(** An empty set over keys [\[0, universe)]; [universe] and
    [universe + 1] act as the paper's sentinel keys inf1 < inf2. *)

val insert : t -> int -> bool
(** Adds the key; [true] iff it was absent.  Lock-free. *)

val delete : t -> int -> bool
(** Removes the key; [true] iff it was present.  Lock-free. *)

val member : t -> int -> bool
(** Read-only search. *)

val to_list : t -> int list
(** Sorted contents (quiescent accuracy). *)

val size : t -> int

val check_invariants : t -> (unit, string) result
(** Leaf-oriented BST order: every leaf and routing key within the key
    interval induced by its ancestors. *)

val census : t -> Dset_intf.census option
(** Always [None] — the explicit "unsupported" marker of the registry's
    shape-census capability; this baseline has no census walker. *)

val descent_stats : t -> (string * int) list option
(** Always [None] — descent-cost accounting is not wired into this
    baseline's search loop. *)

val snapshot : t -> Dset_intf.view option
(** Always [None] — the explicit "unsupported" marker of the atomic
    snapshot capability; this baseline's weakly-consistent traversals
    cannot masquerade as a frozen linearizable view. *)

(** Hooks for tests only. *)
module For_testing : sig
  val insert_with_late_helper : t -> int -> bool * (unit -> unit)
  (** [insert_with_late_helper t k] is [insert t k] paired with a replay
      of a helper that read the winning insert's IFlag record and then
      stalled: calling the replay runs that helper's child CAS and unflag
      CAS.  The replay does nothing when the insert returned [false]. *)
end
