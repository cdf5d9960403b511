(** Non-blocking Patricia trie over variable-length keys — the
    Section-VI extension of the paper: node labels are arbitrary-length
    bit strings rather than l-bit words, so the trie stores unbounded
    strings.

    Keys are held under the [0 -> 01, 1 -> 10, $ -> 11] encoding, which
    makes distinct keys mutually prefix-free and strictly between the
    sentinel leaves [00] and [111].  The byte-string API below performs
    the encoding; the [_key] API takes pre-encoded {!Bitkey.Bitstr.t}
    values (useful to store raw binary strings).

    Updates are lock-free exactly as in {!Patricia}; searches terminate
    and are non-blocking but — as the paper points out — no longer
    wait-free, because the height is bounded only by the longest key
    currently stored. *)

type t

val name : string
(** ["PAT-VLK"]. *)

val create : ?record_stats:bool -> unit -> t
(** [create ()] is an empty trie.  [record_stats] enables the
    descent-cost counters behind {!descent_stats} and
    {!descent_summary} (striped per domain; small constant overhead,
    one untaken branch when disabled). *)

(** {1 Byte-string API} (keys are arbitrary {e non-empty} strings) *)

val insert : t -> string -> bool

val delete : t -> string -> bool
(** An insert, delete or replace that returns [false] writes nothing
    but its slot of the level cache, exactly as in {!Patricia.insert}:
    it builds no descriptor and renews no stale path. *)

val member : t -> string -> bool

val replace : t -> remove:string -> add:string -> bool
(** Atomic replace, exactly as in the fixed-width trie. *)

val to_list : t -> string list
(** Stored strings in encoded-key order (quiescent accuracy).  Only
    valid when every key was inserted through the byte-string API; keys
    inserted through the raw API with a different encoding make the
    decode raise. *)

val size : t -> int

type view
(** A frozen, immutable version of the trie — see {!Patricia.view}. *)

val snapshot : t -> view
(** [snapshot t] atomically freezes the current contents, O(1) in the
    key count, exactly as {!Patricia.snapshot}: the view contains the
    keys present at the snapshot's linearization point (the holder
    swing) and never observes later updates. *)

module View : sig
  type t = view

  val epoch : t -> int

  val fold : t -> init:'a -> f:('a -> string -> 'a) -> 'a
  (** Fold over the frozen byte-string keys in encoded-key order.  Only
      valid when every key was inserted through the byte-string API
      (like {!to_list}). *)

  val to_list : t -> string list
  val size : t -> int
end

val check_invariants : t -> (unit, string) result
(** Structural audit for quiescent states: label-prefix ordering
    (Invariant 7) and — like {!Patricia.check_invariants} — no residual
    flag on any reachable node, so a stalled update must have been
    completed or backed out by helpers.  Used by the fault-injection
    suite after every chaos scenario. *)

(** {1 Raw encoded-key API} *)

val insert_key : t -> Bitkey.Bitstr.t -> bool
val delete_key : t -> Bitkey.Bitstr.t -> bool
val member_key : t -> Bitkey.Bitstr.t -> bool
val replace_key : t -> Bitkey.Bitstr.t -> Bitkey.Bitstr.t -> bool

val load_ascending : t -> Bitkey.Bitstr.t array -> unit
(** {!Patricia.load_ascending} over encoded keys, strictly ascending in
    bit order (the trie's in-order order, which for prefix-free keys is
    [String.compare] on their data).  Same preconditions and the same
    [Invalid_argument]s. *)

(** {1 Structure forensics} *)

val census : t -> Dset_intf.census option
(** Shape census of the current trie: node counts by kind, exact
    leaf-depth / label-length (in bits) / branching distributions, and
    footprint — per-node layout estimate from the variable
    {!Bitkey.Bitstr} label lengths, cross-checked by
    [Obj.reachable_words].  Always [Some] for PAT-VLK.  Weakly
    consistent under concurrency; exact in quiescence. *)

val descent_stats : t -> (string * int) list option
(** Cumulative nodes visited per opcode plus the search count, exactly
    as {!Patricia.descent_stats}; [None] without [~record_stats:true]. *)

val descent_summary : t -> Obs.Histogram.summary option
(** Depth histogram of all recorded searches; [None] without
    [~record_stats:true]. *)

(** Test-only access to the coordination machinery, the same as
    {!Patricia.For_testing} over raw encoded keys: both tries are one
    algorithm, so the suites that stall an update mid-flight run on
    both. *)
module For_testing : sig
  type descriptor

  val prepare_insert : t -> Bitkey.Bitstr.t -> descriptor option
  val prepare_delete : t -> Bitkey.Bitstr.t -> descriptor option
  val flag_only : descriptor -> bool
  val help : descriptor -> bool
  val flags_on_path : t -> Bitkey.Bitstr.t -> int
  val layout_on_path : t -> Bitkey.Bitstr.t -> (Obj.t * Obj.t * Obj.t list) list
  val is_dead : Obj.t -> bool
  val cas_child : Obj.t -> bool -> Obj.t -> Obj.t -> bool
  val view_flags_on_path : view -> Bitkey.Bitstr.t -> int
  (** {!flags_on_path} in a frozen view, as {!Patricia.For_testing}'s:
      renewed nodes read unflagged there, removed ones do not. *)

  val stale_on_path : t -> Bitkey.Bitstr.t -> int
  val set_cache_bits : t -> int option -> unit
  val cache_bits : t -> int

  val counters : t -> (string * int) list option
  (** Every counter of a trie created with [~record_stats:true], named
      as in {!Patricia.stats_to_alist} (helps received, backtracks,
      renewals, ...); [None] otherwise.  [renewals] and [renew_paths]
      count only the renewals of committing updates, as PAT's do. *)
end
