(** Immutable variable-length bit strings: the key and label type for
    the unbounded-key Patricia trie of the paper's Section VI, where
    node labels need not fit in a machine word.

    Values are packed bit sequences; all operations are by value (two
    equal bit sequences are {!equal} regardless of how they were
    built). *)

type t = private { data : string; len : int }
(** Bits packed MSB-first into [data], [len] of them; the pad bits of
    the last byte are zero.  Read-only, so that the trie's key module can
    inline its per-level bit tests instead of calling into this
    library. *)

val empty : t
val length : t -> int

val get : t -> int -> int
(** [get t i] is the (0-indexed) i-th bit.
    @raise Invalid_argument when out of range. *)

val make : int -> (int -> int) -> t
val of_string : string -> t
(** From a string over ['0']/['1']. *)

val to_string : t -> string
val equal : t -> t -> bool

val common_prefix_len : t -> t -> int
val is_prefix : t -> t -> bool
val is_proper_prefix : t -> t -> bool

val prefix : t -> int -> t
(** First [n] bits. *)

val lcp : t -> t -> t

val next_bit : t -> t -> int
(** [next_bit p b]: the bit of [b] just after proper prefix [p].
    @raise Invalid_argument unless [length p < length b]. *)

val append : t -> t -> t
val extend : t -> int -> t

val compare : t -> t -> int
(** A total order (length, then content) — used to sort the nodes an
    update must flag, keeping flagging deadlock-free. *)

val pp : Format.formatter -> t -> unit

(** {1 The Section-VI encoding}

    [0 -> 01], [1 -> 10], terminator [$ -> 11].  Encoded keys are
    mutually prefix-free and lie strictly between {!sentinel_lo} ([00])
    and {!sentinel_hi} ([111]), which therefore serve as the trie's two
    permanent dummy leaves.  The empty string is reserved (its encoding
    [11] would prefix [111]). *)

val sentinel_lo : t
val sentinel_hi : t

val encode_binary : string -> t
(** Encode a non-empty string over ['0']/['1'].
    @raise Invalid_argument on the empty string or other characters. *)

val decode_binary : t -> string

val encode_bytes : string -> t
(** Encode a non-empty arbitrary byte string (8 binary digits/byte). *)

val decode_bytes : t -> string
