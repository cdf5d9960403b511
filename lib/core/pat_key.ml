(* PAT's key module: the paper's fixed-width keys.  Pasted ahead of
   trie_body.ml to build the instance behind {!Patricia} (see dune).

   A key is a [width]-bit int.  A label, the first [len] bits of the keys
   below a node, is one immediate int

     m = ((bits lsl 1) lor 1) lsl (width - len - 1)

   — the label's bits followed by a marker 1 and zeros.  With the marker
   [low = m land (-m)], a key's next bit is [v land low <> 0], the label
   prefixes [v] iff [(v lxor m) lsr 1 < low] (the same as
   [(v lxor m) < 2 * low] without the overflow of the width-62 root), a
   subtree covers the keys [m - low .. m + low - 1], and an internal
   child's index under [m] is its own label's bit at [low].  A label is
   always shorter than the key width (Invariant 7), so [low] is never 0.
   None of these needs the width, so the descent reads it from nowhere. *)

module K = struct
  let name = "PAT"

  type ctx = {
    width : int;
    offset : int; (* a user key [k] is stored as [k + offset] *)
    bound : int; (* exclusive upper bound on user keys *)
  }

  type key = int
  type user = int
  type label = int

  let[@inline] low m = m land -m
  let root_label c = 1 lsl (c.width - 1)
  let sentinel_lo _ = 0
  let sentinel_hi c = (1 lsl c.width) - 1
  let is_sentinel c k = k = 0 || k = sentinel_hi c

  let import c k =
    let k' = k + c.offset in
    if k < 0 || k >= c.bound || k' < 1 || k' >= sentinel_hi c then
      invalid_arg "Patricia: key out of the universe"
    else k'

  let export c k = k - c.offset
  let equal_key (a : int) b = a = b
  let trace_key k = k
  let[@inline] bit m v = v land low m <> 0
  let[@inline] is_prefix m v = (v lxor m) lsr 1 < low m
  let[@inline] child_bit p c = c land low p <> 0

  let compare_label a b =
    let la = low a and lb = low b in
    if la = lb then Int.compare a b else Int.compare lb la

  (* The keys a node covers, [lo .. hi]: a single key for a leaf. *)
  type span = { lo : int; hi : int }

  let key_span k = { lo = k; hi = k }

  let label_span m =
    let l = low m in
    { lo = m - l; hi = m + l - 1 }

  let half m b =
    let l = low m in
    if b then { lo = m; hi = m + l - 1 } else { lo = m - l; hi = m - 1 }

  let within a b = b.lo <= a.lo && a.hi <= b.hi

  (* Two distinct keys first differ at bit [p]; their common prefix
     keeps the bits above [p] and puts its marker at [p].  Two disjoint
     spans share the prefix of their low ends. *)
  let key_lcp a b =
    let p = Bitkey.bit_length (a lxor b) - 1 in
    ((a lsr p) lor 1) lsl p

  let lcp a b = key_lcp a.lo b.lo

  let span_bit m s = s.lo land low m <> 0
  let label_length c m = c.width - Bitkey.bit_length (low m)

  (* The level cache indexes a key by its top [bits] bits; a label fits
     when it is at most [bits] long, i.e. its marker sits at or above bit
     [width - bits - 1].  Label 0 has no marker and prefixes no key. *)
  let[@inline] slot c bits v = v lsr (c.width - bits)
  let[@inline] fits c bits m = low m lsr (c.width - bits - 1) <> 0
  let max_bits c = c.width - 1
  let never _ = 0
  let key_words _ = 0
  let label_words _ = 0
  let pp_key = Format.pp_print_int

  let pp_label c fmt m =
    Bitkey.Label.pp fmt
      { bits = m lsr Bitkey.bit_length (low m); len = label_length c m }
end
