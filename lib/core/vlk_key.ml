(* PAT-VLK's key module: the bit strings of unbounded length of the
   paper's Section VI.  Pasted ahead of trie_body.ml to build the
   instance behind {!Patricia_vlk} (see dune).

   Keys and labels are {!Bitkey.Bitstr} values.  Keys are stored under
   the 0->01 / 1->10 / $->11 encoding, which makes distinct keys
   mutually prefix-free and bounds them strictly between the sentinel
   leaves 00 and 111; a node's span is its label itself. *)

module K = struct
  module B = Bitkey.Bitstr

  let name = "PAT-VLK"

  type ctx = unit
  type key = B.t
  type user = B.t
  type label = B.t

  let root_label () = B.empty
  let sentinel_lo () = B.sentinel_lo
  let sentinel_hi () = B.sentinel_hi
  let is_sentinel () k = B.equal k B.sentinel_lo || B.equal k B.sentinel_hi

  let import () v =
    if
      B.is_prefix v B.sentinel_lo
      || B.is_prefix B.sentinel_lo v
      || B.is_prefix v B.sentinel_hi
      || B.is_prefix B.sentinel_hi v
    then invalid_arg "Patricia_vlk: key collides with a sentinel"
    else v

  let export () v = v
  let equal_key = B.equal

  (* Bit-string keys are folded to an int for the trace's [key] field: a
     stable per-key tag, not a reversible encoding. *)
  let trace_key k = Hashtbl.hash k

  (* The two label tests of every descent level, written against the
     bit string's representation so they compile to code here rather
     than to calls of closures in another library. *)
  let[@inline] bit (l : B.t) (v : B.t) =
    if l.len >= v.len then invalid_arg "Bitstr.next_bit: not a proper prefix";
    Char.code (String.unsafe_get v.data (l.len lsr 3))
    land (0x80 lsr (l.len land 7))
    <> 0

  (* The first [n] bytes of [a] and [b] agree. *)
  let rec bytes_agree (a : string) (b : string) i n =
    i >= n || (String.unsafe_get a i = String.unsafe_get b i && bytes_agree a b (i + 1) n)

  (* [l] is a proper prefix of [v]: its whole bytes agree with [v]'s and
     so do the bits of its last, partial byte (pad bits are zero). *)
  let[@inline] is_prefix (l : B.t) (v : B.t) =
    l.len < v.len
    &&
    let n = l.len lsr 3 and r = l.len land 7 in
    bytes_agree l.data v.data 0 n
    && (r = 0
       || (Char.code (String.unsafe_get l.data n)
          lxor Char.code (String.unsafe_get v.data n))
          land (0xff00 lsr r)
          land 0xff
          = 0)

  let child_bit = bit
  let compare_label = B.compare

  type span = B.t

  let key_span k = k
  let label_span l = l
  let half l b = B.extend l (if b then 1 else 0)
  let within a b = B.is_prefix b a
  let lcp = B.lcp
  let key_lcp = B.lcp
  let span_bit = bit
  let label_length () = B.length

  (* The level cache indexes a key by its first [bits] symbols: one bit
     per encoded pair (the pair's first bit, which is the digit itself,
     or 1 for the terminator), so [bits] is at most 16 and the index
     comes from the key's first 4 bytes.  A label fits when it spans at
     most [bits] pairs.  The low sentinel 00 is a proper prefix of no
     key. *)
  let[@inline] byte (v : B.t) i =
    if i < String.length v.data then Char.code (String.unsafe_get v.data i)
    else 0

  let[@inline] slot () bits (v : B.t) =
    let x =
      ((byte v 0 lsl 24) lor (byte v 1 lsl 16) lor (byte v 2 lsl 8) lor byte v 3)
      lsr (32 - (2 * bits))
    in
    (* Keep each pair's first bit and pack them together. *)
    let y = (x lsr 1) land 0x55555555 in
    let y = (y lor (y lsr 1)) land 0x33333333 in
    let y = (y lor (y lsr 2)) land 0x0f0f0f0f in
    let y = (y lor (y lsr 4)) land 0x00ff00ff in
    (y lor (y lsr 8)) land 0xffff

  let[@inline] fits () bits (l : B.t) = l.len <= 2 * bits
  let max_bits () = 16
  let never () = B.sentinel_lo

  (* A {!Bitkey.Bitstr.t} record (3 words) plus its backing string
     block (header + padded data words).  Shared strings (the sentinels,
     [B.empty]) are counted once per node here; the census cross-checks
     with [Obj.reachable_words]. *)
  let bitstr_words b =
    let bytes = (B.length b + 7) / 8 in
    3 + 1 + ((bytes + 8) / 8)

  let key_words = bitstr_words
  let label_words = bitstr_words
  let pp_key = B.pp
  let pp_label () = B.pp
end
