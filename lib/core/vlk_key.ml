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
  let[@inline] bit l v = B.next_bit l v = 1
  let is_prefix = B.is_proper_prefix
  let child_bit = bit
  let compare_label = B.compare

  type span = B.t

  let key_span k = k
  let label_span l = l
  let half l b = B.extend l (if b then 1 else 0)
  let within a b = B.is_prefix b a
  let lcp = B.lcp
  let span_bit = bit
  let label_length () = B.length

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
