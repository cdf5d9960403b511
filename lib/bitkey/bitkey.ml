(** Bit-string keys for Patricia tries.

    The paper stores a set of l-bit binary strings.  We represent an l-bit
    string b1 b2 ... bl (b1 = most significant) as the integer whose binary
    expansion over [width] bits is that string.  Node labels — prefixes of
    keys — are represented by {!Label.t}: the prefix bits right-aligned in an
    int together with the prefix length.

    The module also provides the key encodings discussed in the paper:
    Morton interleaving of 2-D coordinates (Section I, the quadtree-like use
    of the trie for points in R^2) and the [0 -> 01, 1 -> 10, $ -> 11]
    encoding of unbounded-length binary strings (Section VI). *)

let max_width = 62

(** Number of bits needed to represent [n]; [bit_length 0 = 0].  Six
    halving shifts narrow [n] below 2 whatever its size: PAT computes
    one for every internal node it creates. *)
let bit_length n =
  if n < 0 then invalid_arg "Bitkey.bit_length: negative";
  let n = ref n and r = ref 0 in
  if !n lsr 32 <> 0 then begin n := !n lsr 32; r := 32 end;
  if !n lsr 16 <> 0 then begin n := !n lsr 16; r := !r + 16 end;
  if !n lsr 8 <> 0 then begin n := !n lsr 8; r := !r + 8 end;
  if !n lsr 4 <> 0 then begin n := !n lsr 4; r := !r + 4 end;
  if !n lsr 2 <> 0 then begin n := !n lsr 2; r := !r + 2 end;
  if !n lsr 1 <> 0 then begin n := !n lsr 1; r := !r + 1 end;
  !r + !n

(** [bit ~width k i] is the i-th bit of the width-bit string for [k],
    1-indexed from the most significant bit, as the paper counts bits. *)
let bit ~width k i =
  if i < 1 || i > width then invalid_arg "Bitkey.bit: index out of range";
  (k lsr (width - i)) land 1

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

module Label = struct
  (** The first [len] bits of some width-bit key, right-aligned in [bits]. *)
  type t = { bits : int; len : int }

  let empty = { bits = 0; len = 0 }

  let length t = t.len

  let of_key ~width k =
    if width < 1 || width > max_width then invalid_arg "Label.of_key: width";
    if k < 0 || k lsr width <> 0 then invalid_arg "Label.of_key: key out of range";
    { bits = k; len = width }

  (** Truncate a label to its first [len] bits. *)
  let prefix t len =
    if len < 0 || len > t.len then invalid_arg "Label.prefix: bad length";
    { bits = t.bits lsr (t.len - len); len }

  (** [is_prefix a b]: is the bit string of [a] a prefix of that of [b]? *)
  let is_prefix a b = a.len <= b.len && b.bits lsr (b.len - a.len) = a.bits

  let is_proper_prefix a b = a.len < b.len && is_prefix a b

  (** [is_prefix_of_key ~width t k]: is [t] a prefix of the width-bit key? *)
  let is_prefix_of_key ~width t k = t.len <= width && k lsr (width - t.len) = t.bits

  (** The bit of [k] that immediately follows prefix [t]: the (len+1)-th bit
      of [k].  This is the child direction the paper uses at an internal node
      whose label has length len (line 82 of the pseudocode). *)
  let next_bit_of_key ~width t k =
    if t.len >= width then invalid_arg "Label.next_bit_of_key: label too long";
    (k lsr (width - t.len - 1)) land 1

  (** The bit of label [b] that immediately follows prefix [t]. *)
  let next_bit t b =
    if t.len >= b.len then invalid_arg "Label.next_bit: not a proper prefix";
    (b.bits lsr (b.len - t.len - 1)) land 1

  (** Longest common prefix of two labels. *)
  let lcp a b =
    let n = min a.len b.len in
    let a' = a.bits lsr (a.len - n) and b' = b.bits lsr (b.len - n) in
    let common = n - bit_length (a' lxor b') in
    { bits = a' lsr (n - common); len = common }

  (** Append one bit to a label. *)
  let extend t b =
    if b <> 0 && b <> 1 then invalid_arg "Label.extend: bit";
    { bits = (t.bits lsl 1) lor b; len = t.len + 1 }

  let equal a b = a.len = b.len && a.bits = b.bits

  (** Order used to sort the nodes an update must flag (line 115): any total
      order works as long as every operation uses the same one; we use
      length-then-bits which is cheap and total on labels of reachable
      nodes (reachable labels are distinct by Lemma 9). *)
  let compare a b =
    match Int.compare a.len b.len with 0 -> Int.compare a.bits b.bits | c -> c

  let to_string t =
    String.init t.len (fun i ->
        if (t.bits lsr (t.len - 1 - i)) land 1 = 1 then '1' else '0')

  let pp fmt t = Format.fprintf fmt "%s" (if t.len = 0 then "ε" else to_string t)
end

(* ------------------------------------------------------------------ *)
(* Morton (Z-order) interleaving: a point (x, y) becomes the key whose
   bits alternate between the bits of x and y, so the trie behaves like
   a quadtree and [replace] moves a point atomically (paper Section I). *)

let interleave2 ~coord_bits x y =
  if coord_bits < 1 || 2 * coord_bits > max_width then
    invalid_arg "Bitkey.interleave2: coord_bits";
  if x < 0 || x lsr coord_bits <> 0 || y < 0 || y lsr coord_bits <> 0 then
    invalid_arg "Bitkey.interleave2: coordinate out of range";
  let rec go acc i =
    if i < 0 then acc
    else
      let acc = (acc lsl 2) lor (((x lsr i) land 1) lsl 1) lor ((y lsr i) land 1) in
      go acc (i - 1)
  in
  go 0 (coord_bits - 1)

let deinterleave2 ~coord_bits key =
  if coord_bits < 1 || 2 * coord_bits > max_width then
    invalid_arg "Bitkey.deinterleave2: coord_bits";
  let rec go x y i =
    if i < 0 then (x, y)
    else
      let pair = (key lsr (2 * i)) land 3 in
      go ((x lsl 1) lor (pair lsr 1)) ((y lsl 1) lor (pair land 1)) (i - 1)
  in
  go 0 0 (coord_bits - 1)

(* ------------------------------------------------------------------ *)
(* Unbounded-length binary strings (paper Section VI): encode 0 as 01,
   1 as 10 and a terminating $ as 11.  Every encoded key is strictly
   between 00...0 and 11...1, so the two sentinel leaves never collide
   with real keys.  For a fixed-width trie we bound the string length
   and zero-pad after the terminator; padding preserves injectivity. *)

let string_width ~max_len = (2 * max_len) + 2

let encode_string ~max_len s =
  let n = String.length s in
  if n > max_len then invalid_arg "Bitkey.encode_string: string too long";
  let width = string_width ~max_len in
  let acc = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '0' -> acc := (!acc lsl 2) lor 0b01
      | '1' -> acc := (!acc lsl 2) lor 0b10
      | _ -> invalid_arg "Bitkey.encode_string: not a binary string")
    s;
  acc := (!acc lsl 2) lor 0b11;
  (* terminator $ *)
  !acc lsl (width - (2 * (n + 1)))

let decode_string ~max_len key =
  let width = string_width ~max_len in
  let buf = Buffer.create max_len in
  let rec go i =
    if i > max_len then invalid_arg "Bitkey.decode_string: missing terminator"
    else
      match (key lsr (width - (2 * (i + 1)))) land 3 with
      | 0b01 ->
          Buffer.add_char buf '0';
          go (i + 1)
      | 0b10 ->
          Buffer.add_char buf '1';
          go (i + 1)
      | 0b11 -> Buffer.contents buf
      | _ -> invalid_arg "Bitkey.decode_string: invalid encoding"
  in
  go 0

(* Re-export the variable-length bit strings of Section VI under the
   library's main module. *)
module Bitstr = Bitstr
