(* Table-driven reflected CRC-32 with slicing-by-8; see crc.mli.

   Each polynomial has 8 tables of 256 entries, one flat array: table
   [j] (entries [256 j .. 256 j + 255]) is the CRC of a byte followed by
   [j] zero bytes, so eight bytes fold into the state with eight
   independent lookups instead of a chain of eight dependent ones
   (Kounavis and Berry, "A Systematic Approach to Building High
   Performance Software-based CRC Generators", ISCC 2005).  Table 0 is
   the classic byte-wise table, which the reference loop uses.  Built
   once at module init, 16 KiB per polynomial. *)

let make_tables poly =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := poly lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for j = 1 to 7 do
    for n = 0 to 255 do
      let c = t.((256 * (j - 1)) + n) in
      t.((256 * j) + n) <- (c lsr 8) lxor t.(c land 0xFF)
    done
  done;
  t

(* Reflected forms of the generator polynomials. *)
let tables_ieee = make_tables 0xEDB88320
let tables_castagnoli = make_tables 0x82F63B78

let mask32 = 0xFFFFFFFF

let check b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc: offset/length outside buffer"

(* Standard reflected update: init and final state are the checksum's
   one's complement, so incremental calls compose. *)

(* One byte at a time through table 0. *)
let bytewise t init b ~off ~len =
  check b ~off ~len;
  let c = ref (init lxor mask32) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor mask32

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)
let[@inline] look t j x = Array.unsafe_get t ((256 * j) + (x land 0xFF))

(* Eight bytes per step, then the last [len mod 8] one at a time.  The
   first four bytes of a step are xored into the state (least
   significant first, as the reflected CRC reads them), the other four
   enter their tables directly. *)
let sliced t init b ~off ~len =
  check b ~off ~len;
  let c = ref (init lxor mask32) and i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let x =
      !c
      lxor (byte b p
           lor (byte b (p + 1) lsl 8)
           lor (byte b (p + 2) lsl 16)
           lor (byte b (p + 3) lsl 24))
    in
    c :=
      look t 7 x
      lxor look t 6 (x lsr 8)
      lxor look t 5 (x lsr 16)
      lxor look t 4 (x lsr 24)
      lxor look t 3 (byte b (p + 4))
      lxor look t 2 (byte b (p + 5))
      lxor look t 1 (byte b (p + 6))
      lxor look t 0 (byte b (p + 7));
    i := p + 8
  done;
  for p = stop8 to off + len - 1 do
    c := look t 0 (!c lxor byte b p) lxor (!c lsr 8)
  done;
  !c lxor mask32

let crc32 ?(crc = 0) b ~off ~len = sliced tables_ieee crc b ~off ~len
let crc32c ?(crc = 0) b ~off ~len = sliced tables_castagnoli crc b ~off ~len

let crc32c_bytewise ?(crc = 0) b ~off ~len =
  bytewise tables_castagnoli crc b ~off ~len

let crc32_string s =
  let b = Bytes.unsafe_of_string s in
  crc32 b ~off:0 ~len:(Bytes.length b)

let crc32c_string s =
  let b = Bytes.unsafe_of_string s in
  crc32c b ~off:0 ~len:(Bytes.length b)
