(** Pure-OCaml CRC-32 checksums shared by the durability layer.

    Both the WAL record framing and the checkpoint image trailer
    ({!Wal}, {!Checkpoint}) validate their bytes with the same
    implementation, so a torn or bit-rotted file is detected by one
    well-tested primitive rather than two ad-hoc ones.

    Two standard reflected polynomials are provided:

    - {!crc32}: CRC-32/ISO-HDLC (IEEE 802.3, polynomial [0xEDB88320]
      reflected) — the zlib/PNG/Ethernet checksum.  Check vector:
      [crc32_string "123456789" = 0xCBF43926].
    - {!crc32c}: CRC-32C (Castagnoli, polynomial [0x82F63B78]
      reflected) — the iSCSI/ext4/LevelDB checksum, better error
      detection at the record lengths a WAL writes.  Check vector:
      [crc32c_string "123456789" = 0xE3069283].

    The WAL and checkpoint formats use {!crc32c}.

    Checksums are returned as non-negative [int]s in [[0, 2^32)].  All
    functions are pure and never raise on any byte input; offsets and
    lengths outside the buffer raise [Invalid_argument]. *)

val crc32 : ?crc:int -> Bytes.t -> off:int -> len:int -> int
(** [crc32 b ~off ~len] is the CRC-32/ISO-HDLC of the [len] bytes of
    [b] starting at [off].  Pass the previous return value as [?crc] to
    checksum a logical stream incrementally:
    [crc32 ~crc:(crc32 a ~off ~len) b ~off ~len] equals the CRC of the
    concatenation. *)

val crc32c : ?crc:int -> Bytes.t -> off:int -> len:int -> int
(** Like {!crc32} with the Castagnoli polynomial.  Both fold eight bytes
    per step (slicing-by-8) and allocate nothing when called without
    [?crc]. *)

val crc32c_bytewise : ?crc:int -> Bytes.t -> off:int -> len:int -> int
(** {!crc32c} one byte per step through a single table: the reference
    the sliced loop is tested against. *)

val crc32_string : string -> int
(** [crc32_string s] is [crc32] over all of [s]. *)

val crc32c_string : string -> int
(** [crc32c_string s] is [crc32c] over all of [s]. *)
