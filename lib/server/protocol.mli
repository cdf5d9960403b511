(** Wire protocol of the patserve set server: length-prefixed binary
    frames carrying sequence-tagged requests and responses.

    {2 Framing}

    Every message — both directions — is one frame:

    {v
    u32be payload_length | payload
    v}

    [payload_length] must be in [[5, max_frame_payload]]; anything else
    is a protocol error and the connection is no longer synchronized
    (the server answers with an [Error] response tagged seq 0 and
    closes).

    {2 Requests}

    {v
    payload := seq:u32be  opcode:u8  body
    opcode  := 1 INSERT     body = key:i64be
             | 2 DELETE     body = key:i64be
             | 3 MEMBER     body = key:i64be
             | 4 REPLACE    body = remove:i64be add:i64be
             | 5 SIZE       body = (empty)
             | 6 BATCH      body = count:u16be (opcode:u8 body)^count
             | 7 SUBSCRIBE  body = from_seq:i64be
             | 8 LOGACK     body = applied_seq:i64be
             | 9 HASHCHECK  body = prefix:i64be len:u8
             | 10 PROMOTE   body = (empty)
             | 11 SCAN      body = cursor:i64be count:u16be
             | 12 RANGE     body = lo:i64be hi:i64be cursor:i64be count:u16be
    v}

    BATCH sub-operations are restricted to the four boolean-result
    opcodes (INSERT/DELETE/MEMBER/REPLACE) so the reply is a uniform
    vector of booleans; nesting is a protocol error.

    Opcodes 7-10 are the replication surface (see [lib/replica]):
    SUBSCRIBE turns the connection into a log stream (the server's
    answer is TRUE followed by LOGRECS pushes, all tagged with the
    SUBSCRIBE request's seq), LOGACK flows follower-to-primary {e on
    the subscription connection} to acknowledge application progress,
    HASHCHECK asks for the anti-entropy hashes of one key-prefix
    subtree, and PROMOTE seals a follower's WAL and flips it to
    primary.  None of them is valid inside a BATCH.

    Opcodes 11-12 are the streaming scan surface.  SCAN asks for up to
    [count] keys strictly greater than [cursor] (pass [-1] to start);
    RANGE restricts the walk to keys in [[lo, hi]].  Each request is
    answered with one PAGE drawn from a fresh atomic snapshot of the
    trie, so a single page is an exact frozen version; a multi-page
    scan resumes from the returned [next_cursor] and is the
    concatenation of per-page linearization points (every key returned
    existed at its page's snapshot; keys inserted behind the cursor
    mid-scan may be missed, keys removed ahead of it may be absent —
    the standard cursor-stability contract).  The cursor is stateless:
    the server keeps nothing between pages, so scans survive
    reconnects and cost the server O(page) memory.  [count] must be in
    [[1, max_page_keys]].  Not valid inside a BATCH.

    {2 Responses}

    {v
    payload := seq:u32be  status:u8  body
    status  := 0 FALSE    body = (empty)
             | 1 TRUE     body = (empty)
             | 2 COUNT    body = value:i64be          (SIZE)
             | 3 MANY     body = count:u16be bool:u8^count  (BATCH)
             | 4 LOGRECS  body = head_seq:i64be count:u16be
                                 (seq:i64be opcode:u8 body)^count
             | 5 HASHES   body = node:i64be left:i64be right:i64be
             | 6 PAGE     body = cut:i64be next_cursor:i64be complete:u8
                                 count:u16be key:i64be^count
             | 254 BUSY   body = retry_after_ms:u32be
             | 255 ERROR  body = utf-8 message
    v}

    PAGE answers SCAN/RANGE: [keys] are ascending, [next_cursor] is
    the value to pass in the follow-up request ([= the last key
    returned]; meaningless when [complete] is 1, i.e. the walk is
    exhausted), and [cut] is the server's newest {e assigned} WAL
    sequence number at the page's snapshot — a follower bootstrapping
    from scan pages subscribes from the first page's [cut] to catch
    every mutation the snapshot did not contain.  [cut] is [-1] on a
    server without a WAL.

    LOGRECS records re-use the INSERT/DELETE/REPLACE request encoding;
    [head_seq] is the primary's newest assigned sequence number at push
    time, which is what lets a follower compute its replication lag
    without a second round trip.  HASHES carries the anti-entropy hash
    of the requested prefix subtree plus the hashes of its two child
    prefixes, so a divergence hunt descends one trie level per round
    trip.  All hash values are masked to 62 bits — i64 fields reject
    values that do not round-trip through a 63-bit OCaml [int].

    [seq] echoes the request's tag, which is what makes pipelining
    work: a client may have any number of requests in flight and
    matches responses (delivered in request order per connection) by
    tag.  An [ERROR] tagged with the request's seq is an
    application-level failure (e.g. a key outside the server's
    universe) and leaves the stream usable; an [ERROR] tagged seq 0 is
    a framing-level failure after which the server closes.

    {2 Overload (BUSY, status 254)}

    [BUSY] is the server's admission-control reply: "not an error, not
    now".  The body carries a retry-after hint in milliseconds — a
    floor for the client's backoff, not a promise of capacity.  It is
    sent in two situations, distinguished by the tag:

    - tagged {e seq 0}, at accept time: the server is at its
      [--max-conns] connection limit and sheds the new connection —
      one BUSY frame, then close.  The request stream never started.
    - tagged with the {e request's seq}, per request: the request
      spent longer than the server's queue deadline
      ([--queue-deadline-ms]) waiting behind earlier frames of its
      pipeline window, so the server declines to execute it rather
      than add load it can no longer serve in time.  The stream stays
      usable and later requests are served normally.

    In both cases the operation was {e not} executed, so retrying is
    always safe.  {!Client}'s retry layer backs off (bounded
    exponential with jitter, floored at the hint) and retries
    transparently when enabled.  The server-side limits behind these
    replies — [--max-conns], [--queue-deadline-ms], and the
    per-connection output-buffer caps [--soft-buffer-kb] /
    [--hard-buffer-kb] that stall and then evict slow readers — are
    documented in README.md, "Overload protection".

    Decoders never raise on untrusted input — truncated bodies,
    unknown opcodes, oversized or undersized length prefixes and
    trailing garbage all come back as [Result.Error]. *)

val max_frame_payload : int
(** Upper bound on a frame's payload length (1 MiB).  A length prefix
    beyond it is rejected before any allocation, so a hostile 4 GiB
    prefix cannot balloon the connection buffer. *)

val max_batch : int
(** Upper bound on BATCH sub-operations (fits the u16 count). *)

val max_logrecs : int
(** Upper bound on records per LOGRECS push (fits the u16 count). *)

val max_page_keys : int
(** Upper bound on keys per SCAN/RANGE page (8192).  Well under what
    {!max_frame_payload} admits, so a full page frame always fits. *)

type op =
  | Insert of int
  | Delete of int
  | Member of int
  | Replace of { remove : int; add : int }
  | Size
  | Batch of op list
  | Subscribe of { from_seq : int }
  | Logack of { applied_seq : int }
  | Hashcheck of { prefix : int; len : int }
  | Promote
  | Scan of { cursor : int; count : int }
  | Range of { lo : int; hi : int; cursor : int; count : int }

type logrec = { rseq : int; rop : op }
(** One replicated WAL record: the primary's sequence number and the
    mutation ([rop] is always INSERT/DELETE/REPLACE). *)

type request = { seq : int; op : op }

type result_ =
  | Bool of bool
  | Count of int
  | Many of bool list
  | Logrecs of { head_seq : int; recs : logrec list }
  | Hashes of { node : int; left : int; right : int }
  | Page of { cut : int; next_cursor : int; complete : bool; keys : int list }
  | Busy of { retry_after_ms : int }
  | Error of string

type response = { seq : int; result : result_ }

val op_name : op -> string
(** ["insert"], ["delete"], ... — metrics labels. *)

val op_index : op -> int
(** Dense index in declaration order (0..11), for counter arrays. *)

val op_count : int

val op_names : string array
(** [op_names.(op_index op) = op_name op] for every opcode: the label
    table behind per-opcode counter arrays. *)

val encode_request : Buffer.t -> request -> unit
(** Append the full frame (length prefix included).
    @raise Invalid_argument on a [seq] outside u32, a nested or
    oversized [Batch], or a [Size] inside a [Batch] — caller bugs, not
    wire conditions. *)

val encode_response : Buffer.t -> response -> unit
(** Append the full frame.  Error messages are truncated to fit
    {!max_frame_payload}; [Many] beyond {!max_batch} raises
    [Invalid_argument]. *)

val decode_request : Bytes.t -> off:int -> len:int -> (request, string) result
(** Decode one request payload (the [len] bytes at [off], length prefix
    already stripped).  Never raises on wire data. *)

val decode_response : Bytes.t -> off:int -> len:int -> (response, string) result
(** Decode one response payload.  Never raises on wire data. *)

(** Incremental defragmenting frame reader: feed raw socket bytes in,
    take complete frame payloads out.  One per connection, both ends. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> unit
  (** [feed r buf n] appends the first [n] bytes of [buf]. *)

  val next_payload : t -> [ `None | `Payload of Bytes.t * int * int | `Bad of string ]
  (** The next complete frame's payload as a [(buffer, offset, length)]
      view into the reader's internal storage, consumed from the
      stream.  The view is only valid until the next {!feed} (feeding
      may compact the buffer) — decode before reading more.  [`None]
      means more bytes are needed; [`Bad] means the stream carries an
      unframeable length prefix and must be torn down. *)

  val buffered : t -> int
  (** Bytes currently buffered (diagnostics). *)
end
