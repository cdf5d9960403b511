(* Wire protocol of the patserve set server; see protocol.mli for the
   frame grammar.  Decoders are written against hostile input: every
   read is bounds-checked and every malformed shape returns [Error],
   because a decode exception escaping a worker domain would kill the
   very thread of control the non-blocking structure keeps alive. *)

let max_frame_payload = 1 lsl 20
let max_batch = 0xFFFF

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

(* One replicated log record as it crosses the wire inside a LOGRECS
   push: the primary's WAL sequence number plus the mutation, re-using
   the request op encoding (restricted to INSERT/DELETE/REPLACE). *)
type logrec = { rseq : int; rop : op }

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

let op_name = function
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Member _ -> "member"
  | Replace _ -> "replace"
  | Size -> "size"
  | Batch _ -> "batch"
  | Subscribe _ -> "subscribe"
  | Logack _ -> "logack"
  | Hashcheck _ -> "hashcheck"
  | Promote -> "promote"
  | Scan _ -> "scan"
  | Range _ -> "range"

let op_index = function
  | Insert _ -> 0
  | Delete _ -> 1
  | Member _ -> 2
  | Replace _ -> 3
  | Size -> 4
  | Batch _ -> 5
  | Subscribe _ -> 6
  | Logack _ -> 7
  | Hashcheck _ -> 8
  | Promote -> 9
  | Scan _ -> 10
  | Range _ -> 11

let op_count = 12

let op_names =
  let names = Array.make op_count "" in
  List.iter
    (fun op -> names.(op_index op) <- op_name op)
    [
      Insert 0; Delete 0; Member 0; Replace { remove = 0; add = 0 }; Size;
      Batch []; Subscribe { from_seq = 0 }; Logack { applied_seq = 0 };
      Hashcheck { prefix = 0; len = 0 }; Promote; Scan { cursor = 0; count = 0 };
      Range { lo = 0; hi = 0; cursor = 0; count = 0 };
    ];
  names

(* Opcode and status bytes. *)
let opc_insert = 1
and opc_delete = 2
and opc_member = 3
and opc_replace = 4
and opc_size = 5
and opc_batch = 6
and opc_subscribe = 7
and opc_logack = 8
and opc_hashcheck = 9
and opc_promote = 10
and opc_scan = 11
and opc_range = 12

let st_false = 0
and st_true = 1
and st_count = 2
and st_many = 3
and st_logrecs = 4
and st_hashes = 5
and st_page = 6
and st_busy = 254
and st_error = 255

let max_logrecs = 0xFFFF

(* A full page (8192 keys x 8 bytes) stays an order of magnitude under
   [max_frame_payload], so a PAGE frame can never trip the framing cap
   that protects the connection buffers. *)
let max_page_keys = 8192

(* ------------------------------------------------------------------ *)
(* Encoding.  A frame is written straight into the caller's buffer: a
   sizing pass computes the payload's length and makes every check the
   encoding needs, then the length prefix and the payload follow.  An
   [invalid_arg] therefore leaves the buffer as it was, and an encode
   allocates nothing but the buffer's own growth: integers go out as
   16-bit halves, never as boxed [Int32]/[Int64]. *)

let add_u8 buf v = Buffer.add_char buf (Char.unsafe_chr v)
let add_u16 buf v = Buffer.add_uint16_be buf (v land 0xFFFF)

let add_u32 buf v =
  add_u16 buf (v lsr 16);
  add_u16 buf v

let add_i64 buf v =
  add_u16 buf (v asr 48);
  add_u16 buf (v lsr 32);
  add_u16 buf (v lsr 16);
  add_u16 buf v

let check_seq seq =
  if seq < 0 || seq > 0xFFFFFFFF then
    invalid_arg "Protocol: seq out of u32 range"

(* Payload bytes of an op, checked: what [encode_op] writes for it. *)
let simple_op_size = function
  | Insert _ | Delete _ | Member _ -> 9
  | Replace _ -> 17
  | Size -> 1
  | Batch _ -> invalid_arg "Protocol: nested BATCH"
  | Subscribe _ | Logack _ | Hashcheck _ | Promote ->
      invalid_arg "Protocol: replication op is not a simple op"
  | Scan _ | Range _ -> invalid_arg "Protocol: scan op is not a simple op"

let check_count what count =
  if count < 1 || count > max_page_keys then
    invalid_arg ("Protocol: " ^ what ^ " count out of range")

let op_size = function
  | Batch ops ->
      if List.compare_length_with ops max_batch > 0 then
        invalid_arg "Protocol: BATCH too large";
      List.fold_left
        (fun n o ->
          match o with
          | Size -> invalid_arg "Protocol: SIZE inside BATCH"
          | o -> n + simple_op_size o)
        3 ops
  | Subscribe _ | Logack _ -> 9
  | Hashcheck { len; _ } ->
      if len < 0 || len > 0xFF then
        invalid_arg "Protocol: HASHCHECK prefix length out of u8 range";
      10
  | Promote -> 1
  | Scan { count; _ } ->
      check_count "SCAN" count;
      11
  | Range { count; _ } ->
      check_count "RANGE" count;
      27
  | op -> simple_op_size op

(* [encode_op] writes an op [op_size] has checked. *)
let rec encode_op buf op =
  match op with
  | Insert k ->
      add_u8 buf opc_insert;
      add_i64 buf k
  | Delete k ->
      add_u8 buf opc_delete;
      add_i64 buf k
  | Member k ->
      add_u8 buf opc_member;
      add_i64 buf k
  | Replace { remove; add } ->
      add_u8 buf opc_replace;
      add_i64 buf remove;
      add_i64 buf add
  | Size -> add_u8 buf opc_size
  | Batch ops ->
      add_u8 buf opc_batch;
      add_u16 buf (List.length ops);
      List.iter (encode_op buf) ops
  | Subscribe { from_seq } ->
      add_u8 buf opc_subscribe;
      add_i64 buf from_seq
  | Logack { applied_seq } ->
      add_u8 buf opc_logack;
      add_i64 buf applied_seq
  | Hashcheck { prefix; len } ->
      add_u8 buf opc_hashcheck;
      add_i64 buf prefix;
      add_u8 buf len
  | Promote -> add_u8 buf opc_promote
  | Scan { cursor; count } ->
      add_u8 buf opc_scan;
      add_i64 buf cursor;
      add_u16 buf count
  | Range { lo; hi; cursor; count } ->
      add_u8 buf opc_range;
      add_i64 buf lo;
      add_i64 buf hi;
      add_i64 buf cursor;
      add_u16 buf count

(* The length prefix and the seq of a payload of [size] bytes after it. *)
let frame_head buf seq size =
  let len = 4 + size in
  if len > max_frame_payload then invalid_arg "Protocol: frame too large";
  add_u32 buf len;
  add_u32 buf seq

let encode_request buf { seq; op } =
  check_seq seq;
  frame_head buf seq (op_size op);
  encode_op buf op

(* An error message is cut to what fits the frame after seq and status. *)
let error_room = max_frame_payload - 5

let result_size = function
  | Bool _ -> 1
  | Count _ -> 9
  | Many bs ->
      let n = List.length bs in
      if n > max_batch then invalid_arg "Protocol: MANY too large";
      3 + n
  | Logrecs { recs; _ } ->
      if List.compare_length_with recs max_logrecs > 0 then
        invalid_arg "Protocol: LOGRECS too large";
      List.fold_left
        (fun n { rop; _ } ->
          match rop with
          | Insert _ | Delete _ | Replace _ -> n + 8 + simple_op_size rop
          | _ -> invalid_arg "Protocol: LOGRECS record must be a mutation")
        11 recs
  | Hashes _ -> 25
  | Page { keys; _ } ->
      let n = List.length keys in
      if n > max_page_keys then invalid_arg "Protocol: PAGE too large";
      20 + (8 * n)
  | Busy { retry_after_ms } ->
      if retry_after_ms < 0 || retry_after_ms > 0xFFFFFFFF then
        invalid_arg "Protocol: retry_after_ms out of u32 range";
      5
  | Error msg -> 1 + min (String.length msg) error_room

let encode_response buf { seq; result } =
  check_seq seq;
  frame_head buf seq (result_size result);
  match result with
  | Bool false -> add_u8 buf st_false
  | Bool true -> add_u8 buf st_true
  | Count v ->
      add_u8 buf st_count;
      add_i64 buf v
  | Many bs ->
      add_u8 buf st_many;
      add_u16 buf (List.length bs);
      List.iter (fun b -> add_u8 buf (Bool.to_int b)) bs
  | Logrecs { head_seq; recs } ->
      add_u8 buf st_logrecs;
      add_i64 buf head_seq;
      add_u16 buf (List.length recs);
      List.iter
        (fun { rseq; rop } ->
          add_i64 buf rseq;
          encode_op buf rop)
        recs
  | Hashes { node; left; right } ->
      add_u8 buf st_hashes;
      add_i64 buf node;
      add_i64 buf left;
      add_i64 buf right
  | Page { cut; next_cursor; complete; keys } ->
      add_u8 buf st_page;
      add_i64 buf cut;
      add_i64 buf next_cursor;
      add_u8 buf (Bool.to_int complete);
      add_u16 buf (List.length keys);
      List.iter (add_i64 buf) keys
  | Busy { retry_after_ms } ->
      add_u8 buf st_busy;
      add_u32 buf retry_after_ms
  | Error msg ->
      add_u8 buf st_error;
      Buffer.add_substring buf msg 0 (min (String.length msg) error_room)

(* ------------------------------------------------------------------ *)
(* Decoding: a bounds-checked cursor over one payload. *)

type cursor = { buf : Bytes.t; limit : int; mutable pos : int }

exception Bad of string

let need c n = if c.pos + n > c.limit then raise (Bad "truncated frame body")

let u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c =
  need c 2;
  let v =
    (Char.code (Bytes.get c.buf c.pos) lsl 8)
    lor Char.code (Bytes.get c.buf (c.pos + 1))
  in
  c.pos <- c.pos + 2;
  v

let u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_be c.buf c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let i64 c =
  need c 8;
  let v64 = Bytes.get_int64_be c.buf c.pos in
  c.pos <- c.pos + 8;
  let v = Int64.to_int v64 in
  (* OCaml ints are 63-bit; a wire value that does not round-trip was
     never produced by a well-behaved peer. *)
  if Int64.of_int v <> v64 then raise (Bad "integer out of range");
  v

let decode_simple_op c opc =
  if opc = opc_insert then Insert (i64 c)
  else if opc = opc_delete then Delete (i64 c)
  else if opc = opc_member then Member (i64 c)
  else if opc = opc_replace then
    let remove = i64 c in
    let add = i64 c in
    Replace { remove; add }
  else if opc = opc_size then Size
  else raise (Bad (Printf.sprintf "unknown opcode %d" opc))

let decode_op c =
  match u8 c with
  | opc when opc = opc_batch ->
      let n = u16 c in
      let rec go i acc =
        if i = n then List.rev acc
        else
          match u8 c with
          | opc when opc = opc_batch -> raise (Bad "nested BATCH")
          | opc when opc = opc_size -> raise (Bad "SIZE inside BATCH")
          | opc -> go (i + 1) (decode_simple_op c opc :: acc)
      in
      Batch (go 0 [])
  | opc when opc = opc_subscribe -> Subscribe { from_seq = i64 c }
  | opc when opc = opc_logack -> Logack { applied_seq = i64 c }
  | opc when opc = opc_hashcheck ->
      let prefix = i64 c in
      let len = u8 c in
      Hashcheck { prefix; len }
  | opc when opc = opc_promote -> Promote
  | opc when opc = opc_scan ->
      let cursor = i64 c in
      let count = u16 c in
      if count < 1 || count > max_page_keys then
        raise (Bad "SCAN count out of range");
      Scan { cursor; count }
  | opc when opc = opc_range ->
      let lo = i64 c in
      let hi = i64 c in
      let cursor = i64 c in
      let count = u16 c in
      if count < 1 || count > max_page_keys then
        raise (Bad "RANGE count out of range");
      Range { lo; hi; cursor; count }
  | opc -> decode_simple_op c opc

let finish c v =
  if c.pos <> c.limit then Result.Error "trailing bytes in frame"
  else Result.Ok v

let decode_request buf ~off ~len =
  if len < 5 then Result.Error "request payload shorter than seq+opcode"
  else
    let c = { buf; limit = off + len; pos = off } in
    match
      let seq = u32 c in
      let op = decode_op c in
      { seq; op }
    with
    | req -> finish c req
    | exception Bad msg -> Result.Error msg

let decode_response buf ~off ~len =
  if len < 5 then Result.Error "response payload shorter than seq+status"
  else
    let c = { buf; limit = off + len; pos = off } in
    match
      let seq = u32 c in
      let result =
        match u8 c with
        | st when st = st_false -> Bool false
        | st when st = st_true -> Bool true
        | st when st = st_count -> Count (i64 c)
        | st when st = st_many ->
            let n = u16 c in
            let rec go i acc =
              if i = n then List.rev acc
              else
                match u8 c with
                | 0 -> go (i + 1) (false :: acc)
                | 1 -> go (i + 1) (true :: acc)
                | _ -> raise (Bad "MANY element not a boolean")
            in
            Many (go 0 [])
        | st when st = st_logrecs ->
            let head_seq = i64 c in
            let n = u16 c in
            let rec go i acc =
              if i = n then List.rev acc
              else
                let rseq = i64 c in
                let rop = decode_simple_op c (u8 c) in
                (match rop with
                | Insert _ | Delete _ | Replace _ -> ()
                | _ -> raise (Bad "LOGRECS record is not a mutation"));
                go (i + 1) ({ rseq; rop } :: acc)
            in
            Logrecs { head_seq; recs = go 0 [] }
        | st when st = st_hashes ->
            let node = i64 c in
            let left = i64 c in
            let right = i64 c in
            Hashes { node; left; right }
        | st when st = st_page ->
            let cut = i64 c in
            let next_cursor = i64 c in
            let complete =
              match u8 c with
              | 0 -> false
              | 1 -> true
              | _ -> raise (Bad "PAGE complete flag not a boolean")
            in
            let n = u16 c in
            if n > max_page_keys then raise (Bad "PAGE too large");
            let rec go i acc =
              if i = n then List.rev acc else go (i + 1) (i64 c :: acc)
            in
            Page { cut; next_cursor; complete; keys = go 0 [] }
        | st when st = st_busy -> Busy { retry_after_ms = u32 c }
        | st when st = st_error ->
            let msg = Bytes.sub_string c.buf c.pos (c.limit - c.pos) in
            c.pos <- c.limit;
            Error msg
        | st -> raise (Bad (Printf.sprintf "unknown status %d" st))
      in
      { seq; result }
    with
    | resp -> finish c resp
    | exception Bad msg -> Result.Error msg

(* ------------------------------------------------------------------ *)
(* Incremental frame reader. *)

module Reader = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0 }

  let buffered t = t.len

  (* Make room for [n] more bytes: compact in place when the dead
     prefix suffices, grow (doubling) otherwise. *)
  let reserve t n =
    let cap = Bytes.length t.buf in
    if t.start + t.len + n > cap then
      if t.len + n <= cap then begin
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let cap' = max (t.len + n) (cap * 2) in
        let buf' = Bytes.create cap' in
        Bytes.blit t.buf t.start buf' 0 t.len;
        t.buf <- buf';
        t.start <- 0
      end

  let feed t src n =
    reserve t n;
    Bytes.blit src 0 t.buf (t.start + t.len) n;
    t.len <- t.len + n

  let next_payload t =
    if t.len < 4 then `None
    else
      let plen =
        Int32.to_int (Bytes.get_int32_be t.buf t.start) land 0xFFFFFFFF
      in
      if plen < 5 then `Bad (Printf.sprintf "frame payload too short (%d)" plen)
      else if plen > max_frame_payload then
        `Bad (Printf.sprintf "frame payload too large (%d)" plen)
      else if t.len < 4 + plen then `None
      else begin
        let off = t.start + 4 in
        t.start <- t.start + 4 + plen;
        t.len <- t.len - 4 - plen;
        if t.len = 0 then t.start <- 0;
        `Payload (t.buf, off, plen)
      end
end
