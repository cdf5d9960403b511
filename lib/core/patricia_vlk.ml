(* Non-blocking Patricia trie over variable-length keys — the extension
   described in the paper's conclusion (Section VI).

   The algorithm, snapshots, counters and census are the shared trie
   (trie_body.ml) built over PAT-VLK's key module (vlk_key.ml) into
   [Vlk_trie]; see lib/core/dune.  This file adds the front end: the
   raw encoded-key names and the byte-string API, which encodes one byte
   as 8 binary digits under the 0->01 / 1->10 / $->11 encoding. *)

include Vlk_trie
module B = Bitkey.Bitstr

let create ?(record_stats = false) () = make ~record_stats ()
let insert_key = insert
let delete_key = delete
let member_key = member
let replace_key t remove add = replace t ~remove ~add
let insert t s = insert_key t (B.encode_bytes s)
let delete t s = delete_key t (B.encode_bytes s)
let member t s = member_key t (B.encode_bytes s)

let replace t ~remove ~add =
  replace_key t (B.encode_bytes remove) (B.encode_bytes add)

let to_list t =
  List.rev (fold t ~init:[] ~f:(fun acc k -> B.decode_bytes k :: acc))

module View = struct
  include View

  let fold v ~init ~f = fold v ~init ~f:(fun acc k -> f acc (B.decode_bytes k))
  let to_list v = List.rev (fold v ~init:[] ~f:(fun acc s -> s :: acc))
end
