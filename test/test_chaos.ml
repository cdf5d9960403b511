(* Fault-injection suite: stalled-domain scenarios, chaos schedules and
   the contention-backoff counter (lib/chaos).

   The stall tests freeze one domain ("the victim") at a labeled point
   inside an update — after flagging but before the child CAS, between
   the two child CASes of a replace, or after the child CAS but before
   unflagging — and then let other domains run.  Lock-freedom (paper
   Section IV, part 4) demands that the other domains finish the frozen
   update themselves; we assert that they did *before* the victim is
   released, so the victim cannot have contributed.

   CHAOS_SEED seeds every randomized schedule in this file; the CI chaos
   job runs once with the default and once with a random seed, printing
   it for reproduction. *)

module P = Core.Patricia
module V = Core.Patricia_vlk

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 2013

let () = Printf.printf "test_chaos: CHAOS_SEED=%d\n%!" chaos_seed

let check_ok ?(ctx = "") t =
  match P.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants violated%s: %s" ctx e

(* ------------------------------------------------------------------ *)
(* Both tries as one subject *)

(* The stall scenarios and the Figure 6 sweeps run on PAT and on
   PAT-VLK: the two are one algorithm over two key types.  PAT-VLK gets
   each int key [k] as the raw key 01 followed by the [width]-bit
   binary of [k + 1], PAT's internal key for a universe of the same
   size.  Two permanent keys, 01 followed by all zeros and by all ones,
   stand in for PAT's sentinels, so the subtree under 01 has exactly
   the shape of the whole PAT trie and each scenario meets the same
   replace case on both. *)
type subject = {
  tag : string;
  insert : int -> bool;
  delete : int -> bool;
  member : int -> bool;
  replace : remove:int -> add:int -> bool;
  keys : unit -> int list;  (** ascending *)
  flags_on_path : int -> int;
  helps_received : unit -> int;
  audit : unit -> (unit, string) result;
}

let pat ~universe =
  let t = P.create ~universe ~record_stats:true () in
  {
    tag = "PAT";
    insert = P.insert t;
    delete = P.delete t;
    member = P.member t;
    replace = P.replace t;
    keys = (fun () -> P.to_list t);
    flags_on_path = P.For_testing.flags_on_path t;
    helps_received =
      (fun () ->
        match P.stats_snapshot t with Some s -> s.helps_received | None -> 0);
    audit = (fun () -> P.check_invariants t);
  }

let vlk ~universe =
  let width = max 2 (Bitkey.bit_length (universe + 1)) in
  let bits v =
    Bitkey.Bitstr.of_string
      ("01"
      ^ String.init width (fun i ->
            if (v lsr (width - 1 - i)) land 1 = 1 then '1' else '0'))
  in
  let raw k = bits (k + 1) in
  let t = V.create ~record_stats:true () in
  assert (V.insert_key t (bits 0) && V.insert_key t (bits ((1 lsl width) - 1)));
  let member k = V.member_key t (raw k) in
  {
    tag = "PAT-VLK";
    insert = (fun k -> V.insert_key t (raw k));
    delete = (fun k -> V.delete_key t (raw k));
    member;
    replace = (fun ~remove ~add -> V.replace_key t (raw remove) (raw add));
    keys = (fun () -> List.filter member (List.init universe Fun.id));
    flags_on_path = (fun k -> V.For_testing.flags_on_path t (raw k));
    helps_received =
      (fun () ->
        match V.For_testing.counters t with
        | Some c -> List.assoc "helps_received" c
        | None -> 0);
    audit = (fun () -> V.check_invariants t);
  }

let subjects = [ ("", pat); ("PAT-VLK ", vlk) ]

let check_subject ?(ctx = "") s =
  match s.audit () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s invariants violated%s: %s" s.tag ctx e

(* ------------------------------------------------------------------ *)
(* Stalled-domain scenarios *)

(* Keys are chosen by their internal representation (external key + 1,
   width 5 for universe 16): 11 and 12 map to the sibling bit-strings
   01100/01101, 9 maps to 01010 (same top subtree, so updates on 9 flag
   an ancestor of 11/12's leaves), and 15 maps to 10000 (the opposite
   top subtree, making replace 9 -> 15 take the general two-child-CAS
   path).  Workers hammer 11 and 12: their deletes must flag the very
   nodes the victim left flagged, which forces them to help. *)
let scenario ~make ~name ~prefill ~op ~site ~after ~watch ~expect () =
  let s = make ~universe:16 in
  let name = s.tag ^ " " ^ name in
  List.iter (fun k -> ignore (s.insert k)) prefill;
  let st = Chaos.Stall.install ~after site in
  Chaos.set_policy ~name (Some (Chaos.Stall.hook st));
  let stop = Atomic.make false in
  let result = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      (* On any failure path: unpark everyone so no domain spins forever,
         then uninstall the policy for the next test. *)
      Atomic.set stop true;
      Chaos.Stall.release st;
      Chaos.set_policy None)
  @@ fun () ->
  let victim = Domain.spawn (fun () -> Atomic.set result (op s)) in
  if not (Chaos.Stall.wait_stalled ~timeout_s:60.0 st) then begin
    ignore (Domain.join victim);
    Alcotest.failf "%s: victim never reached the stall point" name
  end;
  let workers =
    Tutil.spawn_n 3 (fun d ->
        let keys = [| 11; 12 |] in
        let i = ref d in
        while not (Atomic.get stop) do
          let k = keys.(!i mod 2) in
          incr i;
          ignore (s.delete k);
          ignore (s.insert k)
        done)
  in
  let helped () = s.helps_received () > 0 in
  (* [helps_received] can also be bumped by the workers helping *each
     other*, so on its own it does not prove the victim's descriptor was
     completed.  Additionally require the watched paths to be flag-free:
     the frozen victim cannot clear its own flag, so observing zero
     flags there means a helper ran the frozen update to completion
     (worker flags on the same path are transient and drain; the
     victim's is permanent until helped, so polling eventually sees a
     clean moment iff the help happened). *)
  let flags_drained () = List.for_all (fun k -> s.flags_on_path k = 0) watch in
  let completed =
    Chaos.Backoff.wait_until ~timeout_s:60.0 (fun () ->
        expect s && helped () && flags_drained ())
  in
  Atomic.set stop true;
  Tutil.join_all workers |> ignore;
  if not completed then
    Alcotest.failf "%s: helpers did not complete the frozen update (helped=%b)"
      name (helped ());
  (* The victim is still frozen at this point and the workers have
     drained, so the trie is quiescent except for the spinning victim:
     only helpers can have run the frozen descriptor to completion. *)
  List.iter
    (fun k ->
      let f = s.flags_on_path k in
      if f <> 0 then
        Alcotest.failf "%s: %d residual flag(s) on the path of %d" name f k)
    watch;
  if not (expect s) then
    Alcotest.failf "%s: update effect lost after workers drained" name;
  if not (helped ()) then
    Alcotest.failf "%s: no helping recorded for the frozen update" name;
  check_subject ~ctx:(" in " ^ name ^ " with the victim frozen") s;
  Chaos.Stall.release st;
  ignore (Domain.join victim);
  if not (Atomic.get result) then
    Alcotest.failf "%s: released victim did not report success" name;
  check_subject ~ctx:(" in " ^ name ^ " after release") s

let test_stall_insert_before_child_cas make =
  scenario ~make ~name:"insert stalled before child CAS" ~prefill:[ 11; 12 ]
    ~op:(fun s -> s.insert 9)
    ~site:Chaos.Child_cas ~after:0 ~watch:[ 9 ]
    ~expect:(fun s -> s.member 9)

let test_stall_delete_before_child_cas make =
  scenario ~make ~name:"delete stalled before child CAS" ~prefill:[ 9; 11; 12 ]
    ~op:(fun s -> s.delete 9)
    ~site:Chaos.Child_cas ~after:0 ~watch:[ 9 ]
    ~expect:(fun s -> not (s.member 9))

let test_stall_replace_before_first_cas make =
  scenario ~make ~name:"replace stalled before first child CAS"
    ~prefill:[ 9; 11; 12 ]
    ~op:(fun s -> s.replace ~remove:9 ~add:15)
    ~site:Chaos.Child_cas ~after:0 ~watch:[ 9; 15 ]
    ~expect:(fun s -> (not (s.member 9)) && s.member 15)

let test_stall_replace_between_cases make =
  (* after:1 lets the first child CAS (the linearization point) through
     and freezes the victim on its way to the second one. *)
  scenario ~make ~name:"replace stalled between its two child CASes"
    ~prefill:[ 9; 11; 12 ]
    ~op:(fun s -> s.replace ~remove:9 ~add:15)
    ~site:Chaos.Child_cas ~after:1 ~watch:[ 9; 15 ]
    ~expect:(fun s -> (not (s.member 9)) && s.member 15)

let test_stall_insert_before_unflag make =
  scenario ~make ~name:"insert stalled before unflag" ~prefill:[ 11; 12 ]
    ~op:(fun s -> s.insert 9)
    ~site:Chaos.Unflag ~after:0 ~watch:[ 9 ]
    ~expect:(fun s -> s.member 9)

(* ------------------------------------------------------------------ *)
(* Snapshot renewal stalled *)

(* A snapshot taken in the scenarios below: [walk] re-walks it, [marked]
   counts the flagged nodes on a key's path in it. *)
type frozen = { walk : unit -> string list; marked : string -> int }

(* One trie's side of the scenarios below, keys as strings. *)
type renew_subject = {
  insert : string -> bool;
  delete : string -> bool;
  snapshot : unit -> frozen;
  live : unit -> string list;
  stale_on_path : string -> int;
  helps_given : unit -> int;
  audit : unit -> (unit, string) result;
}

(* PAT over universe 16 (width 5), keys as decimal strings. *)
let pat_renew_subject () =
  let t = P.create ~universe:16 ~record_stats:true () in
  let str = List.map string_of_int and int = int_of_string in
  {
    insert = (fun k -> P.insert t (int k));
    delete = (fun k -> P.delete t (int k));
    snapshot =
      (fun () ->
        let v = P.snapshot t in
        {
          walk = (fun () -> str (P.View.to_list v));
          marked = (fun k -> P.For_testing.view_flags_on_path v (int k));
        });
    live = (fun () -> str (P.to_list t));
    stale_on_path = (fun k -> P.For_testing.stale_on_path t (int k));
    helps_given =
      (fun () ->
        match P.stats_snapshot t with Some s -> s.helps_given | None -> 0);
    audit = (fun () -> P.check_invariants t);
  }

(* PAT-VLK through its byte-string API. *)
let vlk_renew_subject () =
  let t = V.create ~record_stats:true () in
  {
    insert = V.insert t;
    delete = V.delete t;
    snapshot =
      (fun () ->
        let v = V.snapshot t in
        {
          walk = (fun () -> V.View.to_list v);
          marked =
            (fun k ->
              V.For_testing.view_flags_on_path v (Bitkey.Bitstr.encode_bytes k));
        });
    live = (fun () -> V.to_list t);
    stale_on_path =
      (fun k -> V.For_testing.stale_on_path t (Bitkey.Bitstr.encode_bytes k));
    helps_given =
      (fun () ->
        match V.For_testing.counters t with
        | Some c -> List.assoc "helps_given" c
        | None -> 0);
    audit = (fun () -> V.check_invariants t);
  }

(* After snapshot v1 every path is stale.  The victim's insert builds
   the renewal of its stale run, which starts at the root's child above
   every key here, and freezes at [Renew] before publishing it.  The main
   domain meanwhile deletes and inserts keys under that same node —
   renewing it itself — and takes snapshot v2.  The victim's renewal is
   now against a superseded generation and a changed parent, so on
   release it must fail and restart rather than write into a frozen
   version: its insert still succeeds, v1 and v2 keep their key sets. *)
let renew_stall ~name s ~prefill ~victim ~gone ~added () =
  let sorted l = List.sort compare l in
  List.iter (fun k -> assert (s.insert k)) prefill;
  let v1 = s.snapshot () in
  let st = Chaos.Stall.install Chaos.Renew in
  Chaos.set_policy ~name (Some (Chaos.Stall.hook st));
  Fun.protect
    ~finally:(fun () ->
      Chaos.Stall.release st;
      Chaos.set_policy None)
  @@ fun () ->
  let result = Atomic.make false in
  let d = Domain.spawn (fun () -> Atomic.set result (s.insert victim)) in
  if not (Chaos.Stall.wait_stalled ~timeout_s:60.0 st) then begin
    Domain.join d;
    Alcotest.failf "%s: victim never reached the renew site" name
  end;
  assert (s.delete gone);
  assert (s.insert added);
  let v2 = s.snapshot () in
  if not (Chaos.Stall.stalled st) then
    Alcotest.failf "%s: victim left the stall early" name;
  Chaos.Stall.release st;
  Domain.join d;
  Alcotest.(check bool) (name ^ ": victim's insert") true (Atomic.get result);
  let expect1 = sorted prefill in
  let expect2 = sorted (added :: List.filter (( <> ) gone) prefill) in
  Alcotest.(check (list string))
    (name ^ ": first view") expect1
    (sorted (v1.walk ()));
  Alcotest.(check (list string))
    (name ^ ": second view") expect2
    (sorted (v2.walk ()));
  Alcotest.(check (list string))
    (name ^ ": live set")
    (sorted (victim :: expect2))
    (sorted (s.live ()));
  match s.audit () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariants: %s" name e

let test_stall_renew () =
  (* Same keys as the stalled-domain scenarios (universe 16, width 5):
     all of them sit under the root's child labelled 0. *)
  let str = List.map string_of_int in
  renew_stall ~name:"PAT renew stalled" (pat_renew_subject ())
    ~prefill:(str [ 9; 11; 12 ]) ~victim:"10" ~gone:"12" ~added:"13" ();
  renew_stall ~name:"PAT-VLK renew stalled" (vlk_renew_subject ())
    ~prefill:[ "k1"; "k2"; "k3" ] ~victim:"k0" ~gone:"k2" ~added:"k4" ()

(* The victim's insert meets a stale run of three or more nodes after
   snapshot v1, builds the copies of the whole run and freezes at
   [Renew] before publishing its descriptor.  The main domain then
   inserts a key below the middle of that run, which renews the run's
   upper part itself, and takes snapshot v2.  Were the victim's
   descriptor to commit, its copies — taken before that insert — would
   replace the renewed path and lose the insert.  On release its first
   flag CAS, on the run's live parent, must fail: the victim backs out
   and retries against v2's generation. *)
let chain_stall ~name s ~prefill ~victim ~added () =
  let sorted l = List.sort compare l in
  List.iter (fun k -> assert (s.insert k)) prefill;
  let v1 = s.snapshot () in
  let run = s.stale_on_path victim in
  if run < 3 then Alcotest.failf "%s: stale run of only %d nodes" name run;
  let st = Chaos.Stall.install Chaos.Renew in
  let victim_dom = Atomic.make None and trail = ref [] in
  let hook site =
    Chaos.Stall.hook st site;
    if Atomic.get victim_dom = Some (Domain.self ()) then trail := site :: !trail
  in
  Chaos.set_policy ~name (Some hook);
  Fun.protect
    ~finally:(fun () ->
      Chaos.Stall.release st;
      Chaos.set_policy None)
  @@ fun () ->
  let result = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set victim_dom (Some (Domain.self ()));
        Atomic.set result (s.insert victim))
  in
  if not (Chaos.Stall.wait_stalled ~timeout_s:60.0 st) then begin
    Domain.join d;
    Alcotest.failf "%s: victim never reached the renew site" name
  end;
  assert (s.insert added);
  let left = s.stale_on_path victim in
  if left <= 0 || left >= run then
    Alcotest.failf "%s: insert below the run's middle left %d of %d stale" name
      left run;
  let v2 = s.snapshot () in
  if not (Chaos.Stall.stalled st) then
    Alcotest.failf "%s: victim left the stall early" name;
  Chaos.Stall.release st;
  Domain.join d;
  Alcotest.(check bool) (name ^ ": victim's insert") true (Atomic.get result);
  (match List.rev !trail with
  | Chaos.Cache :: Chaos.Renew :: Chaos.Flag_cas :: Chaos.Backtrack
    :: Chaos.Retry :: _ ->
      ()
  | sites ->
      Alcotest.failf "%s: victim after release crossed %s" name
        (String.concat ", " (List.map Chaos.site_name sites)));
  (* The main domain's renewal and the victim's retry between them
     renewed the whole path v2 froze: no node of an older generation is
     left on the victim's live path. *)
  Alcotest.(check int) (name ^ ": v1's stale run is off the live path") 0
    (s.stale_on_path victim);
  let v3 = s.snapshot () in
  let expect1 = sorted prefill in
  let expect2 = sorted (added :: prefill) in
  let expect3 = sorted (victim :: expect2) in
  Alcotest.(check (list string)) (name ^ ": live set") expect3 (sorted (s.live ()));
  (match s.audit () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariants: %s" name e);
  List.iter
    (fun (what, v, expect) ->
      Alcotest.(check (list string))
        (name ^ ": " ^ what) expect
        (sorted (v.walk ())))
    [ ("first view", v1, expect1); ("second view", v2, expect2);
      ("third view", v3, expect3) ];
  (* A renewal flags only the live parent of the run it copies: the
     run v1 froze reads unflagged in v1, though it has left the live
     trie. *)
  Alcotest.(check int)
    (name ^ ": v1's renewed run reads unflagged")
    0 (v1.marked victim)

let test_stall_chain () =
  (* Universe 16 (width 5): internal keys 8, 12, 14, 15 and the low
     sentinel hang a chain 0 > 01 > 011 > 0111 off the root.  Inserting
     12 (internal 01101) descends through 0, 01 and 011; inserting 8
     (internal 01001) parts from it below 01, the middle of that run. *)
  let str = List.map string_of_int in
  chain_stall ~name:"PAT stale chain" (pat_renew_subject ())
    ~prefill:(str [ 7; 11; 13; 14 ]) ~victim:"12" ~added:"8" ();
  (* The same internal keys as the last byte of two-byte strings: under
     the shared first byte the keys' encodings branch exactly as PAT's
     keys do, so the same run forms below PAT-VLK's own top nodes. *)
  let key k = "k" ^ String.make 1 (Char.chr (k + 1)) in
  chain_stall ~name:"PAT-VLK stale chain" (vlk_renew_subject ())
    ~prefill:(List.map key [ 7; 11; 13; 14 ]) ~victim:(key 12) ~added:(key 8) ()

(* Domain A's insert commits and freezes at [Child_cas], its parent node
   flagged.  Domain B's snapshot swings the holder past A's generation
   and freezes at [Snap_swing], before it helps the descriptors
   published in the slots, so A's parent is stale and still waits for
   A's child CAS.  The main domain then inserts a key whose path crosses
   that node.  Its renewal must help A before copying the node: a copy
   taken now would keep the child A is about to replace, and the live
   trie would lose A's key while B's view holds it.  On release the live
   set, B's view, a fresh view and the invariants must be exact. *)
let pending_stall ~name s ~prefill ~pending ~crossing () =
  let sorted l = List.sort compare l in
  List.iter (fun k -> assert (s.insert k)) prefill;
  let at_child = Chaos.Stall.install Chaos.Child_cas
  and at_swing = Chaos.Stall.install Chaos.Snap_swing in
  Chaos.set_policy ~name
    (Some
       (fun site ->
         Chaos.Stall.hook at_child site;
         Chaos.Stall.hook at_swing site));
  Fun.protect
    ~finally:(fun () ->
      Chaos.Stall.release at_child;
      Chaos.Stall.release at_swing;
      Chaos.set_policy None)
  @@ fun () ->
  let stalled what st d =
    if not (Chaos.Stall.wait_stalled ~timeout_s:60.0 st) then begin
      ignore (Domain.join d);
      Alcotest.failf "%s: %s never reached its stall" name what
    end
  in
  let a = Domain.spawn (fun () -> s.insert pending) in
  stalled "the pending insert" at_child a;
  let view = Atomic.make None in
  let b = Domain.spawn (fun () -> Atomic.set view (Some (s.snapshot ()))) in
  stalled "the snapshot" at_swing b;
  let h0 = s.helps_given () in
  Alcotest.(check bool) (name ^ ": insert across the pending node") true
    (s.insert crossing);
  Alcotest.(check int)
    (name ^ ": the renewal helped the pending insert")
    1
    (s.helps_given () - h0);
  if not (Chaos.Stall.stalled at_child && Chaos.Stall.stalled at_swing) then
    Alcotest.failf "%s: a stalled domain left its stall early" name;
  Chaos.Stall.release at_child;
  Chaos.Stall.release at_swing;
  Alcotest.(check bool) (name ^ ": pending insert") true (Domain.join a);
  Domain.join b;
  let expect1 = sorted (pending :: prefill) in
  let expect2 = sorted (crossing :: expect1) in
  Alcotest.(check (list string)) (name ^ ": live set") expect2 (sorted (s.live ()));
  (match Atomic.get view with
  | None -> Alcotest.failf "%s: the snapshot returned no view" name
  | Some v ->
      Alcotest.(check (list string)) (name ^ ": the snapshot's view") expect1
        (sorted (v.walk ())));
  Alcotest.(check (list string))
    (name ^ ": a fresh view") expect2
    (sorted ((s.snapshot ()).walk ()));
  match s.audit () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariants: %s" name e

let test_stall_pending () =
  (* Universe 16 (width 5): 9, 11 and 12 (internal 01010, 01100, 01101)
     hang below the node 01, itself below 0.  Inserting 10 (01011) flags
     01; inserting 13 (01110) descends through 0, 01 and 0110. *)
  let str = List.map string_of_int in
  pending_stall ~name:"PAT pending commit" (pat_renew_subject ())
    ~prefill:(str [ 9; 11; 12 ]) ~pending:"10" ~crossing:"13" ();
  let key k = "k" ^ String.make 1 (Char.chr (k + 1)) in
  pending_stall ~name:"PAT-VLK pending commit" (vlk_renew_subject ())
    ~prefill:(List.map key [ 9; 11; 12 ]) ~pending:(key 10)
    ~crossing:(key 13) ()

(* ------------------------------------------------------------------ *)
(* Figure 6 special cases of replace *)

(* Exhaustive sequential sweep over a tiny universe: every (remove, add)
   pair against several trie shapes hits each of the paper's Figure 6
   configurations — remove-parent = add-parent, remove adjacent to the
   add position, and the general case — plus the trivial failures. *)
let replace_pairs_sweep make () =
  let universe = 8 in
  let shapes a b =
    [
      [ a ];
      [ b; a ];
      [ a; a lxor 1 ];
      List.filter (fun k -> k <> b) (List.init universe Fun.id);
    ]
  in
  for a = 0 to universe - 1 do
    for b = 0 to universe - 1 do
      if a <> b then
        List.iter
          (fun prefill ->
            let s : subject = make ~universe in
            List.iter (fun k -> ignore (s.insert k)) prefill;
            let had_a = s.member a and had_b = s.member b in
            let before = s.keys () in
            let ok = s.replace ~remove:a ~add:b in
            if ok <> (had_a && not had_b) then
              Alcotest.failf "%s replace %d->%d: returned %b (a:%b b:%b)" s.tag
                a b ok had_a had_b;
            if ok then begin
              if s.member a then
                Alcotest.failf "%s replace %d->%d: %d still present" s.tag a b a;
              if not (s.member b) then
                Alcotest.failf "%s replace %d->%d: %d absent" s.tag a b b
            end
            else if s.keys () <> before then
              Alcotest.failf "%s failed replace %d->%d changed the set" s.tag a
                b;
            check_subject ~ctx:(Printf.sprintf " after replace %d->%d" a b) s)
          (shapes a b)
    done
  done

let test_replace_special_cases_seq make = replace_pairs_sweep make ()

let test_replace_special_cases_delayed make =
  (* Same sweep under a delay schedule: every labeled site may burst-spin,
     perturbing nothing semantically (single domain) but proving the
     instrumented paths tolerate arbitrary pauses at every site. *)
  Chaos.with_policy ~name:"delays"
    (Chaos.Policy.delays ~prob_per_mille:400 ~max_spins:50 ~seed:chaos_seed ())
    (replace_pairs_sweep make)

let test_replace_linearizable_chaos () =
  (* Concurrent replaces on tiny universes are dominated by the Figure 6
     special cases (remove and add share a parent or are adjacent); the
     recorded histories must stay linearizable under chaos schedules and
     the teardown audit inside linearizable_run must pass. *)
  List.iter
    (fun universe ->
      for i = 0 to 2 do
        let seed = chaos_seed + (universe * 100) + i in
        Chaos.with_policy ~name:"delays"
          (Chaos.Policy.delays ~prob_per_mille:400 ~max_spins:200 ~seed ())
          (fun () ->
            Tutil.linearizable_run ~threads:3 ~ops_per_thread:10 ~universe
              ~seed ~with_replace:true Tutil.pat_ops)
      done)
    [ 4; 8 ]

(* The same battery, histories with scans included, with a level cache
   of 4 slots fixed on every generation of PAT and PAT-VLK: searches
   start at hints, updates under a hint fall back to the root, and the
   delays also land between a search's slot read and its info read. *)
let test_linearizable_chaos_cached () =
  List.iter
    (fun (mk, universe) ->
      for i = 0 to 2 do
        let seed = chaos_seed + (universe * 100) + i in
        Chaos.with_policy ~name:"delays"
          (Chaos.Policy.delays ~prob_per_mille:400 ~max_spins:200 ~seed ())
          (fun () ->
            Tutil.linearizable_run ~threads:3 ~ops_per_thread:10 ~universe
              ~seed ~with_replace:true (mk ~cache_bits:(Some 2)))
      done)
    [
      (Tutil.pat_ops_with, 4);
      (Tutil.pat_ops_with, 8);
      (Tutil.vlk_ops, 4);
      (Tutil.vlk_ops, 8);
    ]

(* ------------------------------------------------------------------ *)
(* Contention backoff *)

(* Deterministic retry: leave a flag behind with the For_testing hooks
   (a "crashed" delete), then insert a key whose flag target is the
   flagged node.  The insert must help, retry, and — with backoff on —
   pause in Chaos.Backoff, bumping the backoff_waits counter. *)
let forced_retry ~backoff =
  let t = P.create ~universe:16 ~record_stats:true () in
  ignore (P.insert t 11);
  ignore (P.insert t 12);
  (match P.For_testing.prepare_delete t 11 with
  | None -> Alcotest.fail "prepare_delete unexpectedly conflicted"
  | Some d -> ignore (P.For_testing.flag_only d : bool));
  let was = Chaos.Backoff.enabled () in
  Chaos.Backoff.set_enabled backoff;
  Fun.protect ~finally:(fun () -> Chaos.Backoff.set_enabled was) (fun () ->
      if not (P.insert t 9) then Alcotest.fail "insert 9 failed");
  (* Helping completed the crashed delete before the insert retried. *)
  Alcotest.(check bool) "crashed delete completed" false (P.member t 11);
  Alcotest.(check bool) "insert landed" true (P.member t 9);
  check_ok t;
  match P.stats_snapshot t with
  | None -> Alcotest.fail "stats not recorded"
  | Some s ->
      Alcotest.(check bool) "helped" true (s.helps_given > 0);
      Alcotest.(check bool) "retried" true (s.attempts > 1);
      s

let test_backoff_counter () =
  let off = forced_retry ~backoff:false in
  Alcotest.(check int) "no backoff waits when disabled" 0 off.P.backoff_waits;
  let on = forced_retry ~backoff:true in
  Alcotest.(check bool) "backoff waits recorded" true (on.P.backoff_waits > 0)

let test_backoff_primitive () =
  (* wait's cap doubles up to the bound; wait_until honours deadlines. *)
  let cap = ref Chaos.Backoff.init in
  for _ = 1 to 20 do
    let next = Chaos.Backoff.wait !cap in
    if next < !cap then Alcotest.fail "backoff cap shrank";
    cap := next
  done;
  Alcotest.(check bool) "cap bounded" true (!cap <= 4096);
  Alcotest.(check bool) "immediate predicate" true
    (Chaos.Backoff.wait_until (fun () -> true));
  Alcotest.(check bool) "deadline expires" false
    (Chaos.Backoff.wait_until ~timeout_s:0.05 (fun () -> false))

(* ------------------------------------------------------------------ *)
(* Crossing counters and the PAT-VLK instrumentation *)

let test_crossing_counters () =
  Chaos.with_policy ~name:"delays"
    (Chaos.Policy.delays ~prob_per_mille:1000 ~max_spins:5 ~seed:chaos_seed ())
    (fun () ->
      let t = P.create ~universe:8 () in
      for k = 0 to 7 do
        ignore (P.insert t k)
      done;
      for k = 0 to 7 do
        ignore (P.delete t k)
      done);
  Alcotest.(check string) "policy uninstalled" "none" (Chaos.policy_name ());
  Alcotest.(check bool) "points crossed" true (Chaos.points_crossed () > 0);
  let xs = Chaos.site_crossings () in
  List.iter
    (fun site ->
      match List.assoc_opt site xs with
      | Some n when n > 0 -> ()
      | Some _ -> Alcotest.failf "site %s never crossed" site
      | None -> Alcotest.failf "site %s missing from crossings" site)
    [ "flag_cas"; "child_cas"; "after_child_cas"; "unflag" ]

let test_vlk_under_delays ~cache_bits () =
  Chaos.with_policy ~name:"delays"
    (Chaos.Policy.delays ~prob_per_mille:300 ~max_spins:100 ~seed:chaos_seed ())
  @@ fun () ->
  let t = V.create () in
  V.For_testing.set_cache_bits t cache_bits;
  let key d i = Printf.sprintf "k%d-%02d" d i in
  Tutil.join_all
    (Tutil.spawn_n 3 (fun d ->
         for i = 0 to 15 do
           ignore (V.insert t (key d i))
         done;
         for i = 0 to 15 do
           if i mod 2 = 0 then ignore (V.delete t (key d i))
         done))
  |> ignore;
  for d = 0 to 2 do
    for i = 0 to 15 do
      Alcotest.(check bool) (key d i) (i mod 2 = 1) (V.member t (key d i))
    done
  done;
  match V.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "vlk invariants violated: %s" e

(* ------------------------------------------------------------------ *)

let () =
  Tutil.time_limit 300;
  Alcotest.run "chaos"
    [
      ( "stalled domain",
        List.concat_map
          (fun (prefix, make) ->
            [
              Alcotest.test_case (prefix ^ "insert: before child CAS") `Quick
                (fun () -> test_stall_insert_before_child_cas make ());
              Alcotest.test_case (prefix ^ "delete: before child CAS") `Quick
                (fun () -> test_stall_delete_before_child_cas make ());
              Alcotest.test_case (prefix ^ "replace: before first child CAS")
                `Quick (fun () -> test_stall_replace_before_first_cas make ());
              Alcotest.test_case (prefix ^ "replace: between child CASes") `Quick
                (fun () -> test_stall_replace_between_cases make ());
              Alcotest.test_case (prefix ^ "insert: before unflag") `Quick
                (fun () -> test_stall_insert_before_unflag make ());
            ])
          subjects
        @ [
            Alcotest.test_case "renewal across a second snapshot" `Quick
              test_stall_renew;
            Alcotest.test_case "stale chain copy never overwrites a later update"
              `Quick test_stall_chain;
            Alcotest.test_case "renewal helps a commit pending under a snapshot"
              `Quick test_stall_pending;
          ] );
      ( "figure 6 replace",
        List.concat_map
          (fun (prefix, make) ->
            [
              Alcotest.test_case (prefix ^ "exhaustive pairs, sequential") `Quick
                (fun () -> test_replace_special_cases_seq make);
              Alcotest.test_case (prefix ^ "exhaustive pairs, delay schedule")
                `Quick (fun () -> test_replace_special_cases_delayed make);
            ])
          subjects
        @ [
            Alcotest.test_case "linearizable under chaos" `Quick
              test_replace_linearizable_chaos;
            Alcotest.test_case "linearizable under chaos, level cache on"
              `Quick test_linearizable_chaos_cached;
          ] );
      ( "backoff",
        [
          Alcotest.test_case "counter" `Quick test_backoff_counter;
          Alcotest.test_case "primitive" `Quick test_backoff_primitive;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "crossing counters" `Quick test_crossing_counters;
          Alcotest.test_case "vlk under delays" `Quick
            (test_vlk_under_delays ~cache_bits:None);
          Alcotest.test_case "vlk under delays, level cache on" `Quick
            (test_vlk_under_delays ~cache_bits:(Some 12));
        ] );
    ]
