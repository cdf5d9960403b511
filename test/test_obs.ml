(* Tests for the Obs observability library: bucket math and percentile
   bracketing properties for the histogram, cross-domain correctness of
   the striped counters, ring semantics of the tracer and JSON
   round-trips. *)

module H = Obs.Histogram
module C = Obs.Counter
module T = Obs.Trace
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Histogram bucket math *)

(* Every value lands in a bucket that brackets it, and the bucket is
   narrow: 32 sub-buckets per power of two bound the width at v/32. *)
let prop_bucket_brackets =
  QCheck.Test.make ~count:2000 ~name:"bucket brackets value, width <= v/32"
    QCheck.(int_range 0 (1 lsl 50))
    (fun v ->
      let lo, hi = H.bucket_bounds (H.bucket_of_value v) in
      lo <= v && v <= hi && (hi - lo + 1) * 32 <= max 32 v)

(* Distinct buckets cover disjoint ranges in order, up to the last
   index any representable value can map to (higher indices exist only
   as slack in the array and would overflow bucket_bounds). *)
let test_bucket_bounds_contiguous () =
  for idx = 0 to H.bucket_of_value max_int do
    let lo, hi = H.bucket_bounds idx in
    Alcotest.(check bool) "lo <= hi" true (lo <= hi);
    if idx > 0 then begin
      let _, prev_hi = H.bucket_bounds (idx - 1) in
      Alcotest.(check int) "contiguous" (prev_hi + 1) lo
    end
  done

(* ------------------------------------------------------------------ *)
(* Histogram percentiles bracket the recorded samples *)

let exact_percentile sorted n p =
  let rank =
    let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  List.nth sorted (rank - 1)

let prop_percentiles_bracket =
  QCheck.Test.make ~count:300
    ~name:"percentiles within one bucket of the exact order statistic"
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 0 (1 lsl 40)))
    (fun samples ->
      QCheck.assume (samples <> []);
      let h = H.create () in
      List.iter (H.record h) samples;
      let s = H.snapshot h in
      let sorted = List.sort compare samples in
      let n = List.length samples in
      let ok p reported =
        let exact = exact_percentile sorted n p in
        (* The reported value is the bucket's upper bound clamped by the
           exact max, so it is >= the true order statistic and at most
           one bucket width (~v/32) above it. *)
        reported >= exact && reported <= exact + (exact / 32) + 1
      in
      s.H.count = n
      && s.H.min = List.hd sorted
      && s.H.max = List.nth sorted (n - 1)
      && s.H.sum = List.fold_left ( + ) 0 samples
      && ok 50.0 s.H.p50 && ok 90.0 s.H.p90 && ok 99.0 s.H.p99
      && ok 99.9 s.H.p999)

let test_empty_histogram () =
  let s = H.snapshot (H.create ()) in
  Alcotest.(check int) "count" 0 s.H.count;
  Alcotest.(check int) "p99" 0 s.H.p99;
  Alcotest.(check int) "min" 0 s.H.min

(* ------------------------------------------------------------------ *)
(* Sharding: recording split across domains equals single-domain
   recording, and merge_into concatenates histograms. *)

let chunks k xs =
  let n = List.length xs in
  let size = max 1 ((n + k - 1) / k) in
  let rec go acc cur count = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        if count = size then go (List.rev cur :: acc) [ x ] 1 tl
        else go acc (x :: cur) (count + 1) tl
  in
  go [] [] 0 xs

let test_shard_merge_equals_single () =
  let rng = Rng.of_int_seed 7 in
  let samples = List.init 5_000 (fun _ -> Rng.int rng 1_000_000) in
  let single = H.create () in
  List.iter (H.record single) samples;
  let sharded = H.create () in
  (* Each chunk is recorded by a different domain, hence (modulo domain-id
     wrap) a different stripe; domains run one at a time so even a wrap
     collision stays single-writer. *)
  List.iter
    (fun chunk ->
      Domain.join
        (Domain.spawn (fun () -> List.iter (H.record sharded) chunk)))
    (chunks 4 samples);
  Alcotest.(check bool)
    "snapshots equal" true
    (H.snapshot single = H.snapshot sharded);
  (* merge_into: pouring the sharded histogram into a third one changes
     nothing about the summary. *)
  let merged = H.create () in
  H.merge_into ~into:merged sharded;
  Alcotest.(check bool)
    "merge_into preserves summary" true
    (H.snapshot merged = H.snapshot single);
  (* Merging a second copy doubles the counts. *)
  H.merge_into ~into:merged single;
  let s = H.snapshot merged in
  Alcotest.(check int) "doubled count" (2 * List.length samples) s.H.count

(* ------------------------------------------------------------------ *)
(* Counter: exact under true parallelism *)

let test_counter_concurrent_sum () =
  let domains = max 2 (Domain.recommended_domain_count ()) in
  let per_domain = 50_000 in
  let c = C.create () in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              C.incr c
            done))
  in
  List.iter Domain.join workers;
  (* Stripes use fetch-and-add, so the total is exact even if domain ids
     collide on a stripe. *)
  Alcotest.(check int) "exact total" (domains * per_domain) (C.sum c)

let test_counter_add_reset () =
  let c = C.create () in
  C.add c 41;
  C.incr c;
  Alcotest.(check int) "sum" 42 (C.sum c);
  C.reset c;
  Alcotest.(check int) "reset" 0 (C.sum c)

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_trace_ring_wraps () =
  let t = T.create ~capacity:1000 () in
  Alcotest.(check int) "capacity rounded to pow2" 1024 (T.capacity t);
  let total = 1024 + 200 in
  for i = 0 to total - 1 do
    T.emit t T.Insert ~key:i ~ok:true ~retries:0
  done;
  let events = T.dump t in
  Alcotest.(check int) "retains capacity events" 1024 (List.length events);
  (* Oldest retained event is the one the 200 overflow writes stopped
     short of; order is oldest-first. *)
  Alcotest.(check int) "oldest key" 200 (List.hd events).T.key;
  Alcotest.(check int) "newest key" (total - 1)
    (List.nth events 1023).T.key;
  let rec nondecreasing = function
    | a :: (b :: _ as tl) -> a.T.t_ns <= b.T.t_ns && nondecreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "timestamps sorted" true (nondecreasing events);
  T.clear t;
  Alcotest.(check int) "clear empties" 0 (List.length (T.dump t))

let test_trace_json () =
  let t = T.create ~capacity:8 () in
  T.emit t T.Delete ~key:5 ~ok:false ~retries:3;
  let doc = T.to_json t in
  Alcotest.(check bool)
    "dropped counted" true
    (J.member doc "dropped" = Some (J.Int 0));
  match J.member doc "events" with
  | Some (J.Arr [ e ]) ->
      Alcotest.(check bool) "op" true (J.member e "op" = Some (J.Str "delete"));
      Alcotest.(check bool) "key" true (J.member e "key" = Some (J.Int 5));
      Alcotest.(check bool)
        "retries" true
        (J.member e "retries" = Some (J.Int 3));
      (* Instant events carry no span fields. *)
      Alcotest.(check bool) "no dur" true (J.member e "dur_ns" = None)
  | _ -> Alcotest.fail "expected one-event array under \"events\""

(* Ring overflow is counted per overwrite, never silent. *)
let test_trace_dropped () =
  let t = T.create ~capacity:8 () in
  Alcotest.(check int) "starts at zero" 0 (T.dropped t);
  for i = 0 to 7 do
    T.emit t T.Insert ~key:i ~ok:true ~retries:0
  done;
  Alcotest.(check int) "full ring, nothing dropped" 0 (T.dropped t);
  for i = 8 to 19 do
    T.emit t T.Insert ~key:i ~ok:true ~retries:0
  done;
  Alcotest.(check int) "12 overwrites counted" 12 (T.dropped t);
  Alcotest.(check bool)
    "surfaced in json" true
    (J.member (T.to_json t) "dropped" = Some (J.Int 12));
  T.clear t;
  Alcotest.(check int) "clear resets" 0 (T.dropped t)

(* Two live domains whose ids are congruent modulo [Obs.Stripe.count]
   (so a domain-id stripe would hand them the same ring) write
   concurrently; every event survives and none is counted dropped. *)
let test_trace_colliding_domains () =
  let per_domain = 5_000 in
  let t = T.create ~capacity:8192 () in
  let stripe () = (Domain.self () :> int) land Obs.Stripe.mask in
  let mine = stripe () in
  let ready = Atomic.make 0 in
  let emit () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for i = 1 to per_domain do
      T.emit_span t T.Insert ~key:i ~ok:true ~retries:0 ~attempt:1 ~site:"s"
        ~t0_ns:(Obs.Clock.now_ns ())
    done
  in
  (* Domain ids grow by one per spawn, so one of the next
     [Stripe.count] domains lands on the caller's stripe. *)
  let rec spawn_colliding tries =
    if tries = 0 then Alcotest.fail "no domain landed on the caller's stripe";
    let verdict = Atomic.make 0 in
    let d =
      Domain.spawn (fun () ->
          if stripe () = mine then begin
            Atomic.set verdict 1;
            emit ()
          end
          else Atomic.set verdict 2)
    in
    while Atomic.get verdict = 0 do
      Domain.cpu_relax ()
    done;
    if Atomic.get verdict = 1 then d
    else begin
      Domain.join d;
      spawn_colliding (tries - 1)
    end
  in
  let d = spawn_colliding (2 * Obs.Stripe.count) in
  emit ();
  Domain.join d;
  Alcotest.(check int) "every event kept" (2 * per_domain)
    (List.length (T.dump t));
  Alcotest.(check int) "nothing dropped" 0 (T.dropped t)

(* Attempt spans: closed spans with attempt number, site and duration. *)
let test_trace_spans () =
  let t = T.create ~capacity:8 () in
  let t0 = Obs.Clock.now_ns () in
  T.emit_span t T.Replace ~key:9 ~ok:false ~retries:1 ~attempt:2
    ~site:"flag_cas_lost" ~t0_ns:t0;
  match T.dump t with
  | [ e ] ->
      Alcotest.(check bool) "is_span" true (T.is_span e);
      Alcotest.(check int) "attempt" 2 e.T.attempt;
      Alcotest.(check string) "site" "flag_cas_lost" e.T.site;
      Alcotest.(check bool) "positive duration" true (e.T.dur_ns >= 1);
      Alcotest.(check int) "span starts at t0" t0 e.T.t_ns
  | _ -> Alcotest.fail "expected exactly one span"

(* The global recorder wires the instrumented tries to a ring: every
   completed update attempt produces at least one span. *)
let test_trace_recorder () =
  Alcotest.(check bool) "no recorder initially" true (T.recorder () = None);
  let t = T.create ~capacity:4096 () in
  T.set_recorder (Some t);
  Fun.protect ~finally:(fun () -> T.set_recorder None) @@ fun () ->
  Alcotest.(check bool) "active" true (Atomic.get T.active);
  let trie = Core.Patricia.create ~universe:1024 () in
  for k = 0 to 99 do
    ignore (Core.Patricia.insert trie k)
  done;
  for k = 0 to 49 do
    ignore (Core.Patricia.delete trie k)
  done;
  let events = T.dump t in
  let spans = List.filter T.is_span events in
  Alcotest.(check bool)
    "one span per completed attempt" true
    (List.length spans >= 150);
  let applied =
    List.filter (fun e -> e.T.site = "applied" && e.T.ok) spans
  in
  Alcotest.(check int) "all uncontended attempts applied" 150
    (List.length applied);
  List.iter
    (fun e -> Alcotest.(check bool) "attempt >= 1" true (e.T.attempt >= 1))
    spans;
  T.set_recorder None;
  Alcotest.(check bool) "inactive after unset" false (Atomic.get T.active);
  let before = List.length (T.dump t) in
  ignore (Core.Patricia.insert trie 1000);
  Alcotest.(check int)
    "no recording once unset" before
    (List.length (T.dump t))

(* ------------------------------------------------------------------ *)
(* JSON round-trip *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("name", J.Str "quote\" back\\slash\nnewline\ttab");
        ("pi", J.Float 3.25);
        ("neg", J.Int (-42));
        ("flags", J.Arr [ J.Bool true; J.Bool false; J.Null ]);
        ("empty_arr", J.Arr []);
        ("empty_obj", J.Obj []);
        ("nested", J.Obj [ ("xs", J.Arr [ J.Int 1; J.Int 2; J.Int 3 ]) ]);
      ]
  in
  Alcotest.(check bool)
    "round-trips" true
    (J.of_string (J.to_string doc) = doc)

let test_json_specials () =
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float nan));
  Alcotest.(check string)
    "inf is null" "null"
    (J.to_string (J.Float infinity));
  (* Floats keep a decimal point so they read back as floats. *)
  Alcotest.(check bool)
    "float stays float" true
    (J.of_string (J.to_string (J.Float 2.0)) = J.Float 2.0)

let test_json_parse_errors () =
  let fails s =
    match J.of_string s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unterminated obj" true (fails "{");
  Alcotest.(check bool) "trailing garbage" true (fails "1 2");
  Alcotest.(check bool) "bad literal" true (fails "trve");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc")

(* Parser edge cases: escape sequences, deeply nested arrays, and
   exponent-form numbers — shapes other tools may emit even though our
   own emitter does not. *)
let test_json_escapes () =
  Alcotest.(check bool)
    "control escapes" true
    (J.of_string "\"a\\nb\\tc\\rd\\be\\ff\"" = J.Str "a\nb\tc\rd\be\012f");
  Alcotest.(check bool)
    "solidus and backslash" true
    (J.of_string "\"a\\/b\\\\c\\\"d\"" = J.Str "a/b\\c\"d");
  Alcotest.(check bool)
    "unicode escape below 0x80" true
    (J.of_string "\"\\u0041\\u005a\"" = J.Str "AZ");
  Alcotest.(check bool)
    "two-byte UTF-8 from \\u escape" true
    (J.of_string "\"\\u00e9\"" = J.Str "\xc3\xa9");
  Alcotest.(check bool)
    "three-byte UTF-8 from \\u escape" true
    (J.of_string "\"\\u20ac\"" = J.Str "\xe2\x82\xac");
  Alcotest.(check bool)
    "surrogate pair combines to four-byte UTF-8" true
    (J.of_string "\"\\ud83d\\ude00\"" = J.Str "\xf0\x9f\x98\x80");
  let fails label input =
    match J.of_string input with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.fail (label ^ " must fail")
  in
  fails "truncated \\u escape" "\"\\u00";
  fails "truncated \\u escape before quote" "\"\\u00e\"";
  fails "non-hex in \\u escape" "\"\\uzzzz\"";
  fails "sign accepted by int_of_string" "\"\\u-123\"";
  fails "underscore accepted by int_of_string" "\"\\u12_3\"";
  fails "lone high surrogate" "\"\\ud83d\"";
  fails "high surrogate + non-escape" "\"\\ud83dxx\"";
  fails "high surrogate + non-surrogate escape" "\"\\ud83d\\u0041\"";
  fails "lone low surrogate" "\"\\ude00\"";
  fails "unknown escape" "\"\\x41\"";
  (* Our emitter escapes control characters so they round-trip. *)
  let s = "line1\nline2\ttab \"quoted\" back\\slash" in
  Alcotest.(check bool)
    "escape round-trip" true
    (J.of_string (J.to_string (J.Str s)) = J.Str s)

let test_json_nested_arrays () =
  let deep = J.Arr [ J.Arr [ J.Arr [ J.Arr [ J.Int 1; J.Arr [] ] ] ] ] in
  Alcotest.(check bool)
    "nested array round-trip" true
    (J.of_string (J.to_string deep) = deep);
  Alcotest.(check bool)
    "mixed nesting parses" true
    (J.of_string "[[1,[2,[3]]],[],[[[]]]]"
    = J.Arr
        [
          J.Arr [ J.Int 1; J.Arr [ J.Int 2; J.Arr [ J.Int 3 ] ] ];
          J.Arr [];
          J.Arr [ J.Arr [ J.Arr [] ] ];
        ])

let test_json_exponent_numbers () =
  Alcotest.(check bool) "1e3" true (J.of_string "1e3" = J.Float 1000.0);
  Alcotest.(check bool) "1E3" true (J.of_string "1E3" = J.Float 1000.0);
  Alcotest.(check bool)
    "negative exponent" true
    (J.of_string "25e-2" = J.Float 0.25);
  Alcotest.(check bool)
    "signed mantissa" true
    (J.of_string "-1.5e2" = J.Float (-150.0));
  Alcotest.(check bool)
    "plus exponent" true
    (J.of_string "2.5e+1" = J.Float 25.0);
  Alcotest.(check bool)
    "int stays int" true
    (J.of_string "1000" = J.Int 1000)

(* Round-trip a metrics-shaped document through an actual file, the way
   the benchmark drivers write them. *)
let test_json_file_roundtrip () =
  let doc =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("benchmark", J.Str "test");
        ( "datapoints",
          J.Arr
            [
              J.Obj
                [
                  ("figure", J.Str "Figure 8 (top)");
                  ("structure", J.Str "PAT");
                  ("threads", J.Int 2);
                  ("mean_ops_s", J.Float 123456.75);
                  ("stddev_ops_s", J.Float 0.5);
                ];
            ] );
      ]
  in
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  J.to_file path doc;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Alcotest.(check bool) "file round-trips" true (J.of_string contents = doc)

(* ------------------------------------------------------------------ *)
(* Perfetto export *)

module P = Obs.Perfetto

(* Fill a trace from two concurrent domains plus the main one, so the
   export must produce several tracks. *)
let make_busy_trace () =
  let t = T.create ~capacity:1024 () in
  T.set_recorder (Some t);
  Fun.protect ~finally:(fun () -> T.set_recorder None) @@ fun () ->
  let work seed () =
    let trie = Core.Patricia.create ~universe:256 () in
    for k = 0 to 99 do
      ignore (Core.Patricia.insert trie ((k + seed) mod 250))
    done
  in
  let d1 = Domain.spawn (work 0) and d2 = Domain.spawn (work 50) in
  work 100 ();
  Domain.join d1;
  Domain.join d2;
  t

let test_perfetto_schema () =
  let t = make_busy_trace () in
  let doc = P.to_json t in
  (* The export validates against our own schema checker... *)
  (match P.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("validate rejected own output: " ^ m));
  (* ...and the serialized form is real JSON (timestamps are printed at
     %.12g, so value equality is not expected — parseability is). *)
  (match J.of_string (J.to_string doc) with
  | J.Obj _ -> ()
  | _ -> Alcotest.fail "serialized trace is not a JSON object");
  let events =
    match J.member doc "traceEvents" with
    | Some (J.Arr es) -> es
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let ph e =
    match J.member e "ph" with Some (J.Str s) -> s | _ -> "?"
  in
  let spans = List.filter (fun e -> ph e = "X") events in
  let metas = List.filter (fun e -> ph e = "M") events in
  Alcotest.(check bool)
    "one span per completed attempt" true
    (List.length spans >= 300);
  (* One thread_name metadata record per domain that emitted events;
     three domains emitted, and every span's tid has a track. *)
  let tids =
    List.sort_uniq compare
      (List.filter_map (fun e -> J.member e "tid") spans)
  in
  let meta_tids =
    List.sort_uniq compare
      (List.filter_map (fun e -> J.member e "tid") metas)
  in
  Alcotest.(check bool) "three or more tracks" true (List.length tids >= 3);
  Alcotest.(check bool) "metadata names every track" true (tids = meta_tids);
  List.iter
    (fun e ->
      (match J.member e "dur" with
      | Some (J.Float d) -> Alcotest.(check bool) "dur > 0" true (d > 0.0)
      | Some (J.Int d) -> Alcotest.(check bool) "dur > 0" true (d > 0)
      | _ -> Alcotest.fail "span without dur");
      match J.member e "args" with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.fail "span without args")
    spans

let test_perfetto_validate_rejects () =
  let bad shape = P.validate shape <> Ok () in
  Alcotest.(check bool) "not an object" true (bad (J.Int 3));
  Alcotest.(check bool)
    "traceEvents not an array" true
    (bad (J.Obj [ ("traceEvents", J.Int 1) ]));
  Alcotest.(check bool)
    "event without ph" true
    (bad (J.Obj [ ("traceEvents", J.Arr [ J.Obj [ ("name", J.Str "x") ] ]) ]));
  Alcotest.(check bool)
    "unknown phase" true
    (bad
       (J.Obj
          [
            ( "traceEvents",
              J.Arr
                [
                  J.Obj
                    [
                      ("name", J.Str "x");
                      ("ph", J.Str "Z");
                      ("pid", J.Int 0);
                      ("tid", J.Int 0);
                      ("ts", J.Int 1);
                    ];
                ] );
          ]))

(* ------------------------------------------------------------------ *)
(* Retry attribution *)

module A = Obs.Attribution

let test_attribution_mechanics () =
  A.set_enabled true;
  Fun.protect ~finally:(fun () -> A.set_enabled false) @@ fun () ->
  A.mark A.Flag_cas_lost ~attempt:1;
  A.mark A.Flag_cas_lost ~attempt:3;
  A.mark A.Child_cas_lost ~attempt:0;
  A.mark A.Flagged_ancestor ~attempt:2;
  A.mark A.Flagged_ancestor ~attempt:2;
  A.op_complete ();
  Alcotest.(check int) "total" 5 (A.total ());
  let by_name name =
    List.find (fun (s : A.summary) -> s.A.name = name) (A.snapshot ())
  in
  Alcotest.(check int) "flag_cas_lost" 2 (by_name "flag_cas_lost").A.count;
  Alcotest.(check int) "child_cas_lost" 1 (by_name "child_cas_lost").A.count;
  Alcotest.(check int) "backtrack" 0 (by_name "backtrack").A.count;
  Alcotest.(check int)
    "attempt histogram populated" 2
    (by_name "flag_cas_lost").A.attempts.H.count;
  (* The two Flagged_ancestor marks belong to the one completed op:
     help-chain depth 2. *)
  let hd = A.help_depth_summary () in
  Alcotest.(check int) "one chain recorded" 1 hd.H.count;
  Alcotest.(check int) "chain depth" 2 hd.H.max;
  (* Re-enabling from disabled resets. *)
  A.set_enabled false;
  A.set_enabled true;
  Alcotest.(check int) "reset on re-enable" 0 (A.total ())

let test_attribution_disabled_is_noop () =
  A.set_enabled false;
  A.mark A.Backtrack ~attempt:1;
  A.op_complete ();
  Alcotest.(check int) "nothing recorded" 0 (A.total ())

(* End-to-end: a contended workload attributes every lost CAS to some
   cause, and the JSON snapshot is well-formed. *)
let test_attribution_concurrent () =
  A.set_enabled true;
  Fun.protect ~finally:(fun () -> A.set_enabled false) @@ fun () ->
  let trie = Core.Patricia.create ~universe:64 ~record_stats:true () in
  let worker seed =
    Domain.spawn (fun () ->
        let rng = Rng.of_int_seed seed in
        for _ = 1 to 20_000 do
          let k = Rng.int rng 64 in
          if Rng.int rng 2 = 0 then ignore (Core.Patricia.insert trie k)
          else ignore (Core.Patricia.delete trie k)
        done)
  in
  let ds = List.init 2 worker in
  List.iter Domain.join ds;
  (* Whatever contention materialized, the books must balance: snapshot
     counts sum to total, and the JSON form parses back. *)
  let total =
    List.fold_left (fun acc (s : A.summary) -> acc + s.A.count) 0 (A.snapshot ())
  in
  Alcotest.(check int) "by-cause counts sum to total" (A.total ()) total;
  (match J.of_string (J.to_string (A.to_json ())) with
  | J.Obj kvs ->
      Alcotest.(check bool) "enabled field" true (List.mem_assoc "enabled" kvs);
      Alcotest.(check bool) "by_cause field" true (List.mem_assoc "by_cause" kvs)
  | _ -> Alcotest.fail "attribution json not an object");
  (* On a 64-key universe with two domains, some retries should exist;
     don't require a specific cause, just consistency with the trie's
     own counters: flag failures it counted appear as flag_cas_lost. *)
  match Core.Patricia.stats_snapshot trie with
  | Some st ->
      let flag_lost =
        (List.find (fun (s : A.summary) -> s.A.name = "flag_cas_lost")
           (A.snapshot ()))
          .A.count
      in
      Alcotest.(check int)
        "flag_cas_lost mirrors trie flag_failures"
        st.Core.Patricia.flag_failures flag_lost
  | None -> Alcotest.fail "stats requested but absent"

(* ------------------------------------------------------------------ *)
(* Slowlog: lock-free exact top-K of slowest requests *)

let slow_entry total =
  Obs.Slowlog.
    {
      op = "insert";
      key = total;
      conn = 0;
      seq = total;
      start_ns = 0;
      total_ns = total;
      stages = [ ("queue", 1); ("trie", total - 1) ];
    }

let test_slowlog_topk_sequential () =
  let sl = Obs.Slowlog.create ~k:4 () in
  Alcotest.(check int) "capacity" 4 (Obs.Slowlog.capacity sl);
  Alcotest.(check int) "floor starts open" (-1) (Obs.Slowlog.admission_floor sl);
  for total = 1 to 10 do
    Obs.Slowlog.note sl (slow_entry total)
  done;
  let totals =
    List.map (fun e -> e.Obs.Slowlog.total_ns) (Obs.Slowlog.dump sl)
  in
  Alcotest.(check (list int)) "exact top-4, slowest first" [ 10; 9; 8; 7 ]
    totals;
  Alcotest.(check bool) "floor reached the min retained" true
    (Obs.Slowlog.admission_floor sl >= 6);
  (* Below-floor entries are rejected without touching the table. *)
  let before = Obs.Slowlog.inserted sl in
  Obs.Slowlog.note sl (slow_entry 2);
  Alcotest.(check int) "below floor not admitted" before
    (Obs.Slowlog.inserted sl);
  Obs.Slowlog.clear sl;
  Alcotest.(check (list int)) "clear empties" []
    (List.map (fun e -> e.Obs.Slowlog.total_ns) (Obs.Slowlog.dump sl))

let test_slowlog_concurrent_exact () =
  (* 4 domains insert disjoint totals; at quiescence the table must hold
     exactly the K globally largest — the replacement CAS only ever
     evicts a current global minimum, so no admitted larger entry can be
     lost to a race. *)
  let k = 8 and domains = 4 and per = 2_000 in
  let sl = Obs.Slowlog.create ~k () in
  let worker d () =
    let rng = Rng.of_int_seed (0xD00D + d) in
    let order = Array.init per (fun i -> (d * per) + i + 1) in
    (* Shuffle so admissions are not monotone per domain. *)
    for i = per - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter (fun total -> Obs.Slowlog.note sl (slow_entry total)) order
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let expected = List.init k (fun i -> (domains * per) - i) in
  let got =
    List.map (fun e -> e.Obs.Slowlog.total_ns) (Obs.Slowlog.dump sl)
  in
  Alcotest.(check (list int)) "concurrent top-K exact" expected got

let test_slowlog_json () =
  let sl = Obs.Slowlog.create ~k:2 () in
  Obs.Slowlog.note sl (slow_entry 5);
  let j = Obs.Slowlog.to_json sl in
  (* Round-trips through the parser and carries the stage breakdown. *)
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | exception Obs.Json.Parse_error m ->
      Alcotest.failf "slowlog json unparseable: %s" m
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "has entries" true (List.mem_assoc "entries" fields);
      Alcotest.(check bool) "has capacity" true
        (List.mem_assoc "capacity" fields)
  | _ -> Alcotest.fail "slowlog json not an object"

(* ------------------------------------------------------------------ *)
(* Watchdog: fake-clock state machine *)

let wd_status wd =
  let code, body = Obs.Watchdog.healthz wd () in
  (code, body)

let test_watchdog_state_machine () =
  let now = ref 0 in
  let wd =
    Obs.Watchdog.create ~degraded_after_s:1.0 ~stalled_after_s:5.0
      ~now:(fun () -> !now)
      ()
  in
  let beat = Obs.Watchdog.heartbeat wd ~name:"loop" in
  Alcotest.(check (pair int string)) "fresh heartbeat ok" (200, "ok\n")
    (wd_status wd);
  Alcotest.(check int) "no warnings yet" 0 (Obs.Watchdog.warnings wd);
  now := 2_000_000_000;
  let code, body = wd_status wd in
  Alcotest.(check int) "degraded stays 200" 200 code;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "degraded names the source" true
    (String.length body >= 9
    && String.sub body 0 9 = "degraded:"
    && contains body "loop");
  Alcotest.(check int) "transition warned" 1 (Obs.Watchdog.warnings wd);
  now := 6_000_000_000;
  let code, body = wd_status wd in
  Alcotest.(check int) "stalled is 503" 503 code;
  Alcotest.(check bool) "stalled names the source" true
    (String.sub body 0 8 = "stalled:");
  Alcotest.(check int) "second transition warned" 2 (Obs.Watchdog.warnings wd);
  (* Re-evaluating in the same state does not re-warn. *)
  ignore (wd_status wd);
  Alcotest.(check int) "steady state silent" 2 (Obs.Watchdog.warnings wd);
  beat ();
  Alcotest.(check (pair int string)) "recovery flips back" (200, "ok\n")
    (wd_status wd);
  Alcotest.(check int) "recovery does not warn" 2 (Obs.Watchdog.warnings wd)

let test_watchdog_gauge_thresholds () =
  let now = ref 0 in
  let depth = ref 0 in
  let wd = Obs.Watchdog.create ~now:(fun () -> !now) () in
  Obs.Watchdog.gauge wd ~name:"wal-queue" ~degraded_above:10 ~stalled_above:100
    (fun () -> !depth);
  Alcotest.(check int) "below thresholds ok" 200 (fst (wd_status wd));
  depth := 50;
  let code, body = wd_status wd in
  Alcotest.(check int) "above degraded" 200 code;
  Alcotest.(check bool) "reason carries value" true
    (String.sub body 0 9 = "degraded:");
  depth := 500;
  Alcotest.(check int) "above stalled is 503" 503 (fst (wd_status wd));
  depth := 0;
  Alcotest.(check int) "gauge recovery" 200 (fst (wd_status wd));
  (* A probe that throws is a stall, not a crash. *)
  let wd2 = Obs.Watchdog.create ~now:(fun () -> !now) () in
  Obs.Watchdog.gauge wd2 ~name:"sick" ~stalled_above:1 (fun () ->
      failwith "probe boom");
  Alcotest.(check int) "throwing probe stalls" 503 (fst (wd_status wd2))

(* ------------------------------------------------------------------ *)
(* Perfetto fusion: request/stage/runtime spans share one document *)

let test_perfetto_track_names () =
  Alcotest.(check string) "domain track" "domain-3" (Obs.Perfetto.track_name 3);
  Alcotest.(check string) "conn track" "conn-7"
    (Obs.Perfetto.track_name (Obs.Trace.conn_track_base + 7));
  Alcotest.(check string) "runtime track" "runtime-2"
    (Obs.Perfetto.track_name (Obs.Trace.runtime_track_base + 2))

let test_perfetto_fused_layers_validate () =
  let t = Obs.Trace.create ~capacity:64 () in
  (* Layer 1: a trie attempt span on the writer's domain track. *)
  Obs.Trace.emit_span t Obs.Trace.Insert ~key:1 ~ok:true ~retries:0 ~attempt:1
    ~site:"flag_cas" ~t0_ns:1_000;
  (* Layer 2: a request plus stage spans on a connection track. *)
  let conn = Obs.Trace.conn_track_base + 1 in
  Obs.Trace.add_span t Obs.Trace.Insert ~track:conn ~key:1 ~ok:true ~retries:0
    ~attempt:0 ~site:"request" ~t0_ns:1_000 ~dur_ns:5_000;
  Obs.Trace.add_span t (Obs.Trace.Custom "queue") ~track:conn ~key:1 ~ok:true
    ~retries:0 ~attempt:0 ~site:"stage:queue" ~t0_ns:1_000 ~dur_ns:500;
  (* Layer 3: a GC span on a runtime track. *)
  Obs.Trace.add_span t (Obs.Trace.Custom "minor")
    ~track:(Obs.Trace.runtime_track_base + 1)
    ~key:0 ~ok:true ~retries:0 ~attempt:0 ~site:"rt:minor" ~t0_ns:2_000
    ~dur_ns:300;
  let doc = Obs.Perfetto.to_json t in
  (match Obs.Perfetto.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fused doc rejected: %s" m);
  (* The three layers land in their own categories. *)
  let cats = ref [] in
  (match doc with
  | Obs.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Obs.Json.Arr evs ->
          List.iter
            (function
              | Obs.Json.Obj e -> (
                  match List.assoc_opt "cat" e with
                  | Some (Obs.Json.Str c) ->
                      if not (List.mem c !cats) then cats := c :: !cats
                  | _ -> ())
              | _ -> ())
            evs
      | _ -> Alcotest.fail "traceEvents not an array")
  | _ -> Alcotest.fail "doc not an object");
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " category present") true (List.mem c !cats))
    [ "attempt"; "request"; "stage"; "runtime" ]

(* ------------------------------------------------------------------ *)
(* Runtime-events collector: live smoke (skipped if unavailable) *)

let test_runtime_collector_smoke () =
  match Obs.Runtime.start ~poll_interval_s:0.001 () with
  | Error m ->
      (* Environment without runtime-events support: degrading, never
         failing, is exactly the contract. *)
      Printf.printf "runtime-events unavailable (%s), skipping\n%!" m
  | Ok rt ->
      Obs.Runtime.reset ();
      for _ = 1 to 5 do
        ignore (Sys.opaque_identity (Array.init 200_000 string_of_int));
        Gc.full_major ()
      done;
      Unix.sleepf 0.05;
      Obs.Runtime.stop rt;
      let snap = Obs.Runtime.snapshot () in
      let activity =
        List.assoc "minor_collections" snap
        + List.assoc "major_slices" snap
        + List.assoc "stw_pauses" snap
      in
      Alcotest.(check bool) "collector observed GC activity" true (activity > 0);
      (* The exposition renders without violating family contiguity. *)
      let b = Obs.Prometheus.create () in
      Obs.Runtime.emit b;
      let text = Obs.Prometheus.to_string b in
      let _, errors = Obs.Prometheus.parse_samples text in
      Alcotest.(check (list string)) "gc families parse clean" [] errors

(* ------------------------------------------------------------------ *)
(* Prometheus exposition parser *)

let test_prometheus_parser () =
  let text =
    "# HELP x_total help text\n# TYPE x_total counter\nx_total 41\n\
     lat{op=\"insert\",quantile=\"0.99\"} 1.5e3\n\
     esc{msg=\"a\\\"b\\\\c\"} 2 1712345678\n"
  in
  let samples, errors = Obs.Prometheus.parse_samples text in
  Alcotest.(check (list string)) "no parse errors" [] errors;
  Alcotest.(check (option (float 0.001))) "bare sample" (Some 41.0)
    (Obs.Prometheus.find_sample samples ~name:"x_total" ~labels:[]);
  Alcotest.(check (option (float 0.001))) "labelled sample" (Some 1500.0)
    (Obs.Prometheus.find_sample samples ~name:"lat"
       ~labels:[ ("op", "insert"); ("quantile", "0.99") ]);
  Alcotest.(check (option (float 0.001))) "escapes and timestamp" (Some 2.0)
    (Obs.Prometheus.find_sample samples ~name:"esc"
       ~labels:[ ("msg", "a\"b\\c") ]);
  Alcotest.(check (option (float 0.001))) "label subset match" (Some 1500.0)
    (Obs.Prometheus.find_sample samples ~name:"lat" ~labels:[ ("op", "insert") ]);
  Alcotest.(check (option (float 0.001))) "missing is None" None
    (Obs.Prometheus.find_sample samples ~name:"lat"
       ~labels:[ ("op", "delete") ]);
  let _, errs = Obs.Prometheus.parse_samples "broken{ 12\n" in
  Alcotest.(check bool) "malformed line reported" true (errs <> [])

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          qt prop_bucket_brackets;
          Alcotest.test_case "bucket bounds contiguous" `Quick
            test_bucket_bounds_contiguous;
          qt prop_percentiles_bracket;
          Alcotest.test_case "empty histogram" `Quick test_empty_histogram;
          Alcotest.test_case "shard merge equals single-domain" `Quick
            test_shard_merge_equals_single;
        ] );
      ( "counter",
        [
          Alcotest.test_case "concurrent sum exact" `Quick
            test_counter_concurrent_sum;
          Alcotest.test_case "add and reset" `Quick test_counter_add_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraps, dump ordered" `Quick
            test_trace_ring_wraps;
          Alcotest.test_case "event json" `Quick test_trace_json;
          Alcotest.test_case "overflow counted, never silent" `Quick
            test_trace_dropped;
          Alcotest.test_case "colliding domain ids keep every event" `Quick
            test_trace_colliding_domains;
          Alcotest.test_case "attempt spans" `Quick test_trace_spans;
          Alcotest.test_case "global recorder wires the trie" `Quick
            test_trace_recorder;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "specials" `Quick test_json_specials;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escape sequences" `Quick test_json_escapes;
          Alcotest.test_case "nested arrays" `Quick test_json_nested_arrays;
          Alcotest.test_case "exponent numbers" `Quick
            test_json_exponent_numbers;
          Alcotest.test_case "file round-trip" `Quick test_json_file_roundtrip;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "schema-valid multi-track export" `Quick
            test_perfetto_schema;
          Alcotest.test_case "validate rejects malformed docs" `Quick
            test_perfetto_validate_rejects;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "mark, snapshot, reset" `Quick
            test_attribution_mechanics;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_attribution_disabled_is_noop;
          Alcotest.test_case "concurrent workload balances" `Quick
            test_attribution_concurrent;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "sequential top-K and floor" `Quick
            test_slowlog_topk_sequential;
          Alcotest.test_case "concurrent top-K exact" `Quick
            test_slowlog_concurrent_exact;
          Alcotest.test_case "json dump" `Quick test_slowlog_json;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "heartbeat state machine" `Quick
            test_watchdog_state_machine;
          Alcotest.test_case "gauge thresholds and sick probes" `Quick
            test_watchdog_gauge_thresholds;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "track namespaces" `Quick
            test_perfetto_track_names;
          Alcotest.test_case "fused layers validate" `Quick
            test_perfetto_fused_layers_validate;
          Alcotest.test_case "runtime collector smoke" `Quick
            test_runtime_collector_smoke;
          Alcotest.test_case "prometheus parser" `Quick test_prometheus_parser;
        ] );
    ]
