(* Tests for the benchmark harness: mixes, key streams, statistics, and
   a short end-to-end throughput run per structure. *)

let test_mix_validation () =
  Alcotest.check_raises "must sum to 100"
    (Invalid_argument "Mix.v: percentages must sum to 100") (fun () ->
      ignore (Harness.Mix.v ~insert:50 ~delete:49 ()));
  let m = Harness.Mix.v ~insert:5 ~delete:5 ~find:90 () in
  Alcotest.(check string) "label" "i5-d5-f90" (Harness.Mix.to_string m);
  Alcotest.(check string) "replace label" "i10-d10-r80"
    (Harness.Mix.to_string Harness.Mix.i10_d10_r80)

let test_paper_mixes () =
  let open Harness.Mix in
  Alcotest.(check int) "i5-d5-f90 find" 90 i5_d5_f90.find;
  Alcotest.(check int) "i50-d50-f0 insert" 50 i50_d50_f0.insert;
  Alcotest.(check int) "i15-d15-f70 delete" 15 i15_d15_f70.delete;
  Alcotest.(check int) "i10-d10-r80 replace" 80 i10_d10_r80.replace

let test_uniform_stream_bounds () =
  let rng = Rng.of_int_seed 5 in
  let next = Harness.key_stream Harness.Uniform 1000 rng in
  for _ = 1 to 10_000 do
    let k = next () in
    if k < 0 || k >= 1000 then Alcotest.failf "key %d out of range" k
  done

let test_clustered_stream_runs () =
  (* The paper's non-uniform workload: runs of 50 consecutive keys. *)
  let rng = Rng.of_int_seed 6 in
  let next = Harness.key_stream (Harness.Clustered 50) 100_000 rng in
  let k0 = next () in
  for i = 1 to 49 do
    let k = next () in
    Alcotest.(check int) "consecutive" ((k0 + i) mod 100_000) k
  done;
  (* Next run starts somewhere fresh but stays in range. *)
  let k' = next () in
  if k' < 0 || k' >= 100_000 then Alcotest.failf "key %d out of range" k'

let test_clustered_wraps () =
  let rng = Rng.of_int_seed 7 in
  let universe = 60 in
  let next = Harness.key_stream (Harness.Clustered 50) universe rng in
  for _ = 1 to 500 do
    let k = next () in
    if k < 0 || k >= universe then Alcotest.failf "key %d escaped [0,%d)" k universe
  done

let test_mean_stddev () =
  let d = Harness.mean_stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 d.Harness.mean;
  Alcotest.(check (float 1e-9)) "stddev" 2.0 d.Harness.stddev;
  let single = Harness.mean_stddev [ 42.0 ] in
  Alcotest.(check (float 1e-9)) "single mean" 42.0 single.Harness.mean;
  Alcotest.(check (float 1e-9)) "single stddev" 0.0 single.Harness.stddev

let test_prefill_half_full () =
  let present = ref 0 in
  let ops =
    Harness.
      {
        insert =
          (fun _ ->
            incr present;
            true);
        delete = (fun _ -> true);
        member = (fun _ -> true);
        replace = None;
        stats = None;
      }
  in
  let rng = Rng.of_int_seed 11 in
  Harness.prefill ops 10_000 rng;
  Alcotest.(check bool) "about half"
    true
    (!present > 4_500 && !present < 5_500)

let test_throughput_run_all_subjects () =
  (* End to end: every (entry, panel, subject) of the evaluation table
     completes a short trial at a tiny universe, through the override
     [patbench figure --range] applies, at each thread count the entry
     allows, and reports a positive throughput. *)
  let open Harness in
  List.iter
    (fun e ->
      List.iter
        (fun p ->
          let workload = panel_workload ~range:1024 p in
          List.iter
            (fun s ->
              List.iter
                (fun threads ->
                  (* The sequential trie is only correct on one domain. *)
                  if s.label = Core.Patricia_seq.name && threads > 1 then
                    Alcotest.failf "%s: %s on %d domains" e.id s.label threads;
                  let dp =
                    run_subject s workload
                      {
                        default_config with
                        threads;
                        seconds = 0.01;
                        trials = 1;
                        warmup_seconds = 0.0;
                      }
                  in
                  if dp.mean <= 0.0 then
                    Alcotest.failf "%s / %s / %s: non-positive throughput"
                      e.id p.key s.label)
                (entry_threads e [ 1; 2 ]))
            e.subjects)
        e.panels)
    experiments

(* The counters of a data point are summed over its trials, so a
   per-operation rate must divide by every trial's operations: at one
   thread the rate does not depend on the number of trials. *)
let test_per_op_over_trials () =
  let open Harness in
  let e = List.find (fun e -> e.id = "helping") experiments in
  let p = List.hd e.panels and s = List.hd e.subjects in
  let attempts trials =
    let full =
      run_subject_full s p.workload
        {
          threads = 1;
          seconds = 0.05;
          trials;
          warmup_seconds = 0.0;
          seed = 2013;
        }
    in
    Alcotest.(check int) "one sample per trial" trials
      (List.length full.dp.samples);
    match per_op full "attempts" with
    | Some a when a > 0.0 -> a
    | _ -> Alcotest.fail "helping records no attempts"
  in
  let one = attempts 1 and two = attempts 2 in
  if Float.abs (two -. one) > 0.1 *. one then
    Alcotest.failf "attempts/op %.4f at 1 trial, %.4f at 2" one two

let test_replace_workload_runs () =
  let workload =
    Harness.{ universe = 500; mix = Mix.i10_d10_r80; dist = Uniform }
  in
  let config =
    Harness.
      {
        default_config with
        threads = 2;
        seconds = 0.05;
        trials = 1;
        warmup_seconds = 0.0;
      }
  in
  let dp = Harness.run_subject Harness.pat_subject workload config in
  Alcotest.(check bool) "positive" true (dp.Harness.mean > 0.0)

let test_clustered_workload_runs () =
  let workload =
    Harness.{ universe = 2000; mix = Mix.i15_d15_f70; dist = Clustered 50 }
  in
  let config =
    Harness.
      {
        default_config with
        threads = 2;
        seconds = 0.05;
        trials = 1;
        warmup_seconds = 0.0;
      }
  in
  List.iter
    (fun s ->
      let dp = Harness.run_subject s workload config in
      if dp.Harness.mean <= 0.0 then
        Alcotest.failf "%s clustered run failed" s.Harness.label)
    Harness.all_subjects

let test_subject_labels () =
  Alcotest.(check (list string))
    "paper legend order"
    [ "PAT"; "4-ST"; "BST"; "AVL"; "SL"; "Ctrie" ]
    (List.map (fun s -> s.Harness.label) Harness.all_subjects)

(* The evaluation table is the only statement of the paper's figures,
   so their constants are checked here against Section V. *)
let test_evaluation_table () =
  let open Harness in
  let unique what xs =
    List.iter
      (fun x ->
        if List.length (List.filter (String.equal x) xs) > 1 then
          Alcotest.failf "%s %S appears twice" what x)
      xs
  in
  unique "id" (List.map (fun e -> e.id) experiments);
  unique "gate key"
    (List.concat_map (fun e -> List.map (fun p -> p.key) e.panels) experiments);
  List.iter
    (fun e ->
      List.iter
        (fun p ->
          if p.workload.mix.Mix.replace > 0 then
            List.iter
              (fun s ->
                if (s.make ~universe:16).replace = None then
                  Alcotest.failf "%s: %s has no replace" p.key s.label)
              e.subjects)
        e.panels)
    experiments;
  let figure id =
    match List.find_opt (fun e -> e.id = id) experiments with
    | Some e ->
        ( List.map (fun s -> s.label) e.subjects,
          List.map
            (fun p ->
              (p.key, p.workload.universe, p.workload.mix, p.workload.dist))
            e.panels )
    | None -> Alcotest.failf "no figure %s" id
  in
  let six = [ "PAT"; "4-ST"; "BST"; "AVL"; "SL"; "Ctrie" ] in
  let i5_d5_f90 = Mix.v ~insert:5 ~delete:5 ~find:90 ()
  and i50_d50_f0 = Mix.v ~insert:50 ~delete:50 ~find:0 () in
  let check id expected =
    if figure id <> expected then
      Alcotest.failf "figure %s differs from the paper" id
  in
  Alcotest.(check (list string)) "paper figures" [ "8"; "9"; "10"; "11" ]
    paper_figures;
  check "8"
    ( six,
      [
        ("Figure 8 (top)", 1_000_000, i5_d5_f90, Uniform);
        ("Figure 8 (bottom)", 1_000_000, i50_d50_f0, Uniform);
      ] );
  check "9"
    ( six,
      [
        ("Figure 9 (top)", 100, i5_d5_f90, Uniform);
        ("Figure 9 (bottom)", 100, i50_d50_f0, Uniform);
      ] );
  check "10"
    ( [ "PAT" ],
      [
        ( "Figure 10",
          1_000_000,
          Mix.v ~insert:10 ~delete:10 ~replace:80 (),
          Uniform );
      ] );
  check "11"
    ( six,
      [
        ( "Figure 11",
          1_000_000,
          Mix.v ~insert:15 ~delete:15 ~find:70 (),
          Clustered 50 );
      ] )

let () =
  Alcotest.run "harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "mix validation" `Quick test_mix_validation;
          Alcotest.test_case "paper mixes" `Quick test_paper_mixes;
          Alcotest.test_case "uniform stream" `Quick test_uniform_stream_bounds;
          Alcotest.test_case "clustered runs of 50" `Quick test_clustered_stream_runs;
          Alcotest.test_case "clustered wraps" `Quick test_clustered_wraps;
          Alcotest.test_case "prefill half-full" `Quick test_prefill_half_full;
          Alcotest.test_case "evaluation table" `Quick test_evaluation_table;
        ] );
      ( "statistics",
        [ Alcotest.test_case "mean/stddev" `Quick test_mean_stddev ] );
      ( "end-to-end",
        [
          Alcotest.test_case "all subjects run" `Slow test_throughput_run_all_subjects;
          Alcotest.test_case "per-op counters over trials" `Quick
            test_per_op_over_trials;
          Alcotest.test_case "replace workload" `Slow test_replace_workload_runs;
          Alcotest.test_case "clustered workload" `Slow test_clustered_workload_runs;
          Alcotest.test_case "subject labels" `Quick test_subject_labels;
        ] );
    ]
