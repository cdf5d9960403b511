(* Compare two benchmark baseline files (bin/patbench.exe figure / scan
   --baseline-json) and fail on throughput regressions.

   CI runners differ in absolute speed from whatever machine wrote the
   committed baseline, so raw thresholds are useless.  Instead the
   median of the per-datapoint new/old throughput ratios is taken as the
   machine-speed factor, and a datapoint regresses only if its own ratio
   fell below [threshold] times that median — i.e. it slowed down
   relative to the rest of the suite, which machine speed cannot
   explain.

   Usage: compare_bench BASELINE.json CURRENT.json [--threshold 0.6]
   Exit codes: 0 ok, 1 regression found, 2 usage or malformed input. *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

type point = { figure : string; structure : string; threads : int; mean : float }

let point_key p = Printf.sprintf "%s | %s | %d" p.figure p.structure p.threads

let load path =
  let doc =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | doc -> doc
    | exception Sys_error m -> die "%s" m
    | exception J.Parse_error m -> die "%s: %s" path m
  in
  let str name dp =
    match J.member dp name with
    | Some (J.Str s) -> s
    | _ -> die "%s: datapoint lacks string %S" path name
  in
  let num name dp =
    match J.member dp name with
    | Some (J.Int i) -> float_of_int i
    | Some (J.Float f) -> f
    | _ -> die "%s: datapoint lacks number %S" path name
  in
  match J.member doc "datapoints" with
  | Some (J.Arr dps) ->
      List.map
        (fun dp ->
          {
            figure = str "figure" dp;
            structure = str "structure" dp;
            threads = int_of_float (num "threads" dp);
            mean = num "mean_ops_s" dp;
          })
        dps
  | _ -> die "%s: no \"datapoints\" array" path

let median xs =
  match List.sort compare xs with
  | [] -> die "no comparable datapoints between the two files"
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let () =
  let threshold = ref 0.6 in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0.0 && t <= 1.0 -> threshold := t
        | _ -> die "--threshold wants a float in (0, 1], got %S" v);
        parse rest
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !paths with
    | [ b; c ] -> (b, c)
    | _ -> die "usage: compare_bench BASELINE.json CURRENT.json [--threshold R]"
  in
  let baseline = load baseline_path and current = load current_path in
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace base_tbl (point_key p) p) baseline;
  let pairs =
    List.filter_map
      (fun cur ->
        match Hashtbl.find_opt base_tbl (point_key cur) with
        | Some base when base.mean > 0.0 -> Some (base, cur)
        | Some _ -> None
        | None ->
            Printf.eprintf "note: %s absent from baseline, skipped\n"
              (point_key cur);
            None)
      current
  in
  let ratios = List.map (fun (b, c) -> c.mean /. b.mean) pairs in
  let m = median ratios in
  let floor_ratio = !threshold *. m in
  Printf.printf
    "%d comparable datapoints; median new/old ratio %.3f (machine factor); \
     failing below %.3f\n\n"
    (List.length pairs) m floor_ratio;
  Printf.printf "%-40s %12s %12s %8s %s\n" "datapoint" "baseline" "current"
    "ratio" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (b, c) ->
      let r = c.mean /. b.mean in
      let bad = r < floor_ratio in
      if bad then incr regressions;
      Printf.printf "%-40s %12.0f %12.0f %8.3f %s\n" (point_key b) b.mean
        c.mean r
        (if bad then "REGRESSED" else "ok"))
    pairs;
  if !regressions > 0 then begin
    Printf.printf
      "\n%d datapoint(s) dropped more than %.0f%% below the suite-wide trend\n"
      !regressions
      ((1.0 -. !threshold) *. 100.0);
    exit 1
  end
  else print_endline "\nno regressions"
