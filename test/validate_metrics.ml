(* Schema validator for the observability artifacts the CI smoke steps
   produce:

     validate_metrics FILE
       metrics JSON written by bin/patbench.exe --metrics-json: exits
       0 iff the file parses and every data point carries the
       documented fields with sane values.

     validate_metrics --prometheus FILE [--require FAMILY]...
       a scraped Prometheus exposition: every sample line must parse,
       and each --require'd family must have at least one sample.

     validate_metrics --trace FILE
       a Perfetto/Chrome trace-event file: must parse as JSON and pass
       Obs.Perfetto.validate (schema, clock monotonicity, track
       metadata).

   Exit codes: 0 ok, 1 validation failure, 2 usage/IO error. *)

let errors = ref 0

let err fmt =
  Printf.ksprintf
    (fun m ->
      incr errors;
      Printf.eprintf "validate_metrics: %s\n" m)
    fmt

let require_key obj ctx key =
  match Obs.Json.member obj key with
  | Some v -> Some v
  | None ->
      err "%s: missing key %S" ctx key;
      None

let require_num ctx key = function
  | Some (Obs.Json.Int _ | Obs.Json.Float _) -> ()
  | Some _ -> err "%s: %S is not a number" ctx key
  | None -> ()

let nonneg_num ctx key = function
  | Some (Obs.Json.Int i) when i < 0 -> err "%s: %S is negative" ctx key
  | Some (Obs.Json.Float f) when f < 0.0 -> err "%s: %S is negative" ctx key
  | j -> require_num ctx key j

let check_latency ctx = function
  | Obs.Json.Null -> () (* latency recording was off for this run *)
  | Obs.Json.Obj _ as l ->
      List.iter
        (fun k -> nonneg_num ctx k (require_key l ctx k))
        [ "count"; "min_ns"; "max_ns"; "mean_ns"; "p50_ns"; "p90_ns";
          "p99_ns"; "p999_ns" ];
      (* Percentiles of a latency distribution must be ordered. *)
      (match
         ( Obs.Json.member l "p50_ns",
           Obs.Json.member l "p99_ns",
           Obs.Json.member l "max_ns" )
       with
      | Some (Obs.Json.Int p50), Some (Obs.Json.Int p99), Some (Obs.Json.Int mx)
        ->
          if not (p50 <= p99 && p99 <= mx) then
            err "%s: latency percentiles out of order (%d, %d, %d)" ctx p50
              p99 mx
      | _ -> ())
  | _ -> err "%s: \"latency\" is neither null nor an object" ctx

let check_counters ctx = function
  | Obs.Json.Obj kvs ->
      List.iter
        (fun (k, v) -> nonneg_num ctx ("counters." ^ k) (Some v))
        kvs;
      (* PAT's counter set is emitted whole: a snapshot that has
         "attempts" must also carry the retry causes, the descriptor
         count, the backoff counter added with the fault-injection layer
         and the snapshot renewal counters. *)
      if List.mem_assoc "attempts" kvs then
        List.iter
          (fun k ->
            if not (List.mem_assoc k kvs) then
              err "%s: counters with \"attempts\" lack %S" ctx k)
          [
            "child_cas_lost";
            "flagged_ancestor";
            "conflicts";
            "descriptors_run";
            "backoff_waits";
            "renewals";
            "renew_paths";
          ]
  | _ -> err "%s: \"counters\" is not an object" ctx

let check_gc ctx = function
  | Obs.Json.Obj _ as g ->
      List.iter
        (fun k -> require_num ctx k (require_key g ctx k))
        [ "minor_words"; "promoted_words"; "major_words";
          "minor_collections"; "major_collections" ]
  | _ -> err "%s: \"gc\" is not an object" ctx

let check_datapoint i dp =
  let ctx = Printf.sprintf "datapoints[%d]" i in
  match dp with
  | Obs.Json.Obj _ ->
      List.iter
        (fun k -> ignore (require_key dp ctx k))
        [ "figure"; "structure"; "mix"; "distribution"; "universe"; "threads";
          "trials"; "throughput_mean_ops_s"; "throughput_stddev_ops_s";
          "throughput_samples_ops_s"; "latency"; "counters"; "gc" ];
      nonneg_num ctx "throughput_mean_ops_s"
        (Obs.Json.member dp "throughput_mean_ops_s");
      (match Obs.Json.member dp "threads" with
      | Some (Obs.Json.Int t) when t >= 1 -> ()
      | Some _ -> err "%s: \"threads\" is not a positive int" ctx
      | None -> ());
      (match Obs.Json.member dp "throughput_samples_ops_s" with
      | Some (Obs.Json.Arr (_ :: _)) -> ()
      | Some (Obs.Json.Arr []) -> err "%s: no throughput samples" ctx
      | Some _ -> err "%s: samples not an array" ctx
      | None -> ());
      Option.iter (check_latency ctx) (Obs.Json.member dp "latency");
      Option.iter (check_counters ctx) (Obs.Json.member dp "counters");
      Option.iter (check_gc ctx) (Obs.Json.member dp "gc")
  | _ -> err "%s: not an object" ctx

let read_file path =
  match open_in_bin path with
  | exception Sys_error m ->
      Printf.eprintf "validate_metrics: %s\n" m;
      exit 2
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* --prometheus FILE [--require FAMILY]... *)
let validate_prometheus path required =
  let text = read_file path in
  let samples, parse_errors = Obs.Prometheus.parse_samples text in
  List.iter (fun m -> err "%s: %s" path m) parse_errors;
  if samples = [] then err "%s: exposition has no samples" path;
  List.iter
    (fun family ->
      let present =
        List.exists
          (fun s ->
            let n = s.Obs.Prometheus.s_name in
            n = family
            || n = family ^ "_count"
            || n = family ^ "_sum"
            || n = family ^ "_total")
          samples
      in
      if not present then err "%s: required family %S has no samples" path family)
    required;
  if !errors > 0 then begin
    Printf.eprintf "validate_metrics: %s: %d error(s)\n" path !errors;
    exit 1
  end;
  Printf.printf "validate_metrics: %s ok (%d samples, %d families required)\n"
    path (List.length samples) (List.length required)

(* --trace FILE *)
let validate_trace path =
  let doc =
    match Obs.Json.of_string (read_file path) with
    | doc -> doc
    | exception Obs.Json.Parse_error m ->
        Printf.eprintf "validate_metrics: %s does not parse: %s\n" path m;
        exit 1
  in
  match Obs.Perfetto.validate doc with
  | Error m ->
      Printf.eprintf "validate_metrics: %s: invalid trace: %s\n" path m;
      exit 1
  | Ok () ->
      let events =
        match Obs.Json.member doc "traceEvents" with
        | Some (Obs.Json.Arr evs) -> List.length evs
        | _ -> 0
      in
      Printf.printf "validate_metrics: %s ok (%d trace events)\n" path events

let () =
  let path =
    match Array.to_list Sys.argv with
    | [ _; "--trace"; p ] ->
        validate_trace p;
        exit 0
    | _ :: "--prometheus" :: p :: rest ->
        let rec requires = function
          | [] -> []
          | "--require" :: f :: tl -> f :: requires tl
          | _ ->
              prerr_endline
                "usage: validate_metrics --prometheus FILE [--require \
                 FAMILY]...";
              exit 2
        in
        validate_prometheus p (requires rest);
        exit 0
    | [ _; p ] -> p
    | _ ->
        prerr_endline
          "usage: validate_metrics FILE\n\
          \       validate_metrics --prometheus FILE [--require FAMILY]...\n\
          \       validate_metrics --trace FILE";
        exit 2
  in
  let contents = read_file path in
  let doc =
    match Obs.Json.of_string contents with
    | doc -> doc
    | exception Obs.Json.Parse_error m ->
        Printf.eprintf "validate_metrics: %s does not parse: %s\n" path m;
        exit 1
  in
  (match Obs.Json.member doc "schema_version" with
  | Some (Obs.Json.Int 1) -> ()
  | Some _ -> err "schema_version is not 1"
  | None -> err "missing schema_version");
  (match Obs.Json.member doc "benchmark" with
  | Some (Obs.Json.Str _) -> ()
  | _ -> err "missing or non-string \"benchmark\"");
  (match Obs.Json.member doc "config" with
  | Some (Obs.Json.Obj _ as cfg) ->
      (* Chaos-mode metadata: a metrics file must say whether retry
         backoff or fault injection was live, so runs with and without
         are never compared by accident. *)
      List.iter
        (fun k ->
          match Obs.Json.member cfg k with
          | Some (Obs.Json.Bool _) -> ()
          | Some _ -> err "config: %S is not a boolean" k
          | None -> err "config: missing key %S" k)
        [ "backoff"; "chaos_injection" ]
  | _ -> err "missing or non-object \"config\"");
  let n =
    match Option.bind (Obs.Json.member doc "datapoints") Obs.Json.to_list_opt
    with
    | Some dps ->
        List.iteri check_datapoint dps;
        List.length dps
    | None ->
        err "missing \"datapoints\" array";
        0
  in
  if n = 0 then err "metrics file has no datapoints";
  if !errors > 0 then begin
    Printf.eprintf "validate_metrics: %s: %d error(s)\n" path !errors;
    exit 1
  end;
  Printf.printf "validate_metrics: %s ok (%d datapoints)\n" path n
