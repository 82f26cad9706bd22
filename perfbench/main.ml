(** The jfeed benchmark: one command, four workloads, every end-to-end
    metric with its unit and an output-check verdict; [--trace 1] runs
    the per-layer attribution instead.  See README.md beside this file.

    {v
    main.exe --workload W --seed N --seconds S --trace 0|1
             [--commit C] [--source-digest D]
    v}

    Every workload grades at [jobs] = nproc, and serving opens nproc
    client connections.

    The last line of standard output is the result object
    [{"correct":…,"attempted":…,"failed":…,"metrics":{…}}]; the lines
    before it list each metric and check, and one ["# record"] line
    carries the provenance (host, commit, knobs) with the workload's
    detail figures. *)

let workloads = [ "batch-interp"; "batch-static"; "serve-deadline"; "repair" ]

let end_to_end =
  [
    ("setup_s", "s"); ("subs_per_s", "1/s"); ("cpu_ms_per_sub", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric, with its unit.  A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("java.parse_us", "us"); ("java.parse_kwords", "kwords");
    ("java.fingerprint_us", "us"); ("pdg.epdg_us", "us");
    ("core.grade_us", "us"); ("core.plan_steps", "count");
    ("core.prefilter_reject_ratio", "ratio"); ("absint.analyze_us", "us");
    ("ftest.expected_us", "us"); ("interp.steps", "count");
    ("interp.ns_per_step", "ns"); ("interp.words_per_step", "words");
    ("robust.assess_ms", "ms"); ("robust.unattributed_ms", "ms");
    ("robust.dedup_ratio", "ratio"); ("parallel.map_us", "us");
    ("parallel.busy_share", "ratio"); ("service.hit_ratio", "ratio");
    ("service.queue_wait_ms", "ms"); ("service.queue_max", "count");
    ("service.shed", "count"); ("service.degraded", "count");
    ("service.proto_us", "us"); ("service.cache_key_us", "us");
    ("service.gen_lag_ms", "ms"); ("service.max_rps", "1/s");
    ("repair.candidates", "count"); ("repair.ms_per_candidate", "ms");
    ("repair.found_ratio", "ratio"); ("trace.overhead_pct", "%");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (batch-interp|batch-static|serve-deadline|repair) \
     --seed N --seconds S --trace 0|1";
  exit 2

let run_workload ~knobs ~trace = function
  | "batch-interp" -> Batch.run ~knobs ~trace ~n:50 Corpus.interp_heavy
  | "batch-static" -> Batch.run ~knobs ~trace ~n:200 Corpus.static_heavy
  | "serve-deadline" -> Serve.run ~knobs ~trace
  | "repair" -> Mutants.run ~knobs ~trace
  | _ -> usage ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | "--child" :: "warm" :: ids ->
      Setup.child ids;
      exit 0
  | [ "--child"; "serve"; path; traced ] ->
      Serve.child ~path ~traced:(bool_of_string traced);
      exit 0
  | _ -> ());
  let opt name =
    let rec find = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let int_opt name default =
    match opt name with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let workload =
    match opt "--workload" with
    | Some w when List.mem w workloads -> w
    | _ -> usage ()
  in
  let seed = int_opt "--seed" 1 in
  let seconds = float_of_int (int_opt "--seconds" 10) in
  let trace =
    match opt "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let knobs = { Report.seconds; seed } in
  let t0 = Util.now () in
  let r = run_workload ~knobs ~trace workload in
  let correct = List.for_all snd r.Report.checks && r.failed = 0 in
  let wanted = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some (_, v, u) -> (name, v, u)
        | None -> (name, 0.0, unit_))
      wanted
  in
  List.iter
    (fun (n, v, u) -> Printf.printf "%-28s %14.4f %s\n" n v u)
    metrics;
  List.iter
    (fun (n, v, u) -> Printf.printf "latency %-20s %14.4f %s (not gated)\n" n v u)
    r.latency;
  List.iter
    (fun (n, ok) -> Printf.printf "check %-38s %s\n" n (if ok then "ok" else "FAILED"))
    r.checks;
  let str s = Util.json_str s in
  let record =
    Util.json_obj
      ([
         ("workload", str workload);
         ("trace", string_of_bool trace);
         ( "host",
           Util.json_obj
             [
               ("nproc", string_of_int Util.nproc);
               ("ocaml", str Sys.ocaml_version);
               ("os", str Sys.os_type);
               ("commit", str (Option.value (opt "--commit") ~default:"unknown"));
               ( "source_digest",
                 str (Option.value (opt "--source-digest") ~default:"unknown") );
               ("kb_revision", str (Jfeed_kb.Bundles.revision ()));
             ] );
         ( "knobs",
           Util.json_obj
             [
               ("seed", string_of_int seed);
               ("seconds", Util.json_num seconds);
               ("jobs", string_of_int Util.nproc);
               ("conns", string_of_int Util.nproc);
               ("with_tests", "true");
               ("resub_pct", string_of_int Corpus.resub_pct);
             ] );
         ("run_s", Util.json_num (Util.now () -. t0));
         ( "latency",
           Util.json_obj
             (List.map (fun (n, v, _) -> (n, Util.json_num v)) r.latency) );
         ( "checks",
           Util.json_obj
             (List.map (fun (n, ok) -> (n, string_of_bool ok)) r.checks) );
       ]
      @ r.record)
  in
  print_endline ("# record " ^ record);
  print_endline
    (Util.json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 r.attempted));
         ("failed", string_of_int r.failed);
         ( "metrics",
           Util.json_obj
             (List.map
                (fun (n, v, u) ->
                  (n, Util.json_obj [ ("value", Util.json_num v); ("unit", str u) ]))
                metrics) );
       ])
