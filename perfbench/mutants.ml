(** The repair workload: seeded single-edit mutants of every reference
    solution that fail their suite, each passed through [Repair.search]
    at [jobs] = nproc and checked again at [jobs] 1.  Its cost is many
    short, early-exit interpreter runs — candidate screening. *)

module Bundles = Jfeed_kb.Bundles
module Repair = Jfeed_repair.Repair

(** Failing mutants per assignment, at most: a small reference has
    fewer edit sites. *)
let per_assignment = 24

(* Round-robin over the assignments, so any prefix of the sequence is
   balanced across them. *)
let inputs ~seed ~per_assignment =
  let per =
    List.mapi
      (fun k b ->
        Array.of_list (Corpus.failing_mutants ~seed ~k b ~m:per_assignment))
      Bundles.all
  in
  Array.of_list
    (List.concat
       (List.init per_assignment (fun i ->
            List.concat
              (List.map2
                 (fun b ms -> if i < Array.length ms then [ (b, ms.(i)) ] else [])
                 Bundles.all per))))

type loop = {
  outcomes : string option array;
      (** first search of each mutant, [Repair.to_json] *)
  stable : bool;  (** every repeated search reproduced the first *)
  latencies_ms : float list;  (** per search, latest first *)
  cpus : float list;  (** CPU seconds per search, latest first *)
  searched : int;
  candidates : int;
  found : int;
  wall : float;
  cpu : float;
}

(* Search the mutants in sequence, cycling, until [seconds] have
   elapsed — and each at least once. *)
let loop ~jobs ~traced ~seconds (inputs : (Bundles.t * string) array) =
  let n = Array.length inputs in
  let outcomes = Array.make n None in
  let stable = ref true and lats = ref [] and cpus = ref [] in
  let searched = ref 0 and candidates = ref 0 and found = ref 0 in
  let cpu0 = Util.cpu_s () and t0 = Util.now () in
  while !searched < n || Util.now () -. t0 < seconds do
    let i = !searched mod n in
    let b, src = inputs.(i) in
    let search () = Repair.search ~jobs b src in
    let c0 = Util.cpu_s () in
    let o, t =
      Util.timed (fun () ->
          if traced then
            Jfeed_trace.Trace.with_current (Jfeed_trace.Trace.create ()) search
          else search ())
    in
    let js = Repair.to_json o in
    (match outcomes.(i) with
    | None -> outcomes.(i) <- Some js
    | Some first -> if js <> first then stable := false);
    lats := (1e3 *. t) :: !lats;
    cpus := (Util.cpu_s () -. c0) :: !cpus;
    incr searched;
    candidates := !candidates + o.Repair.candidates;
    if o.Repair.status = Repair.Repaired then incr found
  done;
  {
    outcomes;
    stable = !stable;
    latencies_ms = !lats;
    cpus = !cpus;
    searched = !searched;
    candidates = !candidates;
    found = !found;
    wall = Util.now () -. t0;
    cpu = Util.cpu_s () -. cpu0;
  }

(* A search that could not start, or found the mutant already passing,
   is a failed operation: the inputs are failing mutants by
   construction. *)
let started js =
  let has p = String.length js >= String.length p && String.sub js 0 (String.length p) = p in
  has {|{"status":"repaired"|} || has {|{"status":"no-repair"|}

let run ~(knobs : Report.knobs) ~trace =
  let ids = List.map Corpus.id Bundles.all in
  let setup_s, setup_ok =
    if trace then (0.0, true) else Setup.measure ~groups:15 ~per:5 ids
  in
  (* the traced run needs workload-level counters, not every mutant *)
  let inputs =
    inputs ~seed:knobs.seed
      ~per_assignment:(if trace then per_assignment / 3 else per_assignment)
  in
  let refs_ok = setup_ok && List.for_all Setup.reference_ok Bundles.all in
  let seconds = if trace then 0.35 *. knobs.seconds else knobs.seconds in
  let l = loop ~jobs:Util.nproc ~traced:false ~seconds inputs in
  (* jobs invariance: every eighth mutant searched again at jobs 1 *)
  let differs =
    List.length
      (List.filter
         (fun i ->
           let b, src = inputs.(i) in
           Some (Repair.to_json (Repair.search ~jobs:1 b src))
           <> l.outcomes.(i))
         (List.filter (fun i -> i mod 8 = 0) (List.init (Array.length inputs) Fun.id)))
  in
  let not_started =
    List.length
      (List.filter
         (function Some js -> not (started js) | None -> true)
         (Array.to_list l.outcomes))
  in
  let checks =
    [
      ("references-positive", refs_ok);
      ("passes-identical", l.stable);
      ("jobs1-equals-measured", differs = 0);
      ("all-searched", not_started = 0);
    ]
  in
  let failed =
    differs + not_started + (if l.stable then 0 else 1) + if refs_ok then 0 else 1
  in
  let searched = float_of_int l.searched in
  let peak_rss_mb = Util.peak_rss_mb 0 in
  let record =
    [
      ("mutants", string_of_int (Array.length inputs));
      ("searches", string_of_int l.searched);
      ("repair_rate", Util.json_num (Util.ratio (float_of_int l.found) searched));
    ]
  in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("subs_per_s", searched /. l.wall, "1/s");
        ("cpu_ms_per_sub", 1e3 *. l.cpu /. searched, "ms");
        ("peak_rss_mb", peak_rss_mb, "MB");
      ]
    else begin
      let traced = loop ~jobs:Util.nproc ~traced:true ~seconds inputs in
      let acc =
        Layers.run ~seconds:(0.3 *. knobs.seconds) ~min_subs:24 inputs
      in
      (* the CPU of the same searches, traced and not *)
      let common = min l.searched traced.searched in
      let first_cpu (x : loop) =
        List.fold_left ( +. ) 0.0
          (List.filteri (fun i _ -> i >= x.searched - common) x.cpus)
      in
      let wall_ms = List.fold_left ( +. ) 0.0 l.latencies_ms in
      Layers.metrics acc
      @ [
          ("parallel.map_us", Layers.pool_map_us ~jobs:Util.nproc, "us");
          ( "parallel.busy_share",
            l.cpu /. (float_of_int Util.nproc *. l.wall),
            "ratio" );
          ("repair.candidates", float_of_int l.candidates /. searched, "count");
          ( "repair.ms_per_candidate",
            Util.ratio wall_ms (float_of_int l.candidates),
            "ms" );
          ("repair.found_ratio", Util.ratio (float_of_int l.found) searched, "ratio");
          ( "trace.overhead_pct",
            100.0 *. ((first_cpu traced /. first_cpu l) -. 1.0),
            "%" );
        ]
    end
  in
  {
    Report.attempted = l.searched;
    failed;
    checks;
    metrics;
    latency = Util.latency_figures l.latencies_ms;
    record;
  }
