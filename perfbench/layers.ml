(** Per-layer attribution: each submission is pushed through the public
    entry point of every layer in pipeline order, one call at a time,
    timed and allocation-counted (minor words of the calling domain)
    around each call.  The same submission then goes through
    [Pipeline.assess] whole, and whatever assess spends beyond the sum of
    the layer calls is glue: [robust.unattributed_ms].

    [core.grade_us] includes the EPDG construction that [pdg.epdg_us]
    times on its own, so the EPDG is not counted twice in the sum. *)

module Bundles = Jfeed_kb.Bundles
module Runner = Jfeed_ftest.Runner
module Interp = Jfeed_interp.Interp
module Plan = Jfeed_core.Plan

type acc = {
  mutable subs : int;
  mutable parse : float;
  mutable parse_words : float;
  mutable fingerprint : float;
  mutable epdg : float;
  mutable grade : float;
  mutable searches : int;
  mutable rejects : int;
  mutable plan_steps : int;
  mutable absint : float;
  mutable expected : float;
  mutable interp : float;
  mutable interp_words : float;
  mutable steps : int;
  mutable assess : float;
}

let create () =
  {
    subs = 0; parse = 0.0; parse_words = 0.0; fingerprint = 0.0; epdg = 0.0;
    grade = 0.0; searches = 0; rejects = 0; plan_steps = 0; absint = 0.0;
    expected = 0.0; interp = 0.0; interp_words = 0.0; steps = 0; assess = 0.0;
  }

(* [(f (), seconds, minor words)] *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Util.now () in
  let r = f () in
  let t = Util.now () -. t0 in
  (r, t, Gc.minor_words () -. w0)

(* The reference's static cost signature is per bundle; the pipeline
   recomputes it per submission, which is glue and lands in
   [robust.unattributed_ms]. *)
let degrees = Hashtbl.create 16

let oracle_degrees (b : Bundles.t) =
  let id = Corpus.id b in
  match Hashtbl.find_opt degrees id with
  | Some d -> d
  | None ->
      let d =
        Jfeed_absint.Passes.method_degrees
          (Jfeed_java.Parser.parse_program
             (Jfeed_gen.Spec.reference b.Bundles.gen))
      in
      Hashtbl.add degrees id d;
      d

(* Run the suite the way [Runner.run] does — in order, stopping at the
   first failing case — one [Runner.run_case] at a time, so steps, time
   and allocation are the interpreter's alone. *)
let run_suite acc (suite : Runner.suite) expected prog =
  let rec go cases expects =
    match (cases, expects) with
    | c :: cs, want :: ws ->
        let out, t, w = measure (fun () -> Runner.run_case suite prog c) in
        acc.interp <- acc.interp +. t;
        acc.interp_words <- acc.interp_words +. w;
        acc.steps <- acc.steps + out.Interp.steps;
        if out.Interp.error = None && out.Interp.stdout = want then go cs ws
    | _ -> ()
  in
  go suite.Runner.cases expected

(** Probe one submission; [false] (and nothing recorded) when it does
    not parse.  [assess_first] runs the whole [Pipeline.assess] before
    the layer calls instead of after them; alternating it cancels the
    advantage the second run gets from warm caches. *)
let probe ?(assess_first = false) acc (b : Bundles.t) src =
  let assess () =
    let _, t, _ = measure (fun () -> Jfeed_robust.Pipeline.assess b src) in
    t
  in
  let t_first = if assess_first then assess () else 0.0 in
  match
    measure (fun () -> Jfeed_java.Parser.parse_program_located src)
  with
  | exception _ -> false
  | (prog, srcmap), t_parse, w_parse ->
      let _, t_fp, _ =
        measure (fun () -> Jfeed_java.Fingerprint.of_source src)
      in
      let _, t_epdg, _ = measure (fun () -> Jfeed_pdg.Epdg.of_program prog) in
      let s0 = Plan.searches ()
      and r0 = Plan.prefilter_rejects ()
      and p0 = Plan.steps_spent () in
      let _, t_grade, _ =
        measure (fun () -> Jfeed_core.Grader.grade b.Bundles.grading prog)
      in
      let searches = Plan.searches () - s0
      and rejects = Plan.prefilter_rejects () - r0
      and plan_steps = Plan.steps_spent () - p0 in
      let oracle_degrees = oracle_degrees b in
      let _, t_absint, _ =
        measure (fun () ->
            Jfeed_absint.Passes.analyze_program ~srcmap ~oracle_degrees prog)
      in
      let expected, t_expected, _ =
        measure (fun () ->
            Runner.expected_outputs b.Bundles.suite
              (Jfeed_java.Parser.parse_program
                 (Jfeed_gen.Spec.reference b.Bundles.gen)))
      in
      run_suite acc b.Bundles.suite expected prog;
      let t_assess = if assess_first then t_first else assess () in
      acc.subs <- acc.subs + 1;
      acc.parse <- acc.parse +. t_parse;
      acc.parse_words <- acc.parse_words +. w_parse;
      acc.fingerprint <- acc.fingerprint +. t_fp;
      acc.epdg <- acc.epdg +. t_epdg;
      acc.grade <- acc.grade +. t_grade;
      acc.searches <- acc.searches + searches;
      acc.rejects <- acc.rejects + rejects;
      acc.plan_steps <- acc.plan_steps + plan_steps;
      acc.absint <- acc.absint +. t_absint;
      acc.expected <- acc.expected +. t_expected;
      acc.assess <- acc.assess +. t_assess;
      true

(** Probe submissions round-robin from [inputs] until [seconds] have
    passed, and at least [min_subs] of them. *)
let run ~seconds ~min_subs (inputs : (Bundles.t * string) array) =
  let acc = create () in
  let n = Array.length inputs in
  let t0 = Util.now () in
  let i = ref 0 in
  while n > 0 && (!i < min_subs || Util.now () -. t0 < seconds) && !i < 50 * n
  do
    let b, src = inputs.(!i mod n) in
    ignore (probe ~assess_first:(!i mod 2 = 1) acc b src);
    incr i
  done;
  acc

(** The per-layer metrics of an accumulator, per probed submission. *)
let metrics acc =
  let n = float_of_int (max 1 acc.subs) in
  let us x = 1e6 *. x /. n in
  let steps = float_of_int acc.steps in
  let attributed =
    acc.parse +. acc.grade +. acc.absint +. acc.expected +. acc.interp
  in
  [
    ("java.parse_us", us acc.parse, "us");
    ("java.parse_kwords", acc.parse_words /. 1000.0 /. n, "kwords");
    ("java.fingerprint_us", us acc.fingerprint, "us");
    ("pdg.epdg_us", us acc.epdg, "us");
    ("core.grade_us", us acc.grade, "us");
    ("core.plan_steps", float_of_int acc.plan_steps /. n, "count");
    ( "core.prefilter_reject_ratio",
      Util.ratio (float_of_int acc.rejects) (float_of_int acc.searches),
      "ratio" );
    ("absint.analyze_us", us acc.absint, "us");
    ("ftest.expected_us", us acc.expected, "us");
    ("interp.steps", steps /. n, "count");
    ("interp.ns_per_step", Util.ratio (1e9 *. acc.interp) steps, "ns");
    ("interp.words_per_step", Util.ratio acc.interp_words steps, "words");
    ("robust.assess_ms", 1e3 *. acc.assess /. n, "ms");
    ( "robust.unattributed_ms",
      1e3 *. (acc.assess -. attributed) /. n,
      "ms" );
  ]

(** One empty [Pool.map] at [jobs] (spawn + join), median of 21, µs. *)
let pool_map_us ~jobs =
  Util.median
    (List.init 21 (fun _ ->
         snd
           (Util.timed (fun () ->
                Jfeed_parallel.Pool.map ~jobs ~f:Fun.id (Array.make jobs ())))
         *. 1e6))
