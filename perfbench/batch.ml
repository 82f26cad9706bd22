(** The regrade workloads: [jfeed batch] per assignment, in sequence, at
    default settings (dedup on, tests on, [jobs] = nproc), through
    [Pipeline.run_batch]. *)

module Bundles = Jfeed_kb.Bundles
module Pipeline = Jfeed_robust.Pipeline
module Outcome = Jfeed_robust.Outcome

type corpus = (Bundles.t * (string * (string, string) result) list) list

let corpus ~seed ~n ids : corpus =
  List.mapi
    (fun k id ->
      let b = Corpus.bundle id in
      (b, Corpus.batch_corpus ~seed ~k b ~n))
    ids

type loop = {
  first : Pipeline.summary list;  (** the first pass, per assignment *)
  digests : string list;  (** of every pass *)
  pass_lats : float list list;
      (** per pass, per submission: milliseconds from the start of the
          pass until its assignment's summary was complete *)
  pass_rates : (float * float) list;
      (** per pass: submissions per wall second, CPU ms per submission *)
  subs : int;
  wall : float;
  cpu : float;
}

let digest summaries =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (Pipeline.summary_to_json ~traces:false) summaries)))

(* One regrade of the whole corpus: the summaries, and each submission's
   time to feedback. *)
let pass ~jobs ~traced (corpus : corpus) =
  let tp = Util.now () in
  let summaries, lats =
    List.fold_left
      (fun (ss, lats) (b, files) ->
        let s = Pipeline.run_batch ~jobs ~traced b files in
        let ms = 1e3 *. (Util.now () -. tp) in
        (s :: ss, List.rev_append (List.map (fun _ -> ms) files) lats))
      ([], []) corpus
  in
  (List.rev summaries, lats, Util.now () -. tp)

(* Regrade passes until about [seconds] have elapsed, and at least two:
   another pass is started only while it would end closer to [seconds]
   than stopping now.  Only the first pass's summaries are kept, and the
   previous pass's garbage is collected before each pass (outside its
   timing), as a fresh regrade would start without it; so the peak RSS
   grows from the first pass to the second, which is why there are
   always two, and not after.  Each pass's rate and CPU per
   submission are kept too: the run reports their medians, so that a
   pass slowed by the rest of a shared host does not move the figures. *)
let loop ~jobs ~traced ~seconds (corpus : corpus) =
  let cpu0 = Util.cpu_s () and t0 = Util.now () in
  let rec go first digests pass_lats pass_rates subs =
    if first <> [] then Gc.full_major ();
    let c0 = Util.cpu_s () in
    let summaries, lats, t = pass ~jobs ~traced corpus in
    let n = float_of_int (List.length lats) in
    let first = if first = [] then summaries else first in
    let digests = digest summaries :: digests in
    let pass_lats = lats :: pass_lats in
    let pass_rates = (n /. t, 1e3 *. (Util.cpu_s () -. c0) /. n) :: pass_rates in
    let subs = subs + List.length lats in
    if List.length digests >= 2 && Util.now () -. t0 +. (0.5 *. t) >= seconds
    then
      (first, digests, pass_lats, pass_rates, subs)
    else go first digests pass_lats pass_rates subs
  in
  let first, digests, pass_lats, pass_rates, subs = go [] [] [] [] 0 in
  { first; digests; pass_lats; pass_rates; subs; wall = Util.now () -. t0;
    cpu = Util.cpu_s () -. cpu0 }

let line (it : Pipeline.item) = Outcome.to_json ~file:it.Pipeline.file it.outcome

(* Output checks on a measured loop.  Every pass must reproduce the
   first byte for byte; every item must be [graded]; and every twelfth
   submission of each assignment, regraded at [jobs] 1 with dedup off,
   must give exactly the line the measured [jobs] = nproc, dedup-on
   pass gave it — one comparison that holds both jobs invariance and
   dedup ≡ no-dedup (the summaries differ only in their dedup
   counters, which are not part of the item lines). *)
let check (corpus : corpus) (l : loop) =
  let first = l.first in
  let stable = List.for_all (( = ) (digest first)) l.digests in
  let not_graded =
    List.fold_left
      (fun acc (s : Pipeline.summary) -> acc + s.degraded + s.rejected)
      0 first
    * List.length l.digests
  in
  let mismatched =
    List.fold_left2
      (fun acc (b, files) (s : Pipeline.summary) ->
        let subset = List.filteri (fun i _ -> i mod 12 = 0) files in
        let ref_ = Pipeline.run_batch ~jobs:1 ~dedup:false b subset in
        let measured = Hashtbl.create 256 in
        List.iter
          (fun (it : Pipeline.item) -> Hashtbl.replace measured it.file (line it))
          s.items;
        acc
        + List.length
            (List.filter
               (fun (it : Pipeline.item) ->
                 Hashtbl.find_opt measured it.file <> Some (line it))
               ref_.items))
      0 corpus first
  in
  let failed = not_graded + mismatched + if stable then 0 else 1 in
  ( failed,
    [
      ("passes-identical", stable);
      ("all-graded", not_graded = 0);
      ("jobs1-nodedup-equals-measured", mismatched = 0);
    ] )

let run ~(knobs : Report.knobs) ~trace ~n ids =
  let setup_s, setup_ok =
    if trace then (0.0, true) else Setup.measure ~groups:15 ~per:5 ids
  in
  (* the traced run needs workload-level counters, not the full corpus *)
  let corpus = corpus ~seed:knobs.seed ~n:(if trace then n / 3 else n) ids in
  let refs_ok =
    setup_ok && List.for_all (fun id -> Setup.reference_ok (Corpus.bundle id)) ids
  in
  let seconds = if trace then 0.35 *. knobs.seconds else knobs.seconds in
  let l = loop ~jobs:Util.nproc ~traced:false ~seconds corpus in
  let failed, checks = check corpus l in
  let checks = ("references-positive", refs_ok) :: checks in
  let failed = failed + if refs_ok then 0 else 1 in
  let peak_rss_mb = Util.peak_rss_mb 0 in
  (* time to feedback: the figures of each pass, then the median of each
     figure over the passes *)
  let latency =
    let per_pass = List.map Util.latency_figures l.pass_lats in
    List.mapi
      (fun i (name, _, unit_) ->
        let value p = (fun (_, v, _) -> v) (List.nth p i) in
        (name, Util.median (List.map value per_pass), unit_))
      (List.hd per_pass)
  in
  let record =
    [
      ("corpus", string_of_int (List.length (List.concat_map snd corpus)));
      ("passes", string_of_int (List.length l.digests));
    ]
  in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("subs_per_s", Util.median (List.map fst l.pass_rates), "1/s");
        ("cpu_ms_per_sub", Util.median (List.map snd l.pass_rates), "ms");
        ("peak_rss_mb", peak_rss_mb, "MB");
      ]
    else begin
      let traced = loop ~jobs:Util.nproc ~traced:true ~seconds corpus in
      let inputs =
        Array.of_list
          (List.concat_map
             (fun (b, files) ->
               List.filter_map
                 (function _, Ok src -> Some (b, src) | _, Error _ -> None)
                 files)
             corpus)
      in
      (* interleave assignments so a time-bounded probe sees them all *)
      let inputs =
        Array.init (Array.length inputs) (fun i ->
            inputs.(Util.mix knobs.seed (i + 17) mod Array.length inputs))
      in
      let acc =
        Layers.run ~seconds:(0.3 *. knobs.seconds) ~min_subs:24 inputs
      in
      let replayed, total =
        List.fold_left
          (fun (r, t) (s : Pipeline.summary) ->
            ( (r + match s.dedup with Some d -> d.replayed | None -> 0),
              t + s.total ))
          (0, 0) l.first
      in
      let per_sub (x : loop) = x.cpu /. float_of_int x.subs in
      Layers.metrics acc
      @ [
          ( "robust.dedup_ratio",
            Util.ratio (float_of_int replayed) (float_of_int total),
            "ratio" );
          ("parallel.map_us", Layers.pool_map_us ~jobs:Util.nproc, "us");
          ( "parallel.busy_share",
            l.cpu /. (float_of_int Util.nproc *. l.wall),
            "ratio" );
          ( "trace.overhead_pct",
            100.0 *. ((per_sub traced /. per_sub l) -. 1.0),
            "%" );
        ]
    end
  in
  { Report.attempted = l.subs; failed; checks; metrics; latency; record }
