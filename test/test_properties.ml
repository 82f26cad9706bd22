(** System-level property tests: invariants that must hold for *every*
    submission in every assignment's search space, checked on random
    indices.  These are the guard rails for the whole pipeline —
    parse → EPDG → match → constraints → Λ. *)

open Jfeed_core
open Jfeed_kb
module G = Jfeed_graph.Digraph
module E = Jfeed_pdg.Epdg

let arbitrary_submission =
  (* (bundle index, submission index) — printed as assignment/index. *)
  let gen =
    QCheck.Gen.(
      let* bi = int_bound (List.length Bundles.all - 1) in
      let b = List.nth Bundles.all bi in
      let* idx = int_bound (Jfeed_gen.Spec.size b.Bundles.gen - 1) in
      return (bi, idx))
  in
  let print (bi, idx) =
    let b = List.nth Bundles.all bi in
    Printf.sprintf "%s #%d" b.Bundles.grading.Grader.a_id idx
  in
  QCheck.make ~print gen

let program_of (bi, idx) =
  let b = List.nth Bundles.all bi in
  ( b,
    Jfeed_java.Parser.parse_program
      (Jfeed_gen.Spec.source_of_index b.Bundles.gen idx) )

let prop_grading_total =
  QCheck.Test.make ~count:250 ~name:"grading is total and Λ is bounded"
    arbitrary_submission (fun key ->
      let b, prog = program_of key in
      let r = Grader.grade b.Bundles.grading prog in
      let n = float_of_int (List.length r.Grader.comments) in
      r.Grader.score >= 0.0 && r.Grader.score <= n && r.Grader.comments <> [])

let prop_grading_deterministic =
  QCheck.Test.make ~count:100 ~name:"grading is deterministic"
    arbitrary_submission (fun key ->
      let b, prog = program_of key in
      Grader.grade b.Bundles.grading prog = Grader.grade b.Bundles.grading prog)

let prop_score_is_lambda_sum =
  QCheck.Test.make ~count:100 ~name:"Λ is the sum of the verdict weights"
    arbitrary_submission (fun key ->
      let b, prog = program_of key in
      let r = Grader.grade b.Bundles.grading prog in
      Float.abs
        (r.Grader.score
        -. List.fold_left
             (fun acc c -> acc +. Feedback.lambda c.Feedback.verdict)
             0.0 r.Grader.comments)
      < 1e-9)

let prop_extensions_never_lower_score =
  (* The §VII extensions only widen what is accepted. *)
  QCheck.Test.make ~count:100 ~name:"extensions never lower Λ"
    arbitrary_submission (fun key ->
      let b, prog = program_of key in
      let base = Grader.grade b.Bundles.grading prog in
      let ext =
        Grader.grade ~normalize:true ~use_variants:true b.Bundles.grading prog
      in
      ext.Grader.score >= base.Grader.score -. 1e-9)

(* EPDG well-formedness over arbitrary generated submissions. *)

let defs g v =
  let info = G.label g.E.graph v in
  match info.E.n_type with
  | E.Decl -> Jfeed_java.Ast.vars_of_expr info.E.n_expr
  | _ -> Jfeed_java.Ast.assigned_vars info.E.n_expr

let reads g v =
  Jfeed_java.Ast.read_vars (E.node_expr g v)

let prop_epdg_wellformed =
  QCheck.Test.make ~count:150 ~name:"EPDG: Ctrl from Cond, Data is def-use"
    arbitrary_submission (fun key ->
      let _, prog = program_of key in
      List.for_all
        (fun (_, g) ->
          List.for_all
            (fun (s, t, e) ->
              match e with
              | E.Ctrl ->
                  (* Control edges only originate in conditions and are
                     never self loops. *)
                  E.node_type g s = E.Cond && s <> t
              | E.Data ->
                  (* A data edge's source defines a variable its target
                     reads. *)
                  s <> t
                  && List.exists (fun x -> List.mem x (reads g t)) (defs g s))
            (G.edges g.E.graph))
        (E.of_program prog))

let prop_epdg_single_ctrl_parent =
  QCheck.Test.make ~count:150
    ~name:"EPDG: at most one controlling condition per node (transitive \
           reduction)"
    arbitrary_submission (fun key ->
      let _, prog = program_of key in
      List.for_all
        (fun (_, g) ->
          List.for_all
            (fun v ->
              let ctrl_parents =
                List.filter (fun (_, e) -> e = E.Ctrl) (G.pred g.E.graph v)
              in
              List.length ctrl_parents <= 1)
            (G.nodes g.E.graph))
        (E.of_program prog))

let prop_interpreter_total =
  (* Whatever the submission, the interpreter's outcome is an outcome —
     errors are data, not exceptions. *)
  QCheck.Test.make ~count:120 ~name:"functional testing is total"
    arbitrary_submission (fun key ->
      let b, prog = program_of key in
      let reference =
        Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
      in
      let expected =
        Jfeed_ftest.Runner.expected_outputs b.Bundles.suite reference
      in
      match Jfeed_ftest.Runner.run b.Bundles.suite ~expected prog with
      | Jfeed_ftest.Runner.Pass | Jfeed_ftest.Runner.Fail _ -> true)

let prop_type_index_matches_filter =
  (* The matcher's candidate sets Φ come from the precomputed type
     index; it must return exactly what the O(V) filter returned, in
     the same order, on every EPDG. *)
  QCheck.Test.make ~count:150 ~name:"EPDG: type index ≡ filter_nodes"
    arbitrary_submission (fun key ->
      let _, prog = program_of key in
      List.for_all
        (fun (_, g) ->
          List.for_all
            (fun ty ->
              E.nodes_of_type g ty
              = G.filter_nodes g.E.graph ~f:(fun _ info ->
                    info.E.n_type = ty))
            [ E.Assign; E.Break; E.Call; E.Cond; E.Decl; E.Return ])
        (E.of_program prog))

let prop_canonical_text_reparses =
  (* Every EPDG node's canonical text re-parses (templates rely on it). *)
  QCheck.Test.make ~count:100 ~name:"node canonical texts re-parse"
    arbitrary_submission (fun key ->
      let _, prog = program_of key in
      List.for_all
        (fun (_, g) ->
          List.for_all
            (fun v ->
              let info = G.label g.E.graph v in
              match info.E.n_type with
              | E.Decl | E.Break | E.Return -> true (* non-expression texts *)
              | E.Assign | E.Call | E.Cond -> (
                  match Jfeed_java.Parser.parse_expression info.E.n_text with
                  | _ -> true
                  | exception _ -> false))
            (G.nodes g.E.graph))
        (E.of_program prog))

let bundle_patterns (b : Bundles.t) =
  (* Primaries and variants — every pattern the grader can ever search. *)
  List.map fst (Bundles.patterns b)
  @ List.concat_map
      (fun (q : Grader.method_spec) ->
        List.concat_map snd q.Grader.q_variants)
      b.Bundles.grading.Grader.a_methods

let prop_plan_matches_naive =
  (* The compiled-plan search must be a pure reordering of the naive
     one: same embedding set, same exhaustion flag, on every pattern of
     every bundle, both on generated submissions and on their
     Mutate-corpus variants (consistent renames + reflow). *)
  QCheck.Test.make ~count:60
    ~name:"matcher: plan-driven ≡ order-naive"
    QCheck.(pair arbitrary_submission small_nat)
    (fun ((bi, idx), seed) ->
      let b = List.nth Bundles.all bi in
      let src = Jfeed_gen.Spec.source_of_index b.Bundles.gen idx in
      let sources = [ src; Jfeed_gen.Mutate.rename_and_reflow ~seed src ] in
      List.for_all
        (fun s ->
          let graphs = E.of_source s in
          List.for_all
            (fun p ->
              List.for_all
                (fun (_, g) ->
                  (* γ is an assoc list in binding order; the join order
                     permutes it without changing the mapping, so
                     compare it as a set. *)
                  let norm (m : Matcher.embedding) =
                    (m.Matcher.iota, List.sort compare m.Matcher.gamma)
                  in
                  let plan = Matcher.embeddings_budgeted p g in
                  let naive = Matcher.embeddings_reference p g in
                  List.sort compare (List.map norm plan.Matcher.found)
                  = List.sort compare (List.map norm naive.Matcher.found)
                  && plan.Matcher.exhausted = naive.Matcher.exhausted)
                graphs)
            (bundle_patterns b))
        sources)

let strip_dedup s =
  (* Remove the summary's [,"dedup":{…}] object, leaving the rest of
     the bytes untouched. *)
  let marker = {|,"dedup":{|} in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length s then None
    else if String.sub s i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      let j = String.index_from s (i + mlen) '}' in
      String.sub s 0 i ^ String.sub s (j + 1) (String.length s - j - 1)

let prop_dedup_byte_identity =
  (* A duplicate-heavy batch — base, two α-equivalent mutants, one
     distinct neighbour — graded with dedup must produce byte-identical
     output at jobs 1 and 4, and byte-identical to independent grading
     (--no-dedup) once the summary's dedup object is stripped.  Fuel is
     bounded, so per-item fuel fields are present and compared too. *)
  QCheck.Test.make ~count:8
    ~name:"batch dedup: byte-identity vs no-dedup, jobs-invariant"
    arbitrary_submission (fun (bi, idx) ->
      let b = List.nth Bundles.all bi in
      let size = Jfeed_gen.Spec.size b.Bundles.gen in
      let src = Jfeed_gen.Spec.source_of_index b.Bundles.gen idx in
      let other =
        Jfeed_gen.Spec.source_of_index b.Bundles.gen ((idx + 1) mod size)
      in
      let sources =
        [
          ("s0.java", Ok src);
          ("s1.java", Ok (Jfeed_gen.Mutate.alpha_rename ~seed:1 src));
          ("s2.java", Ok (Jfeed_gen.Mutate.rename_and_reflow ~seed:2 src));
          ("s3.java", Ok other);
        ]
      in
      let json ~jobs ~dedup =
        Jfeed_robust.Pipeline.summary_to_json
          (Jfeed_robust.Pipeline.run_batch ~fuel:500_000 ~jobs ~dedup b
             sources)
      in
      let base = json ~jobs:1 ~dedup:false in
      let d1 = json ~jobs:1 ~dedup:true in
      let d4 = json ~jobs:4 ~dedup:true in
      d1 = d4 && strip_dedup d1 = base)

let prop_fingerprint_of_pipeline_parse =
  (* The batch fingerprints the AST its one parse produced
     ([Pipeline.parse_stage], the located parser) rather than parsing
     again; that must give the serve cache's [of_source] fingerprint on
     every input: generated submissions of all twelve assignments, their
     α-renamed, re-flowed and fault-injected mutants, and the fuzz
     mutations (garbage bytes, deep nesting, deleted spans…). *)
  let gen =
    QCheck.Gen.(
      let* bi = int_bound (List.length Bundles.all - 1) in
      let b = List.nth Bundles.all bi in
      let* idx = int_bound (Jfeed_gen.Spec.size b.Bundles.gen - 1) in
      let* seed = int_bound 10_000 in
      let* kind = int_bound 5 in
      return (bi, idx, seed, kind))
  in
  let source (bi, idx, seed, kind) =
    let b = List.nth Bundles.all bi in
    let src = Jfeed_gen.Spec.source_of_index b.Bundles.gen idx in
    match kind with
    | 0 -> src
    | 1 -> Jfeed_gen.Mutate.alpha_rename ~seed src
    | 2 -> Jfeed_gen.Mutate.rename_and_reflow ~seed src
    | 3 -> (
        match Jfeed_gen.Mutate.fault_inject ~seed src with
        | Some (m, _) -> m
        | None -> src)
    | 4 -> Test_robust.deep_nesting (Test_robust.lcg seed) src
    | _ -> Test_robust.mutate (Test_robust.lcg seed) src
  in
  let print ((bi, idx, seed, kind) as k) =
    let b = List.nth Bundles.all bi in
    Printf.sprintf "%s #%d seed %d kind %d: %S" b.Bundles.grading.Grader.a_id
      idx seed kind
      (let s = source k in
       String.sub s 0 (min 200 (String.length s)))
  in
  QCheck.Test.make ~count:200
    ~name:"fingerprint: of_source = fingerprint of the pipeline's parse"
    (QCheck.make ~print gen) (fun k ->
      let src = source k in
      let fp = Jfeed_java.Fingerprint.of_source src in
      match Jfeed_robust.Pipeline.parse_stage src with
      | Ok (prog, _) -> fp = Jfeed_java.Fingerprint.of_program prog
      | Error _ -> fp = Jfeed_java.Fingerprint.of_raw src)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_grading_total;
      prop_grading_deterministic;
      prop_score_is_lambda_sum;
      prop_extensions_never_lower_score;
      prop_epdg_wellformed;
      prop_epdg_single_ctrl_parent;
      prop_type_index_matches_filter;
      prop_interpreter_total;
      prop_canonical_text_reparses;
      prop_plan_matches_naive;
      prop_dedup_byte_identity;
      prop_fingerprint_of_pipeline_parse;
    ]
