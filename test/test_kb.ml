(** Knowledge-base integration tests: pattern well-formedness, the paper's
    Table I P/C columns, reference solutions grading perfectly, functional
    tests validating the references against hand-computed oracles, and the
    exhaustive one-flip matrix — for every assignment, every single-error
    variant must land in the exact (functional, feedback) class its
    quality marker predicts. *)

open Jfeed_core
open Jfeed_kb

let all_patterns =
  List.sort_uniq
    (fun (a : Pattern.t) b -> compare a.Pattern.id b.Pattern.id)
    (List.concat_map
       (fun b -> List.map fst (Bundles.patterns b))
       Bundles.all)

let test_pattern_wellformed () =
  List.iter
    (fun (p : Pattern.t) ->
      Alcotest.(check (list string)) p.Pattern.id [] (Pattern.validate p))
    all_patterns

let test_pattern_count () =
  (* The paper's knowledge base has 24 unique patterns; ours has 25 (the
     paper publishes only 3 of them, so exact parity is not attainable —
     see EXPERIMENTS.md). *)
  Alcotest.(check int) "unique patterns" 25 (List.length all_patterns)

let expected_pc =
  [
    ("assignment1", 6, 4);
    ("esc-LAB-3-P1-V1", 7, 5);
    ("esc-LAB-3-P2-V1", 8, 13);
    ("esc-LAB-3-P2-V2", 4, 5);
    ("esc-LAB-3-P3-V1", 7, 6);
    ("esc-LAB-3-P4-V1", 7, 6);
    ("esc-LAB-3-P3-V2", 8, 10);
    ("esc-LAB-3-P4-V2", 9, 14);
    ("mitx-derivatives", 3, 4);
    ("mitx-polynomials", 4, 4);
    ("rit-all-g-medals", 9, 7);
    ("rit-medals-by-ath", 9, 7);
  ]

let test_pc_columns () =
  List.iter
    (fun (b : Bundles.t) ->
      let id = b.Bundles.grading.Grader.a_id in
      let _, p, c =
        List.find (fun (i, _, _) -> i = id) expected_pc
      in
      Alcotest.(check int) (id ^ " P") p (List.length (Bundles.patterns b));
      Alcotest.(check int) (id ^ " C") c (List.length (Bundles.constraints b)))
    Bundles.all

let test_constraint_ids_unique () =
  let ids =
    List.concat_map
      (fun b -> List.map (fun c -> c.Constr.c_id) (Bundles.constraints b))
      Bundles.all
  in
  Alcotest.(check int) "no duplicate constraint ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_constraints_reference_known_patterns () =
  List.iter
    (fun (b : Bundles.t) ->
      List.iter
        (fun (q : Grader.method_spec) ->
          let known =
            List.map (fun (p, _) -> p.Pattern.id) q.Grader.q_patterns
          in
          List.iter
            (fun c ->
              List.iter
                (fun pid ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s references %s" c.Constr.c_id pid)
                    true (List.mem pid known))
                (Constr.referenced_patterns c))
            q.Grader.q_constraints)
        b.Bundles.grading.Grader.a_methods)
    Bundles.all

let feedback_positive (r : Grader.result) =
  List.for_all (fun c -> c.Feedback.verdict = Feedback.Correct) r.Grader.comments

let test_references_grade_perfectly () =
  List.iter
    (fun (b : Bundles.t) ->
      let reference =
        Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
      in
      let r = Grader.grade b.Bundles.grading reference in
      Alcotest.(check bool)
        (b.Bundles.grading.Grader.a_id ^ " reference positive")
        true (feedback_positive r);
      Alcotest.(check (float 0.001))
        (b.Bundles.grading.Grader.a_id ^ " Λ = |B|")
        (float_of_int (List.length r.Grader.comments))
        r.Grader.score)
    Bundles.all

let test_references_pass_their_suites () =
  List.iter
    (fun (b : Bundles.t) ->
      let reference =
        Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
      in
      let expected = Jfeed_ftest.Runner.expected_outputs b.suite reference in
      Alcotest.(check bool)
        (b.Bundles.grading.Grader.a_id ^ " reference passes")
        true
        (Jfeed_ftest.Runner.passes b.suite ~expected reference))
    Bundles.all

(* Hand-computed oracle checks on the reference solutions: the suites'
   expected outputs come from running the references, so the references
   themselves are validated independently here. *)
let run_reference id ~args =
  let b = Option.get (Bundles.find id) in
  let prog =
    Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
  in
  let out =
    Jfeed_interp.Interp.run
      ~config:
        {
          Jfeed_interp.Interp.files =
            [ ("summer_olympics.txt",
               Jfeed_ftest.Data.olympics_file Jfeed_ftest.Data.olympics_curated) ];
          max_steps = 1_000_000;
        }
      prog
      ~entry:b.suite.Jfeed_ftest.Runner.entry ~args
  in
  match out.Jfeed_interp.Interp.error with
  | None -> out.Jfeed_interp.Interp.stdout
  | Some e -> Alcotest.failf "%s reference error: %s" id e

let test_reference_oracles () =
  let vint n = Jfeed_interp.Value.Vint n in
  let varr xs =
    Jfeed_interp.Value.Varr (Array.of_list (List.map vint xs))
  in
  (* assignment1 on [3;4;5;6]: odd sum 4+6 = 10, even product 3*5 = 15. *)
  Alcotest.(check string) "assignment1" "10\n15\n"
    (run_reference "assignment1" ~args:[ varr [ 3; 4; 5; 6 ] ]);
  (* 6 = 3! and 6 < 4!: n = 3. *)
  Alcotest.(check string) "P1-V1 k=6" "3\n"
    (run_reference "esc-LAB-3-P1-V1" ~args:[ vint 6 ]);
  (* fib: 13 <= 13 < 21 with fib(7) = 13: n = 7. *)
  Alcotest.(check string) "P2-V1 k=13" "7\n"
    (run_reference "esc-LAB-3-P2-V1" ~args:[ vint 13 ]);
  Alcotest.(check string) "P2-V2 153 special" "Special\n"
    (run_reference "esc-LAB-3-P2-V2" ~args:[ vint 153 ]);
  Alcotest.(check string) "P2-V2 154 not" "Not special\n"
    (run_reference "esc-LAB-3-P2-V2" ~args:[ vint 154 ]);
  (* 12 reversed is 21: |12 - 21| = 9. *)
  Alcotest.(check string) "P3-V1 k=12" "9\n"
    (run_reference "esc-LAB-3-P3-V1" ~args:[ vint 12 ]);
  Alcotest.(check string) "P4-V1 palindrome" "Palindrome\n"
    (run_reference "esc-LAB-3-P4-V1" ~args:[ vint 1221 ]);
  Alcotest.(check string) "P4-V1 not" "Not palindrome\n"
    (run_reference "esc-LAB-3-P4-V1" ~args:[ vint 1231 ]);
  (* factorials in [1, 15]: 1, 2, 6 — the paper's example count of 3. *)
  Alcotest.(check string) "P3-V2 [1,15]" "3\n"
    (run_reference "esc-LAB-3-P3-V2" ~args:[ vint 1; vint 15 ]);
  (* fibs in [2, 15]: 2 3 5 8 13 = 5. *)
  Alcotest.(check string) "P4-V2 [2,15]" "5\n"
    (run_reference "esc-LAB-3-P4-V2" ~args:[ vint 2; vint 15 ]);
  (* derivative of 2 + 0x + 5x^2 + 7x^3 -> 0 10 21. *)
  Alcotest.(check string) "derivatives" "0\n10\n21\n"
    (run_reference "mitx-derivatives" ~args:[ varr [ 2; 0; 5; 7 ] ]);
  (* 2 + 0*3 + 1*9 = 11. *)
  Alcotest.(check string) "polynomials" "11\n"
    (run_reference "mitx-polynomials" ~args:[ varr [ 2; 0; 1 ]; vint 3 ]);
  (* curated dataset oracles *)
  let records = Jfeed_ftest.Data.olympics_curated in
  Alcotest.(check string) "rit gold 2008"
    (string_of_int (Jfeed_ftest.Data.gold_medals_in_year records 2008) ^ "\n")
    (run_reference "rit-all-g-medals" ~args:[ vint 2008 ]);
  Alcotest.(check string) "rit ath Bolt"
    (string_of_int (Jfeed_ftest.Data.medals_by_athlete records "Usain" "Bolt")
    ^ "\n")
    (run_reference "rit-medals-by-ath"
       ~args:[ Jfeed_interp.Value.Vstr "Usain"; Jfeed_interp.Value.Vstr "Bolt" ])

(* The one-flip matrix: the generator's quality markers are the spec. *)
let one_flip_case (b : Bundles.t) =
  let spec = b.Bundles.gen in
  let reference =
    Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference spec)
  in
  let expected = Jfeed_ftest.Runner.expected_outputs b.suite reference in
  let n = Array.length spec.Jfeed_gen.Spec.choices in
  for ci = 0 to n - 1 do
    let c = spec.Jfeed_gen.Spec.choices.(ci) in
    for oi = 1 to Array.length c.Jfeed_gen.Spec.labels - 1 do
      let digits = Array.make n 0 in
      digits.(ci) <- oi;
      let src = spec.Jfeed_gen.Spec.render digits in
      let prog = Jfeed_java.Parser.parse_program src in
      let fpass = Jfeed_ftest.Runner.passes b.suite ~expected prog in
      let fb = feedback_positive (Grader.grade b.Bundles.grading prog) in
      let want_f, want_fb =
        match c.Jfeed_gen.Spec.quality.(oi) with
        | Jfeed_gen.Spec.Good -> (true, true)
        | Jfeed_gen.Spec.Bad -> (false, false)
        | Jfeed_gen.Spec.Disc_neg_feedback -> (true, false)
        | Jfeed_gen.Spec.Disc_pos_feedback -> (false, true)
      in
      if fpass <> want_f || fb <> want_fb then
        Alcotest.failf
          "%s %s/%s: functional=%b (want %b) feedback=%b (want %b)"
          spec.Jfeed_gen.Spec.id c.Jfeed_gen.Spec.tag
          c.Jfeed_gen.Spec.labels.(oi) fpass want_f fb want_fb
    done
  done

(* The reference artefacts are computed once per bundle, from any
   domain, and equal a fresh computation. *)
let test_reference_memo () =
  let got =
    Jfeed_parallel.Pool.map ~jobs:2
      ~f:(fun (b : Bundles.t) ->
        ( Bundles.reference b,
          Bundles.oracle_degrees b,
          Bundles.expected_outputs b ))
      (Array.of_list (Bundles.all @ Bundles.all))
  in
  List.iteri
    (fun i (b : Bundles.t) ->
      let id = b.Bundles.grading.Grader.a_id in
      let fresh =
        Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference b.Bundles.gen)
      in
      let r, d, e = got.(i) and r', d', e' = got.(i + List.length Bundles.all) in
      Alcotest.(check bool) (id ^ ": one parse per bundle") true
        (r == r' && r == Bundles.reference b);
      Alcotest.(check bool) (id ^ ": same AST as a fresh parse") true (r = fresh);
      Alcotest.(check bool) (id ^ ": degrees") true
        (d = d' && d = Jfeed_absint.Passes.method_degrees fresh);
      Alcotest.(check bool) (id ^ ": one expected-output list per bundle")
        true
        (e == e' && e == Bundles.expected_outputs b);
      Alcotest.(check (list string)) (id ^ ": expected outputs of a fresh run")
        (Jfeed_ftest.Runner.expected_outputs b.Bundles.suite fresh) e)
    Bundles.all

let one_flip_tests =
  List.map
    (fun (b : Bundles.t) ->
      Alcotest.test_case
        ("one-flip matrix " ^ b.Bundles.grading.Grader.a_id)
        `Slow
        (fun () -> one_flip_case b))
    Bundles.all

let suite =
  [
    Alcotest.test_case "patterns well-formed" `Quick test_pattern_wellformed;
    Alcotest.test_case "unique pattern count" `Quick test_pattern_count;
    Alcotest.test_case "Table I P and C columns" `Quick test_pc_columns;
    Alcotest.test_case "constraint ids unique" `Quick
      test_constraint_ids_unique;
    Alcotest.test_case "constraints reference known patterns" `Quick
      test_constraints_reference_known_patterns;
    Alcotest.test_case "references grade perfectly" `Quick
      test_references_grade_perfectly;
    Alcotest.test_case "references pass their suites" `Quick
      test_references_pass_their_suites;
    Alcotest.test_case "reference oracles" `Quick test_reference_oracles;
    Alcotest.test_case "reference artefacts memoised per bundle" `Quick
      test_reference_memo;
  ]
  @ one_flip_tests
