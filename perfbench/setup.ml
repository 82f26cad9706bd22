(** Set-up time: from launching a fresh process to ready-to-grade.  The
    child loads the compiled-in knowledge base, then grades every
    reference solution of the workload once with tests on, which
    compiles each assignment's match plans and is itself the output
    check that every reference grades fully positive and passes its own
    suite. *)

module Pipeline = Jfeed_robust.Pipeline
module Outcome = Jfeed_robust.Outcome
module Feedback = Jfeed_core.Feedback

let reference_ok (b : Jfeed_kb.Bundles.t) =
  match Pipeline.assess b (Jfeed_gen.Spec.reference b.Jfeed_kb.Bundles.gen) with
  | Outcome.Graded { Outcome.grading; tests = Outcome.Tests_passed; _ } ->
      List.for_all
        (fun c -> c.Feedback.verdict = Feedback.Correct)
        grading.Jfeed_core.Grader.comments
  | _ -> false

(** Child side: warm up on [ids], report on stdout, exit. *)
let child ids =
  let bad =
    List.filter (fun id -> not (reference_ok (Corpus.bundle id))) ids
  in
  print_string
    (if bad = [] then "ready ok\n"
     else "ready failed " ^ String.concat "," bad ^ "\n");
  flush stdout

(** Launch one set-up child; [(seconds to ready, references ok)]. *)
let once ids =
  let t0 = Util.now () in
  let pid, ic = Util.spawn_self ("--child" :: "warm" :: ids) in
  let line = try input_line ic with End_of_file -> "" in
  let t = Util.now () -. t0 in
  close_in ic;
  let exited = Util.reap pid in
  (t, exited && line = "ready ok")

(** [groups] × [per] set-ups: the median over the groups of each group's
    mean time (see {!Util.median_of_means}), and whether every one
    checked out. *)
let measure ~groups ~per ids =
  let ok = ref true in
  let t =
    Util.median_of_means ~groups ~per (fun () ->
        let t, refs_ok = once ids in
        ok := !ok && refs_ok;
        t)
  in
  (t, !ok)
