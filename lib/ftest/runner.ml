(** Functional testing of submissions (the paper's column T / discrepancy
    baseline).

    A suite is a set of input cases for an assignment's entry method.
    Expected outputs are produced by running the *reference solution*
    through the same interpreter; a submission passes when its stdout
    matches the expected output exactly on every case.  The comparison is
    deliberately order-sensitive — that is what makes print-order variants
    show up as discrepancies in the paper (§VI-B, Assignment 1). *)

open Jfeed_java
open Jfeed_interp

type case = {
  label : string;
  args : Value.t list;
  files : (string * string) list;
}

type suite = { entry : string; cases : case list; max_steps : int }

type verdict =
  | Pass
  | Fail of { case : string; reason : string }

(* One [interp] span per executed test case; the reference runs that
   produce expected outputs trace the same way, nested under whatever
   stage invoked them.  Compiling is outside the span: the suite-level
   entry points compile a program once for all of its cases. *)
let exec_case ?budget suite compiled (c : case) =
  let tr = Jfeed_trace.Trace.current () in
  Jfeed_trace.Trace.span tr "interp" (fun () ->
      let out =
        Interp.exec ?budget
          ~config:{ Interp.files = c.files; max_steps = suite.max_steps }
          compiled ~entry:suite.entry ~args:c.args
      in
      if Jfeed_trace.Trace.enabled tr then begin
        Jfeed_trace.Trace.add_attr tr "case" c.label;
        Jfeed_trace.Trace.add_attr tr "steps" (string_of_int out.Interp.steps)
      end;
      out)

let run_case ?budget suite prog c =
  exec_case ?budget suite (Interp.compile prog) c

(** Outputs of the reference solution, one per case.  Raises
    [Invalid_argument] if the reference itself fails — a harness bug, not
    a grading outcome. *)
let expected_outputs suite (reference : Ast.program) =
  let compiled = Interp.compile reference in
  List.map
    (fun c ->
      let out = exec_case suite compiled c in
      match out.Interp.error with
      | None -> out.Interp.stdout
      | Some e ->
          invalid_arg
            (Printf.sprintf "reference solution failed on %s: %s" c.label e))
    suite.cases

let run ?budget suite ~expected (prog : Ast.program) =
  let compiled = Interp.compile prog in
  let rec go cases expects =
    match (cases, expects) with
    | [], [] -> Pass
    | c :: cs, want :: ws -> (
        let out = exec_case ?budget suite compiled c in
        match out.Interp.error with
        | Some e -> Fail { case = c.label; reason = "error: " ^ e }
        | None ->
            if out.Interp.stdout = want then go cs ws
            else
              Fail
                {
                  case = c.label;
                  reason =
                    Printf.sprintf "expected %S, got %S" want out.Interp.stdout;
                })
    | _ ->
        (* A malformed test spec (wrong number of expected outputs) is a
           suite bug, but it must not crash a grading batch — report it
           as a failing verdict instead of raising. *)
        Fail
          {
            case = "<suite>";
            reason =
              Printf.sprintf
                "expected-output count mismatch: %d cases, %d expected outputs"
                (List.length suite.cases)
                (List.length expected);
          }
  in
  go suite.cases expected

let passes ?budget suite ~expected prog = run ?budget suite ~expected prog = Pass

type report = {
  rep_total : int;
  rep_ran : int;
  rep_passed : int;
  rep_failures : (string * string) list;
}

let report ?budget ?(early_exit = false) suite ~expected prog =
  let compiled = Interp.compile prog in
  let total = List.length suite.cases in
  let finish ran passed fails =
    { rep_total = total; rep_ran = ran; rep_passed = passed;
      rep_failures = List.rev fails }
  in
  let rec go cases expects ran passed fails =
    match (cases, expects) with
    | [], [] -> finish ran passed fails
    | c :: cs, want :: ws -> (
        let out = exec_case ?budget suite compiled c in
        let failed reason =
          let fails = (c.label, reason) :: fails in
          if early_exit then finish (ran + 1) passed fails
          else go cs ws (ran + 1) passed fails
        in
        match out.Interp.error with
        | Some e -> failed ("error: " ^ e)
        | None ->
            if out.Interp.stdout = want then go cs ws (ran + 1) (passed + 1) fails
            else
              failed
                (Printf.sprintf "expected %S, got %S" want out.Interp.stdout))
    | _ ->
        (* Same totality rule as [run]: a malformed suite is a failing
           entry on the pseudo-case ["<suite>"], never an exception. *)
        finish ran passed
          (( "<suite>",
             Printf.sprintf
               "expected-output count mismatch: %d cases, %d expected outputs"
               (List.length suite.cases)
               (List.length expected) )
          :: fails)
  in
  go suite.cases expected 0 0 []

let screen ?budget suite ~expected prog =
  (report ?budget ~early_exit:true suite ~expected prog).rep_failures = []
