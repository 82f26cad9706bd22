(** Tests for the Java-subset interpreter (the functional-testing
    substrate): arithmetic with Java int semantics, control flow, arrays,
    strings, Scanner over virtual files, the step budget, variable
    tracing, and the differential property against the tree-walking
    oracle ({!Tree_interp}). *)

open Jfeed_interp

let run ?(config = Interp.default_config) ?(entry = "f") ~args src =
  Interp.run_source ~config src ~entry ~args

let out ?config ?entry ~args src =
  let o = run ?config ?entry ~args src in
  match o.Interp.error with
  | None -> o.Interp.stdout
  | Some e -> Alcotest.failf "unexpected runtime error: %s" e

let err ?config ?entry ~args src =
  match (run ?config ?entry ~args src).Interp.error with
  | Some e -> e
  | None -> Alcotest.fail "expected a runtime error"

let test_arith () =
  Alcotest.(check string)
    "basics" "17\n"
    (out ~args:[]
       "void f() { System.out.println(2 + 3 * 5); }");
  Alcotest.(check string)
    "division truncates" "-2\n"
    (out ~args:[] "void f() { System.out.println(-7 / 3); }");
  Alcotest.(check string)
    "modulo sign follows dividend" "-1\n"
    (out ~args:[] "void f() { System.out.println(-7 % 3); }");
  Alcotest.(check string)
    "int32 wrap-around" "-2147483648\n"
    (out ~args:[] "void f() { System.out.println(2147483647 + 1); }");
  Alcotest.(check string)
    "factorial overflow wraps like the JVM" "-288522240\n"
    (out ~args:[]
       "void f() { int p = 1; for (int i = 1; i <= 17; i++) p *= i; \
        System.out.println(p); }")

let test_division_by_zero () =
  Alcotest.(check string) "div" "/ by zero" (err ~args:[] "void f() { int x = 1 / 0; }")

let test_strings () =
  Alcotest.(check string)
    "concat" "n = 4\n"
    (out ~args:[] {|void f() { int n = 4; System.out.println("n = " + n); }|});
  Alcotest.(check string)
    "equals" "true false\n"
    (out ~args:[]
       {|void f() { String a = "x"; System.out.println(a.equals("x") + " " + a.equals("y")); }|});
  (* == on strings is reference equality: two distinct computed strings
     are never ==. *)
  Alcotest.(check string)
    "reference equality" "false\n"
    (out ~args:[]
       {|void f() { String a = "x" + ""; String b = "x" + ""; System.out.println(a == b); }|})

let test_arrays () =
  Alcotest.(check string)
    "new + store + length" "3 7\n"
    (out ~args:[]
       {|void f() { int[] a = new int[3]; a[1] = 7; System.out.println(a.length + " " + a[1]); }|});
  Alcotest.(check string)
    "array literal" "6\n"
    (out ~args:[]
       {|void f() { int[] a = {1, 2, 3}; System.out.println(a[0] + a[1] + a[2]); }|});
  Alcotest.(check bool)
    "out of bounds" true
    (String.length (err ~args:[] "void f() { int[] a = new int[2]; int x = a[5]; }") > 0)

let test_control_flow () =
  Alcotest.(check string)
    "break" "0 1 2 \n"
    (out ~args:[]
       {|void f() { for (int i = 0; i < 10; i++) { if (i == 3) break; System.out.print(i + " "); } System.out.println(""); }|});
  Alcotest.(check string)
    "continue" "1 3 \n"
    (out ~args:[]
       {|void f() { for (int i = 0; i < 4; i++) { if (i % 2 == 0) continue; System.out.print(i + " "); } System.out.println(""); }|});
  Alcotest.(check string)
    "ternary" "small\n"
    (out ~args:[]
       {|void f() { int x = 3; System.out.println(x < 5 ? "small" : "big"); }|});
  Alcotest.(check string)
    "switch with fallthrough to break" "two\n"
    (out ~args:[]
       {|void f() { int x = 2; switch (x) { case 1: System.out.println("one"); break; case 2: System.out.println("two"); break; default: System.out.println("other"); } }|})

let test_methods () =
  Alcotest.(check string)
    "helper call" "120\n"
    (out ~args:[ Value.Vint 5 ] ~entry:"main2"
       {|int fact(int n) { int f = 1; for (int i = 1; i <= n; i++) f *= i; return f; }
         void main2(int k) { System.out.println(fact(k)); }|});
  Alcotest.(check string)
    "recursion" "8\n"
    (out ~args:[ Value.Vint 6 ] ~entry:"main2"
       {|int fib(int n) { if (n <= 2) return 1; return fib(n - 1) + fib(n - 2); }
         void main2(int k) { System.out.println(fib(k)); }|})

let test_scanner () =
  let config =
    { Interp.files = [ ("data.txt", "alpha 42 beta\n7") ]; max_steps = 10_000 }
  in
  Alcotest.(check string)
    "token stream" "alpha-42-beta-7:done\n"
    (out ~config ~args:[]
       {|void f() {
           Scanner s = new Scanner(new File("data.txt"));
           String acc = "";
           String w = s.next();
           acc = acc + w + "-";
           int n = s.nextInt();
           acc = acc + n + "-";
           acc = acc + s.next() + "-" + s.nextInt();
           if (!s.hasNext())
             acc = acc + ":done";
           s.close();
           System.out.println(acc);
         }|});
  Alcotest.(check string)
    "missing file" "FileNotFoundException: nope.txt"
    (err ~args:[]
       {|void f() { Scanner s = new Scanner(new File("nope.txt")); }|});
  Alcotest.(check string)
    "type mismatch" "InputMismatchException: \"alpha\""
    (err ~config ~args:[]
       {|void f() { Scanner s = new Scanner(new File("data.txt")); int n = s.nextInt(); }|})

let test_step_limit () =
  let config = { Interp.files = []; max_steps = 500 } in
  Alcotest.(check string)
    "infinite loop cut" "step limit exceeded"
    (err ~config ~args:[] "void f() { while (true) { int x = 1; } }")

let test_math () =
  Alcotest.(check string)
    "pow and cast" "8\n"
    (out ~args:[] "void f() { System.out.println((int) Math.pow(2, 3)); }");
  Alcotest.(check string)
    "abs" "5\n"
    (out ~args:[] "void f() { System.out.println(Math.abs(-5)); }");
  Alcotest.(check string)
    "log10 digit count" "3\n"
    (out ~args:[]
       "void f() { System.out.println((int) Math.log10(123) + 1); }")

let test_scoping () =
  (* For-loop variables are scoped: two loops can redeclare i. *)
  Alcotest.(check string)
    "redeclared loop var" "01\n"
    (out ~args:[]
       {|void f() {
           for (int i = 0; i < 1; i++) System.out.print(i);
           for (int i = 1; i < 2; i++) System.out.print(i);
           System.out.println("");
         }|})

let test_incdec_semantics () =
  Alcotest.(check string)
    "post vs pre" "1 3\n"
    (out ~args:[]
       {|void f() { int i = 1; int a = i++; int b = ++i; System.out.println(a + " " + b); }|})

let test_trace () =
  let prog =
    Jfeed_java.Parser.parse_program
      "void f() { int x = 1; x = 2; int y = x; }"
  in
  let outcome, snaps = Interp.run_traced prog ~entry:"f" ~args:[] in
  Alcotest.(check bool) "no error" true (outcome.Interp.error = None);
  Alcotest.(check int) "one snapshot per statement" 3 (List.length snaps);
  (match List.rev snaps with
  | last :: _ ->
      Alcotest.(check (list (pair string string)))
        "final snapshot" [ ("x", "2"); ("y", "2") ] last
  | [] -> Alcotest.fail "no snapshots")

(* Pinned outputs and step counts of the tree-walking interpreter, for
   the semantics slot resolution could get wrong.  Each program runs on
   both interpreters; both must give the pinned figures. *)
let pinned name ?(entry = "f") ?(args = []) src ~stdout ~steps ?error () =
  let prog = Jfeed_java.Parser.parse_program src in
  List.iter
    (fun (who, (o : Interp.outcome)) ->
      let tag what = Printf.sprintf "%s: %s (%s)" name what who in
      Alcotest.(check string) (tag "stdout") stdout o.Interp.stdout;
      Alcotest.(check int) (tag "steps") steps o.Interp.steps;
      Alcotest.(check (option string)) (tag "error") error o.Interp.error)
    [
      ("compiled", Interp.run prog ~entry ~args);
      ("oracle", Tree_interp.run prog ~entry ~args);
    ]

let test_resolution_edges () =
  pinned "use before a shadowing declaration"
    {|void f() { int x = 1; { System.out.print(x); int x = 2; System.out.print(x); } System.out.print(x); }|}
    ~stdout:"121" ~steps:9 ();
  pinned "declaration in an earlier case, entered at a later one"
    ~args:[ Value.Vint 2 ]
    {|void f(int v) { switch (v) { case 1: int y = 5; break; case 2: y = 3; System.out.print(y); break; } }|}
    ~stdout:"" ~steps:2 ~error:"variable y is not defined" ();
  pinned "case declarations fall through and outlive the switch"
    ~args:[ Value.Vint 1 ]
    {|void f(int v) { switch (v) { case 1: int y = 5; case 2: y = 3; System.out.print(y); break; } System.out.print(y); }|}
    ~stdout:"33" ~steps:8 ();
  pinned "case declaration skipped: the outer binding shows through"
    ~args:[ Value.Vint 2 ]
    {|void f(int v) { int y = 7; for (int k = 0; k < 2; k++) { switch (v) { case 1: int y = 5; case 2: System.out.print(y); } v = 1; } }|}
    ~stdout:"75" ~steps:16 ();
  pinned "declaration in a non-block if branch"
    {|void f() { int x = 1; if (x > 0) int x = 2; System.out.print(x); }|}
    ~stdout:"1" ~steps:5 ();
  pinned "fresh local per loop iteration"
    {|void f() { for (int i = 0; i < 2; i++) { int x; if (i == 0) x = 4; System.out.print(x); } }|}
    ~stdout:"40" ~steps:15 ();
  pinned "duplicate method names: the last wins"
    {|int g() { return 1; } int g() { return 2; } void f() { System.out.print(g()); }|}
    ~stdout:"2" ~steps:4 ();
  pinned "duplicate parameter names: the last argument wins"
    ~args:[ Value.Vint 1; Value.Vint 2 ]
    {|void f(int a, int a) { System.out.print(a); }|} ~stdout:"2" ~steps:2 ();
  (* == on strings compares references; distinct literals are distinct
     objects here (the JVM would intern them). *)
  pinned "string literal =="
    {|void f() { String s = "a"; String t = "a"; System.out.print("a" == "a"); System.out.print(s == t); System.out.print(s == "a"); }|}
    ~stdout:"falsefalsefalse" ~steps:8 ()

let test_escaping_jumps () =
  pinned "break in a method body"
    "void f() { break; }" ~stdout:"" ~steps:1
    ~error:"break outside switch or loop" ();
  pinned "continue in a method body"
    "void f() { continue; }" ~stdout:"" ~steps:1
    ~error:"continue outside of loop" ();
  (* A stray break in a helper must not end the caller's loop. *)
  pinned "break escaping a helper into a caller's loop"
    {|void g() { break; } void f() { for (int i = 0; i < 3; i++) { System.out.print(i); g(); System.out.print(7); } }|}
    ~stdout:"0" ~steps:9 ~error:"break outside switch or loop" ()

let test_lvalue_once () =
  pinned "a[i++] += 5"
    {|void f() { int[] a = new int[3]; int i = 0; a[i++] += 5; System.out.print(i + " " + a[0] + a[1]); }|}
    ~stdout:"1 50" ~steps:5 ();
  pinned "a[i++]++"
    {|void f() { int[] a = new int[3]; int i = 0; a[i++]++; System.out.print(i + " " + a[0] + a[1]); }|}
    ~stdout:"1 10" ~steps:5 ()

(* ------------------------------------------------------------------ *)
(* Differential checks: compiled interpreter vs the tree-walker        *)

module Bundles = Jfeed_kb.Bundles
module Budget = Jfeed_budget.Budget

let same_outcome (a : Interp.outcome) (b : Interp.outcome) =
  a.Interp.stdout = b.Interp.stdout
  && a.Interp.error = b.Interp.error
  && a.Interp.steps = b.Interp.steps
  && compare a.Interp.result b.Interp.result = 0

let budget_state b =
  (Budget.spent b, Budget.spent_by b, Budget.exhausted b, Budget.hits b)

(* Every construct that takes a step, with side effects between the
   steps.  Cutting the run at every step ceiling and at every fuel cap
   shows the steps are taken in the same order relative to the prints
   and the trace snapshots, not just counted alike. *)
let tour =
  {|int g(int x) { System.out.print("g" + x); return x + 1; }
    int h() { System.out.print("h"); return 0; }
    int two(int a, int b) { System.out.print("t"); return a + b; }
    int three(int a, int b, int c) { return a + b + c; }
    void f(int n) {
      int s = g(h());
      s += two(g(1), g(2));
      s = three(g(s), h(), g(3));
      System.out.println(g(s));
      System.out.println(Math.abs(g(-5)));
      String w = String.valueOf(g(7));
      int[] a = new int[g(2)];
      a[g(0) - 1] += g(1);
      a[h()]++;
      for (int i = g(0); i < g(2); i++) { if (i == 1) continue; System.out.print(i); }
      int j = 0;
      while (j < 3) { j++; if (j == 2) break; System.out.print(j); }
      do { j--; System.out.print(j); } while (j > 0);
      switch (g(n)) { case 1: System.out.print("one"); case 2: int k = g(4); break; default: System.out.print("d"); }
      System.out.println(w + s + a[0] + (n > 0 ? g(n) : h()));
    }|}

let test_ceiling_sweep () =
  let prog = Jfeed_java.Parser.parse_program tour in
  let compiled = Interp.compile prog in
  List.iter
    (fun n ->
      let args = [ Value.Vint n ] in
      let total = (Tree_interp.run prog ~entry:"f" ~args).Interp.steps in
      for cap = 0 to total + 1 do
        let config = { Interp.default_config with max_steps = cap } in
        let label what = Printf.sprintf "n=%d, %s %d" n what cap in
        Alcotest.(check bool) (label "ceiling") true
          (same_outcome
             (Interp.exec ~config compiled ~entry:"f" ~args)
             (Tree_interp.run ~config prog ~entry:"f" ~args));
        let t1, s1 = Interp.run_traced ~config prog ~entry:"f" ~args in
        let t2, s2 = Tree_interp.run_traced ~config prog ~entry:"f" ~args in
        Alcotest.(check bool) (label "traced ceiling") true
          (same_outcome t1 t2 && s1 = s2);
        let b1 = Budget.create ~fuel:cap () and b2 = Budget.create ~fuel:cap () in
        Alcotest.(check bool) (label "fuel") true
          (same_outcome
             (Interp.exec ~budget:b1 compiled ~entry:"f" ~args)
             (Tree_interp.run ~budget:b2 prog ~entry:"f" ~args)
          && budget_state b1 = budget_state b2)
      done)
    [ 0; 1; 2 ]


(* A program drawn from a bundle: a sampled submission as generated, a
   single-fault mutant of it, or an alpha-renamed copy. *)
let diff_program (bi, idx_seed, kind, mseed) =
  let b = List.nth Bundles.all bi in
  let spec = b.Bundles.gen in
  let src =
    Jfeed_gen.Spec.source_of_index spec
      (List.hd (Jfeed_gen.Spec.sample_indices spec ~n:1 ~seed:idx_seed))
  in
  let src =
    match kind with
    | 0 -> src
    | 1 -> (
        match Jfeed_gen.Mutate.fault_inject ~seed:mseed src with
        | Some (m, _) -> m
        | None -> src)
    | _ -> Jfeed_gen.Mutate.alpha_rename ~seed:mseed src
  in
  (b, src)

let diff_case (b : Bundles.t) prog (c : Jfeed_ftest.Runner.case) =
  let suite = b.Bundles.suite in
  let entry = suite.Jfeed_ftest.Runner.entry and args = c.Jfeed_ftest.Runner.args in
  (* The oracle is slow; a ceiling keeps a looping mutant cheap. *)
  let config =
    {
      Interp.files = c.Jfeed_ftest.Runner.files;
      max_steps = min suite.Jfeed_ftest.Runner.max_steps 60_000;
    }
  in
  let compiled = Interp.compile prog in
  let b0 = Budget.unlimited () and b0' = Budget.unlimited () in
  let want = Tree_interp.run ~budget:b0' ~config prog ~entry ~args in
  let plain =
    same_outcome (Interp.exec ~budget:b0 ~config compiled ~entry ~args) want
    && budget_state b0 = budget_state b0'
  in
  (* Half the oracle's steps: both runs must die at the same step with
     the same fuel accounting. *)
  let fuel = want.Interp.steps / 2 in
  let b1 = Budget.create ~fuel () and b2 = Budget.create ~fuel () in
  let o1 = Interp.exec ~budget:b1 ~config compiled ~entry ~args in
  let o2 = Tree_interp.run ~budget:b2 ~config prog ~entry ~args in
  let capped = same_outcome o1 o2 && budget_state b1 = budget_state b2 in
  (* Traced runs snapshot every statement; a low ceiling keeps them
     cheap and exercises the step-limit path too. *)
  let tconfig = { config with Interp.max_steps = min config.Interp.max_steps 3000 } in
  let t1, s1 = Interp.run_traced ~config:tconfig prog ~entry ~args in
  let t2, s2 = Tree_interp.run_traced ~config:tconfig prog ~entry ~args in
  let traced = same_outcome t1 t2 && s1 = s2 in
  if not (plain && capped && traced) then
    QCheck.Test.fail_reportf "case %s: plain %b capped %b traced %b"
      c.Jfeed_ftest.Runner.label plain capped traced;
  want.Interp.error = None

let prop_differential =
  let gen =
    QCheck.Gen.(
      let* bi = int_bound (List.length Bundles.all - 1) in
      let* idx_seed = int_bound 1_000_000 in
      let* kind = int_bound 2 in
      let* mseed = int_bound 1_000_000 in
      return (bi, idx_seed, kind, mseed))
  in
  let print (bi, idx_seed, kind, mseed) =
    Printf.sprintf "bundle %d, index seed %d, kind %d, mutation seed %d" bi
      idx_seed kind mseed
  in
  QCheck.Test.make ~count:150
    ~name:"compiled interpreter = tree-walker (outcome, steps, fuel, trace)"
    (QCheck.make ~print gen) (fun key ->
      let b, src = diff_program key in
      match Jfeed_java.Parser.parse_program src with
      | exception _ -> true
      | prog ->
          (* like the runner, stop at the first case that fails to run *)
          ignore
            (List.for_all (diff_case b prog)
               b.Bundles.suite.Jfeed_ftest.Runner.cases);
          true)

(* Property: the interpreter agrees with OCaml on random arithmetic. *)
let prop_arith_oracle =
  let gen =
    QCheck.Gen.(
      let* a = int_range (-1000) 1000 in
      let* b = int_range 1 100 in
      let* op = oneofl [ "+"; "-"; "*"; "/"; "%" ] in
      return (a, b, op))
  in
  QCheck.Test.make ~count:300 ~name:"arithmetic agrees with OCaml"
    (QCheck.make gen) (fun (a, b, op) ->
      let expect =
        match op with
        | "+" -> a + b
        | "-" -> a - b
        | "*" -> a * b
        | "/" -> a / b
        | _ -> a mod b
      in
      let src =
        Printf.sprintf "void f() { System.out.println(%d %s %d); }"
          a op b
      in
      out ~args:[] src = string_of_int expect ^ "\n")

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "methods and recursion" `Quick test_methods;
    Alcotest.test_case "scanner" `Quick test_scanner;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "math builtins" `Quick test_math;
    Alcotest.test_case "scoping" `Quick test_scoping;
    Alcotest.test_case "incr/decr value" `Quick test_incdec_semantics;
    Alcotest.test_case "variable tracing" `Quick test_trace;
    Alcotest.test_case "resolution edge cases" `Quick test_resolution_edges;
    Alcotest.test_case "break/continue escaping a method" `Quick
      test_escaping_jumps;
    Alcotest.test_case "read-modify-write evaluates once" `Quick
      test_lvalue_once;
    Alcotest.test_case "steps in order: every ceiling and fuel cap" `Quick
      test_ceiling_sweep;
    QCheck_alcotest.to_alcotest prop_arith_oracle;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
