(** Per-assignment bundles: the generator space (column S), the grading
    specification (columns P and C), and the functional-test suite
    (column T) for each of the paper's twelve assignments. *)

open Jfeed_core
open Jfeed_exprmatch
module E = Jfeed_pdg.Epdg
module V = Jfeed_interp.Value

(* Artefacts derived from the reference solution, computed on first
   use and shared by every submission graded against the bundle. *)
type memo = {
  reference : Jfeed_java.Ast.program option Atomic.t;
  degrees : (string * int) list option Atomic.t;
  expected : string list option Atomic.t;
}

type t = {
  gen : Jfeed_gen.Spec.t;
  grading : Grader.spec;
  suite : Jfeed_ftest.Runner.suite;
  memo : memo;
}

let new_memo () =
  {
    reference = Atomic.make None;
    degrees = Atomic.make None;
    expected = Atomic.make None;
  }

(* Compute, then publish with a CAS.  Domains that race may each
   compute; the first to publish wins and all return its value.  (A
   [Lazy.t] must not be forced from two domains at once.)  A computation
   that raises publishes nothing. *)
let once cell f =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = f () in
      if Atomic.compare_and_set cell None (Some v) then v
      else Option.get (Atomic.get cell)

let reference t =
  once t.memo.reference (fun () ->
      Jfeed_java.Parser.parse_program (Jfeed_gen.Spec.reference t.gen))

let oracle_degrees t =
  once t.memo.degrees (fun () ->
      Jfeed_absint.Passes.method_degrees (reference t))

(* Run with tracing off: the reference's interpreter spans would land in
   whichever submission's trace happened to come first. *)
let expected_outputs t =
  once t.memo.expected (fun () ->
      Jfeed_trace.Trace.with_current Jfeed_trace.Trace.disabled (fun () ->
          Jfeed_ftest.Runner.expected_outputs t.suite (reference t)))

let patterns t = List.concat_map (fun q -> q.Grader.q_patterns) t.grading.Grader.a_methods
let constraints t = List.concat_map (fun q -> q.Grader.q_constraints) t.grading.Grader.a_methods

let int_array xs = V.Varr (Array.of_list (List.map (fun n -> V.Vint n) xs))

(* ------------------------------------------------------------------ *)
(* Assignment 1                                                        *)

let assignment1 =
  let open Patterns in
  let q =
    {
      Grader.q_name = "assignment1";
      q_patterns =
        [
          (p_param_decl, 1);
          (p_odd_access, 1);
          (p_even_access, 1);
          (p_cond_accum_add, 1);
          (p_cond_accum_mul, 1);
          (p_print_var, 2);
        ];
      q_variants = [];
      q_constraints =
        [
          (* The paper's containment example: the odd-access node is the
             conditional cumulative addition. *)
          Constr.containment ~id:"a1_odd_is_sum"
            ~desc:"Odd positions must be added into the accumulator"
            ~ok:"The odd positions of %s% are added into %c%"
            ~fail:"The odd positions you access must be added into the sum"
            ("p_odd_access", 5)
            (Template.regex_of
               {|(%c% \+= %s%\[%x%\]|%c% = %c% \+ %s%\[%x%\])|})
            [ "p_cond_accum_add" ];
          Constr.equality ~id:"a1_even_is_prod"
            ~desc:"Even positions must be multiplied into the accumulator"
            ~ok:"The even positions are multiplied into the product"
            ~fail:
              "The even positions you access must be multiplied into the \
               product"
            ("p_even_access", 5) ("p_cond_accum_mul", 3);
          Constr.edge ~id:"a1_print_sum"
            ~desc:"The accumulated sum must be printed"
            ~ok:"The accumulated sum is printed"
            ~fail:"You must print the accumulated sum" ("p_cond_accum_add", 3)
            ("p_print_var", 1) E.Data;
          Constr.edge ~id:"a1_print_prod"
            ~desc:"The accumulated product must be printed"
            ~ok:"The accumulated product is printed"
            ~fail:"You must print the accumulated product"
            ("p_cond_accum_mul", 3) ("p_print_var", 1) E.Data;
        ];
    }
  in
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_assignment1.spec;
    grading =
      {
        Grader.a_id = "assignment1";
        a_title = Jfeed_gen.A_assignment1.spec.Jfeed_gen.Spec.title;
        a_methods = [ q ];
        enforce_headers = false;
      };
    suite =
      {
        Jfeed_ftest.Runner.entry = "assignment1";
        max_steps = 100_000;
        cases =
          [
            { label = "small"; args = [ int_array [ 3; 4; 5; 6 ] ]; files = [] };
            { label = "single"; args = [ int_array [ 7 ] ]; files = [] };
            { label = "empty"; args = [ int_array [] ]; files = [] };
            {
              label = "mixed";
              args = [ int_array [ 2; 10; 1; 3; 8 ] ];
              files = [];
            };
            {
              label = "longer";
              args = [ int_array [ 1; 2; 3; 4; 5; 6; 7 ] ];
              files = [];
            };
          ];
      };
  }

(* ------------------------------------------------------------------ *)
(* esc-LAB-3-P1-V1 and esc-LAB-3-P2-V1 (helper + driver)               *)

(* Driver-side grading shared by the two search assignments.  The flags
   keep the per-assignment pattern/constraint counts aligned with the
   paper's Table I (P and C columns). *)
let search_driver_q ~name ~with_double_update ~helper_re =
  let open Patterns in
  {
    Grader.q_name = name;
    q_patterns =
      ([ (p_param_decl, 1); (p_search_while, 1); (p_print_var, 1) ]
      @ if with_double_update then [ (p_double_update, 0) ] else []);
    q_variants = [ ("p_search_while", [ p_search_do ]) ];
    q_constraints =
      [
        Constr.edge
          ~id:(name ^ "_print_counter")
          ~desc:"The search counter must be printed"
          ~ok:"The final counter value is printed"
          ~fail:"Print the counter you advanced" ("p_search_while", 2)
          ("p_print_var", 1) E.Data;
        Constr.containment
          ~id:(name ^ "_cond_arg")
          ~desc:"The search must look one step ahead"
          ~ok:"The search condition looks ahead with %n% + 1"
          ~fail:"The search condition must look ahead with %n% + 1"
          ("p_search_while", 1)
          (Template.regex_of {|.*\(%n% \+ 1\).*|})
          [];
        Constr.equality
          ~id:(name ^ "_printed_is_counter")
          ~desc:"The printed value must be the advanced counter"
          ~ok:"You print exactly the counter you advanced"
          ~fail:"Print exactly the counter you advanced" ("p_print_var", 0)
          ("p_search_while", 2);
      ]
      @
      match helper_re with
      | None -> []
      | Some re ->
          [
            Constr.containment
              ~id:(name ^ "_calls_helper")
              ~desc:"The search condition must call the helper method"
              ~ok:"The helper method is used in the search condition"
              ~fail:"Call your helper method inside the search condition"
              ("p_search_while", 1) (Template.regex_of re) [];
          ];
  }

let factorial_q ~prefix ~extended =
  let open Patterns in
  {
    Grader.q_name = "factorial";
    q_patterns =
      [ (p_param_decl, 1); (p_factorial, 1); (p_counter_loop, 1);
        (p_return_var, 1) ];
    q_variants = [];
    q_constraints =
      (if extended then
         [
           Constr.edge ~id:(prefix ^ "_fact_param_bounds_loop")
             ~desc:"The parameter must bound the factorial loop"
             ~ok:"The parameter bounds the factorial loop"
             ~fail:"Bound the factorial loop with the parameter"
             ("p_param_decl", 0) ("p_factorial", 1) E.Data;
           Constr.containment ~id:(prefix ^ "_fact_init_one")
             ~desc:"The factorial accumulator must start at 1"
             ~ok:"The factorial accumulator starts at 1"
             ~fail:"Start the factorial accumulator at 1" ("p_factorial", 0)
             (Template.exact_of "%f% = 1")
             [];
         ]
       else [])
      @ [
        Constr.equality ~id:(prefix ^ "_fact_returns_product")
          ~desc:"The returned variable must be the accumulated product"
          ~ok:"You return the accumulated product"
          ~fail:"Return the variable that accumulates the product"
          ("p_return_var", 0) ("p_factorial", 2);
        Constr.equality ~id:(prefix ^ "_fact_counter_is_index")
          ~desc:"The loop counter must drive the multiplication"
          ~ok:"The loop counter drives the multiplication"
          ~fail:"The loop counter must drive the multiplication"
          ("p_counter_loop", 2) ("p_factorial", 3);
      ];
  }

let fib_q ~prefix ~full =
  let open Patterns in
  {
    Grader.q_name = "fib";
    q_patterns =
      [ (p_param_decl, 1); (p_fib_step, 1); (p_counter_loop, 1);
        (p_return_var, 1) ];
    q_variants = [];
    q_constraints =
      [
        Constr.equality ~id:(prefix ^ "_fib_returns_first_seed")
          ~desc:"The returned variable must be the first Fibonacci value"
          ~ok:"You return the first of the two stepped values"
          ~fail:"Return the first of the two stepped values, not the second"
          ("p_return_var", 0) ("p_fib_step", 3);
        Constr.equality ~id:(prefix ^ "_fib_loop_drives_step")
          ~desc:"The counter loop must drive the stepping"
          ~ok:"The counter loop drives the Fibonacci stepping"
          ~fail:"Drive the Fibonacci stepping with the counter loop"
          ("p_counter_loop", 1) ("p_fib_step", 5);
        Constr.edge ~id:(prefix ^ "_fib_counter_feeds_loop")
          ~desc:"The counter must feed the loop condition"
          ~ok:"The loop condition reads the counter"
          ~fail:"The loop condition must read the counter"
          ("p_counter_loop", 0) ("p_fib_step", 5) E.Data;
        Constr.edge ~id:(prefix ^ "_fib_param_bounds_loop")
          ~desc:"The parameter must bound the counter loop"
          ~ok:"The parameter bounds the loop"
          ~fail:"Bound the loop with the method parameter" ("p_param_decl", 0)
          ("p_counter_loop", 1) E.Data;
      ]
      @ (if full then
           [
             Constr.containment ~id:(prefix ^ "_fib_step_shape")
               ~desc:"The stepping must sum the previous two values"
               ~ok:"The stepping sums the previous two values"
               ~fail:"Sum the previous two values into a temporary"
               ("p_fib_step", 2)
               (Template.exact_of "%t% = %a% + %b%")
               [];
             Constr.edge ~id:(prefix ^ "_fib_shift_reaches_return")
               ~desc:"The shifted value must reach the return"
               ~ok:"The shifted value reaches the return"
               ~fail:"Return the value you shift in the loop" ("p_fib_step", 3)
               ("p_return_var", 1) E.Data;
           ]
         else [])
      @ [
        Constr.containment ~id:(prefix ^ "_fib_loop_bound_shape")
          ~desc:"The counter loop must use a strict bound"
          ~ok:"The counter loop uses a strict bound"
          ~fail:"Use a strict < bound on the counter loop" ("p_counter_loop", 1)
          (Template.regex_of {|%i% < .+|})
          [];
        Constr.containment ~id:(prefix ^ "_fib_returns_a")
          ~desc:"The return must name the first seed"
          ~ok:"The return names the first stepped value"
          ~fail:"Return the first stepped value" ("p_return_var", 1)
          (Template.exact_of "return %a%")
          [ "p_fib_step" ];
        Constr.containment ~id:(prefix ^ "_fib_counter_starts_1")
          ~desc:"The stepping counter must start at 1"
          ~ok:"The stepping counter starts at 1"
          ~fail:"Start the stepping counter at 1" ("p_counter_loop", 0)
          (Template.exact_of "%i% = 1")
          [];
      ];
  }

let int_arg n = V.Vint n

let search_suite ~entry ~ks ~max_steps =
  {
    Jfeed_ftest.Runner.entry;
    max_steps;
    cases =
      List.map
        (fun k ->
          {
            Jfeed_ftest.Runner.label = Printf.sprintf "k=%d" k;
            args = [ int_arg k ];
            files = [];
          })
        ks;
  }

let esc_p1v1 =
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_search.p1v1;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P1-V1";
        a_title = Jfeed_gen.A_esc_search.p1v1.Jfeed_gen.Spec.title;
        a_methods =
          [
            search_driver_q ~name:"lab3p1" ~with_double_update:false
              ~helper_re:None;
            factorial_q ~prefix:"p1v1" ~extended:false;
          ];
        enforce_headers = false;
      };
    suite =
      search_suite ~entry:"lab3p1"
        ~ks:[ 1; 2; 6; 7; 23; 24; 100; 719; 720; 5040 ]
        ~max_steps:200_000;
  }

let esc_p2v1 =
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_search.p2v1;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P2-V1";
        a_title = Jfeed_gen.A_esc_search.p2v1.Jfeed_gen.Spec.title;
        a_methods =
          [
            search_driver_q ~name:"lab3p2" ~with_double_update:true
              ~helper_re:(Some {|.*(fib|fibonacci)\(.*|});
            fib_q ~prefix:"p2v1" ~full:true;
          ];
        enforce_headers = false;
      };
    suite =
      search_suite ~entry:"lab3p2"
        ~ks:[ 1; 2; 3; 5; 8; 13; 100; 10000 ]
        ~max_steps:500_000;
  }

(* ------------------------------------------------------------------ *)
(* Digit-manipulation assignments                                      *)

let esc_p2v2 =
  let open Patterns in
  let q =
    {
      Grader.q_name = "lab3p2v2";
      q_patterns =
        [
          (p_param_decl, 1);
          (p_digit_peel, 1);
          (p_cube_sum, 1);
          (p_compare_print, 1);
        ];
      q_variants = [];
      q_constraints =
        [
          Constr.containment ~id:"p2v2_cube_of_digit"
            ~desc:"The cubed value must be the extracted digit"
            ~ok:"You cube exactly the extracted digit %d%"
            ~fail:"Cube exactly the digit you extract" ("p_cube_sum", 1)
            (Template.regex_of
               {|(%cs% \+= %d% \* %d% \* %d%|%cs% = %cs% \+ %d% \* %d% \* %d%)|})
            [ "p_digit_peel" ];
          Constr.containment ~id:"p2v2_compare_shape"
            ~desc:"The sum must be compared against the input"
            ~ok:"You compare the digit-cube sum against the input"
            ~fail:"Compare the digit-cube sum against the original input"
            ("p_compare_print", 0)
            (Template.regex_of {|(%cs% == %k%|%k% == %cs%)|})
            [ "p_cube_sum"; "p_param_decl" ];
          Constr.edge ~id:"p2v2_sum_reaches_compare"
            ~desc:"The accumulated sum must reach the comparison"
            ~ok:"The accumulated sum reaches the comparison"
            ~fail:"Compare the sum you accumulated" ("p_cube_sum", 1)
            ("p_compare_print", 0) E.Data;
          Constr.edge ~id:"p2v2_param_reaches_compare"
            ~desc:"The original input must reach the comparison"
            ~ok:"The original input reaches the comparison"
            ~fail:"Compare against the original input value" ("p_param_decl", 0)
            ("p_compare_print", 0) E.Data;
          Constr.edge ~id:"p2v2_digit_feeds_sum"
            ~desc:"The extracted digit must feed the sum"
            ~ok:"The extracted digit feeds the sum"
            ~fail:"Accumulate the digit you extract" ("p_digit_peel", 1)
            ("p_cube_sum", 1) E.Data;
        ];
    }
  in
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_digits.p2v2;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P2-V2";
        a_title = Jfeed_gen.A_esc_digits.p2v2.Jfeed_gen.Spec.title;
        a_methods = [ q ];
        enforce_headers = false;
      };
    suite =
      search_suite ~entry:"lab3p2v2"
        ~ks:[ 1; 2; 10; 153; 154; 370; 371; 407; 500 ]
        ~max_steps:100_000;
  }

let esc_p3v1 =
  let open Patterns in
  let q =
    {
      Grader.q_name = "lab3p3v1";
      q_patterns =
        [
          (p_param_decl, 1);
          (p_copy_param, 1);
          (p_digit_peel, 1);
          (p_reverse_accum, 1);
          (p_abs_diff, 1);
          (p_print_var, 1);
          (p_double_update, 0);
        ];
      q_variants = [ ("p_digit_peel", [ p_digit_peel_log10 ]) ];
      q_constraints =
        [
          Constr.containment ~id:"p3v1_reverse_of_digit"
            ~desc:"The reverse must accumulate the extracted digit"
            ~ok:"The reverse accumulates exactly the extracted digit"
            ~fail:"Accumulate exactly the digit you extract into the reverse"
            ("p_reverse_accum", 1)
            (Template.exact_of "%rv% = %rv% * 10 + %d%")
            [ "p_digit_peel" ];
          Constr.edge ~id:"p3v1_digit_feeds_reverse"
            ~desc:"The extracted digit must feed the reverse"
            ~ok:"The extracted digit feeds the reverse"
            ~fail:"Feed the extracted digit into the reverse"
            ("p_digit_peel", 1) ("p_reverse_accum", 1) E.Data;
          Constr.edge ~id:"p3v1_param_in_diff"
            ~desc:"The original input must appear in the difference"
            ~ok:"The difference uses the original input"
            ~fail:
              "The difference must use the original input — do not destroy \
               the parameter" ("p_param_decl", 0) ("p_abs_diff", 0) E.Data;
          Constr.edge ~id:"p3v1_reverse_in_diff"
            ~desc:"The reverse must appear in the difference"
            ~ok:"The difference uses the accumulated reverse"
            ~fail:"The difference must use the accumulated reverse"
            ("p_reverse_accum", 1) ("p_abs_diff", 0) E.Data;
          Constr.equality ~id:"p3v1_print_final"
            ~desc:"The printed value must be the positive difference"
            ~ok:"You print the positive difference"
            ~fail:"Print the positive difference, not an intermediate value"
            ("p_print_var", 0) ("p_abs_diff", 2);
          Constr.containment ~id:"p3v1_diff_operands"
            ~desc:"The difference must be between the input and its reverse"
            ~ok:"The difference is between the input and its reverse"
            ~fail:"Take the difference of the input and its reverse"
            ("p_abs_diff", 0)
            (Template.regex_of {|(%df% = %k% - %rv%|%df% = %rv% - %k%)|})
            [ "p_param_decl"; "p_reverse_accum" ];
        ];
    }
  in
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_digits.p3v1;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P3-V1";
        a_title = Jfeed_gen.A_esc_digits.p3v1.Jfeed_gen.Spec.title;
        a_methods = [ q ];
        enforce_headers = false;
      };
    suite =
      search_suite ~entry:"lab3p3v1"
        ~ks:[ 5; 12; 21; 100; 1221; 123456 ]
        ~max_steps:100_000;
  }

let esc_p4v1 =
  let open Patterns in
  let q =
    {
      Grader.q_name = "lab3p4v1";
      q_patterns =
        [
          (p_param_decl, 1);
          (p_copy_param, 1);
          (p_digit_peel, 1);
          (p_reverse_accum, 1);
          (p_compare_print, 1);
          (p_string_output, 2);
          (p_double_update, 0);
        ];
      q_variants = [ ("p_digit_peel", [ p_digit_peel_log10 ]) ];
      q_constraints =
        [
          Constr.containment ~id:"p4v1_reverse_of_digit"
            ~desc:"The reverse must accumulate the extracted digit"
            ~ok:"The reverse accumulates exactly the extracted digit"
            ~fail:"Accumulate exactly the digit you extract into the reverse"
            ("p_reverse_accum", 1)
            (Template.exact_of "%rv% = %rv% * 10 + %d%")
            [ "p_digit_peel" ];
          Constr.edge ~id:"p4v1_digit_feeds_reverse"
            ~desc:"The extracted digit must feed the reverse"
            ~ok:"The extracted digit feeds the reverse"
            ~fail:"Feed the extracted digit into the reverse"
            ("p_digit_peel", 1) ("p_reverse_accum", 1) E.Data;
          Constr.edge ~id:"p4v1_param_in_compare"
            ~desc:"The comparison must use the original input"
            ~ok:"The comparison uses the original input"
            ~fail:
              "Compare against the original input — do not destroy the \
               parameter" ("p_param_decl", 0) ("p_compare_print", 0) E.Data;
          Constr.edge ~id:"p4v1_reverse_in_compare"
            ~desc:"The comparison must use the accumulated reverse"
            ~ok:"The comparison uses the accumulated reverse"
            ~fail:"Compare the reverse you accumulated" ("p_reverse_accum", 1)
            ("p_compare_print", 0) E.Data;
          Constr.equality ~id:"p4v1_copied_param"
            ~desc:"The copied variable must come from the input parameter"
            ~ok:"You work on a copy of the input parameter"
            ~fail:"Copy the input parameter before consuming it"
            ("p_copy_param", 0) ("p_param_decl", 0);
          Constr.containment ~id:"p4v1_compare_shape"
            ~desc:"The reverse must be compared against the input"
            ~ok:"You compare the reverse against the input"
            ~fail:"Compare the reverse against the original input"
            ("p_compare_print", 0)
            (Template.regex_of {|(%rv% == %k%|%k% == %rv%)|})
            [ "p_reverse_accum"; "p_param_decl" ];
        ];
    }
  in
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_digits.p4v1;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P4-V1";
        a_title = Jfeed_gen.A_esc_digits.p4v1.Jfeed_gen.Spec.title;
        a_methods = [ q ];
        enforce_headers = false;
      };
    suite =
      search_suite ~entry:"lab3p4v1"
        ~ks:[ 1; 7; 11; 12; 121; 123; 1221; 1231 ]
        ~max_steps:100_000;
  }

(* ------------------------------------------------------------------ *)
(* esc-LAB-3-P3-V2 and esc-LAB-3-P4-V2 (count helper values in [n, m]) *)

(* The counting driver.  [full] adds the guard/bound shape constraints
   (P3-V2); [start_at_1] adds the counter-start constraint that produces
   the paper's 248 P4-V2 discrepancies. *)
let counting_q ~name ~full ~start_at_1 ~with_double_update =
  let open Patterns in
  {
    Grader.q_name = name;
    q_patterns =
      ([
         (p_param_decl, 2);
         (p_counter_loop, 1);
         (p_cond_accum_add, 1);
         (p_print_var, 1);
       ]
      @ if with_double_update then [ (p_double_update, 0) ] else []);
    q_variants = [];
    q_constraints =
      [
        Constr.edge
          ~id:(name ^ "_count_printed")
          ~desc:"The count must be printed"
          ~ok:"The accumulated count is printed"
          ~fail:"Print the count you accumulated" ("p_cond_accum_add", 3)
          ("p_print_var", 1) E.Data;
        Constr.equality
          ~id:(name ^ "_printed_is_count")
          ~desc:"The printed value must be the count"
          ~ok:"You print exactly the accumulated count"
          ~fail:"Print exactly the accumulated count" ("p_print_var", 0)
          ("p_cond_accum_add", 3);
        Constr.containment
          ~id:(name ^ "_count_starts_0")
          ~desc:"The count must start at 0" ~ok:"The count starts at 0"
          ~fail:"Start the count at 0" ("p_cond_accum_add", 0)
          (Template.exact_of "%c% = 0")
          [];
        Constr.edge
          ~id:(name ^ "_counter_feeds_cond")
          ~desc:"The loop counter must feed the loop condition"
          ~ok:"The loop counter feeds the loop condition"
          ~fail:"The loop condition must use the counter" ("p_counter_loop", 0)
          ("p_cond_accum_add", 1) E.Data;
      ]
      @ (if start_at_1 then
           [
             Constr.containment
               ~id:(name ^ "_counter_starts_1")
               ~desc:"The sequence index must start at 1 (fib(1) = 1)"
               ~ok:"The sequence index starts at 1"
               ~fail:
                 "The Fibonacci sequence starts at 1 — modify the starting \
                  point of the counter" ("p_counter_loop", 0)
               (Template.exact_of "%i% = 1")
               [];
           ]
         else [])
      @
      if full then
        [
          Constr.containment
            ~id:(name ^ "_guard_lower_bound")
            ~desc:"The guard must check the lower bound"
            ~ok:"The guard checks the lower bound with >="
            ~fail:"Check the lower bound with >=" ("p_cond_accum_add", 2)
            (Template.regex_of {|.*>= .+|})
            [];
          Constr.containment
            ~id:(name ^ "_loop_upper_bound")
            ~desc:"The loop must stop at the upper bound"
            ~ok:"The loop stops at the upper bound with <="
            ~fail:"Stop the loop at the upper bound with <="
            ("p_cond_accum_add", 1)
            (Template.regex_of {|.*<= .+|})
            [];
        ]
      else [];
  }

let range_suite ~entry ~pairs ~max_steps =
  {
    Jfeed_ftest.Runner.entry;
    max_steps;
    cases =
      List.map
        (fun (n, m) ->
          {
            Jfeed_ftest.Runner.label = Printf.sprintf "[%d,%d]" n m;
            args = [ V.Vint n; V.Vint m ];
            files = [];
          })
        pairs;
  }

let esc_p3v2 =
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_count.p3v2;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P3-V2";
        a_title = Jfeed_gen.A_esc_count.p3v2.Jfeed_gen.Spec.title;
        a_methods =
          [
            counting_q ~name:"lab3p3v2" ~full:true ~start_at_1:false
              ~with_double_update:false;
            factorial_q ~prefix:"p3v2" ~extended:true;
          ];
        enforce_headers = false;
      };
    suite =
      range_suite ~entry:"lab3p3v2"
        ~pairs:[ (1, 15); (2, 100); (1, 1); (7, 120) ]
        ~max_steps:200_000;
  }

let esc_p4v2 =
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_esc_count.p4v2;
    grading =
      {
        Grader.a_id = "esc-LAB-3-P4-V2";
        a_title = Jfeed_gen.A_esc_count.p4v2.Jfeed_gen.Spec.title;
        a_methods =
          [
            counting_q ~name:"lab3p4v2" ~full:true ~start_at_1:true
              ~with_double_update:true;
            fib_q ~prefix:"p4v2" ~full:false;
          ];
        enforce_headers = false;
      };
    suite =
      range_suite ~entry:"lab3p4v2"
        ~pairs:[ (2, 15); (2, 100); (3, 55); (6, 200) ]
        ~max_steps:200_000;
  }

(* ------------------------------------------------------------------ *)
(* mitx-derivatives and mitx-polynomials                               *)

let mitx_derivatives =
  let open Patterns in
  let q =
    {
      Grader.q_name = "derivatives";
      q_patterns =
        [ (p_param_decl, 1); (p_counter_loop, 1); (p_print_var, 1) ];
      q_variants = [];
      q_constraints =
        [
          Constr.containment ~id:"deriv_starts_at_1"
            ~desc:"The loop must start at index 1 (the constant term drops)"
            ~ok:"The loop starts at index 1"
            ~fail:"Start at index 1 — the constant term has no derivative"
            ("p_counter_loop", 0)
            (Template.exact_of "%i% = 1")
            [];
          Constr.containment ~id:"deriv_bound"
            ~desc:"The loop must stop before the array length"
            ~ok:"The loop stops before the array length"
            ~fail:"Stop the loop strictly before the array length"
            ("p_counter_loop", 1)
            (Template.regex_of {|%i% < .+\.length|})
            [];
          Constr.containment ~id:"deriv_term"
            ~desc:"Each printed term must be coefficient times exponent"
            ~ok:"Each term is coefficient times exponent"
            ~fail:"Each derivative term must be %k%[%i%] * %i%"
            ("p_print_var", 0)
            (Template.regex_of {|%c% = %k%\[%i%\] \* %i%|})
            [ "p_counter_loop"; "p_param_decl" ];
          Constr.edge ~id:"deriv_uses_input"
            ~desc:"The term must read the input array"
            ~ok:"The term reads the input array"
            ~fail:"Compute the term from the input array" ("p_param_decl", 0)
            ("p_print_var", 0) E.Data;
        ];
    }
  in
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_mitx.derivatives;
    grading =
      {
        Grader.a_id = "mitx-derivatives";
        a_title = Jfeed_gen.A_mitx.derivatives.Jfeed_gen.Spec.title;
        a_methods = [ q ];
        enforce_headers = false;
      };
    suite =
      {
        Jfeed_ftest.Runner.entry = "derivatives";
        max_steps = 100_000;
        cases =
          [
            { label = "constant"; args = [ int_array [ 5 ] ]; files = [] };
            { label = "linear"; args = [ int_array [ 3; 4 ] ]; files = [] };
            { label = "quad"; args = [ int_array [ 1; 2; 3 ] ]; files = [] };
            {
              label = "cubic";
              args = [ int_array [ 2; 0; 5; 7 ] ];
              files = [];
            };
          ];
      };
  }

let mitx_polynomials =
  let open Patterns in
  let q =
    {
      Grader.q_name = "polynomials";
      q_patterns =
        [
          (p_param_decl, 2);
          (p_counter_loop, 1);
          (p_poly_accum, 1);
          (p_print_var, 1);
        ];
      q_variants = [];
      q_constraints =
        [
          Constr.containment ~id:"poly_starts_at_0"
            ~desc:"The loop must start at index 0"
            ~ok:"The loop starts at index 0" ~fail:"Start at index 0"
            ("p_counter_loop", 0)
            (Template.exact_of "%i% = 0")
            [];
          Constr.containment ~id:"poly_bound"
            ~desc:"The loop must stop before the array length"
            ~ok:"The loop stops before the array length"
            ~fail:"Stop the loop strictly before the array length"
            ("p_counter_loop", 1)
            (Template.regex_of {|%i% < .+\.length|})
            [];
          Constr.containment ~id:"poly_term"
            ~desc:"Each term must be coefficient times running power"
            ~ok:"Each term is coefficient times the running power"
            ~fail:"Accumulate %k%[%i%] times the running power"
            ("p_poly_accum", 2)
            (Template.regex_of
               {|(%r8% \+= %k%\[%i%\] \* %w8%|%r8% = %r8% \+ %k%\[%i%\] \* %w8%)|})
            [ "p_param_decl"; "p_counter_loop" ];
          Constr.containment ~id:"poly_power_step"
            ~desc:"The running power must be multiplied by the point"
            ~ok:"The running power is multiplied by the point"
            ~fail:"Multiply the running power by the evaluation point"
            ("p_poly_accum", 3)
            (Template.regex_of {|(%w8% \*= %k%|%w8% = %w8% \* %k%)|})
            [ "p_param_decl" ];
        ];
    }
  in
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_mitx.polynomials;
    grading =
      {
        Grader.a_id = "mitx-polynomials";
        a_title = Jfeed_gen.A_mitx.polynomials.Jfeed_gen.Spec.title;
        a_methods = [ q ];
        enforce_headers = false;
      };
    suite =
      {
        Jfeed_ftest.Runner.entry = "polynomials";
        max_steps = 100_000;
        cases =
          [
            {
              label = "constant";
              args = [ int_array [ 3 ]; V.Vint 5 ];
              files = [];
            };
            {
              label = "linear";
              args = [ int_array [ 1; 2 ]; V.Vint 10 ];
              files = [];
            };
            {
              label = "quad";
              args = [ int_array [ 2; 0; 1 ]; V.Vint 3 ];
              files = [];
            };
            {
              label = "ones";
              args = [ int_array [ 1; 1; 1; 1 ]; V.Vint 2 ];
              files = [];
            };
            { label = "empty"; args = [ int_array []; V.Vint 4 ]; files = [] };
          ];
      };
  }

(* ------------------------------------------------------------------ *)
(* rit-all-g-medals and rit-medals-by-ath                              *)

let olympics_records = Jfeed_ftest.Data.olympics_curated
let olympics_file = Jfeed_ftest.Data.olympics_file olympics_records
let olympics_fs = [ ("summer_olympics.txt", olympics_file) ]

(* Residue-pinning constraints shared by the two RIT assignments. *)
let rit_residue_constraints name =
  [
    Constr.containment
      ~id:(name ^ "_first_name_at_1")
      ~desc:"The first name must be read at record position 1"
      ~ok:"A string field is read at record position 1"
      ~fail:"Read the first name at record position 1" ("p_read_str_field", 0)
      (Template.exact_of "%ru% % 5 == 1")
      [];
    Constr.containment
      ~id:(name ^ "_last_name_at_2")
      ~desc:"The last name must be read at record position 2"
      ~ok:"A string field is read at record position 2"
      ~fail:"Read the last name at record position 2" ("p_read_str_field", 0)
      (Template.exact_of "%ru% % 5 == 2")
      [];
    Constr.containment
      ~id:(name ^ "_separator_at_0")
      ~desc:"The record separator must be read at record position 0"
      ~ok:"A string field is read at record position 0"
      ~fail:"Read the record separator at record position 0"
      ("p_read_str_field", 0)
      (Template.exact_of "%ru% % 5 == 0")
      [];
    Constr.containment
      ~id:(name ^ "_medal_at_3")
      ~desc:"The medal type must be read at record position 3"
      ~ok:"An integer field is read at record position 3"
      ~fail:"Read the medal type at record position 3" ("p_read_int_field", 0)
      (Template.exact_of "%ru% % 5 == 3")
      [];
    Constr.containment
      ~id:(name ^ "_year_at_4")
      ~desc:"The year must be read at record position 4"
      ~ok:"An integer field is read at record position 4"
      ~fail:"Read the year at record position 4" ("p_read_int_field", 0)
      (Template.exact_of "%ru% % 5 == 4")
      [];
  ]

let rit_q ~name ~extra_constraints =
  let open Patterns in
  {
    Grader.q_name = name;
    q_patterns =
      [
        (p_param_decl, 1);
        (p_scanner_loop, 1);
        (p_close_scanner, 1);
        (p_read_str_field, 3);
        (p_read_int_field, 2);
        (p_record_guard, 1);
        (p_cond_accum_add, 1);
        (p_print_var, 1);
        (p_double_update, 0);
      ];
    q_variants = [];
    q_constraints = rit_residue_constraints name @ extra_constraints;
  }

let rit_gold =
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_rit.all_g_medals;
    grading =
      {
        Grader.a_id = "rit-all-g-medals";
        a_title = Jfeed_gen.A_rit.all_g_medals.Jfeed_gen.Spec.title;
        a_methods =
          [
            rit_q ~name:"countGoldMedals"
              ~extra_constraints:
                [
                  Constr.containment ~id:"gold_guard_at_4"
                    ~desc:"The count must happen at record position 4"
                    ~ok:"You count right after reading the year"
                    ~fail:"Count at record position 4, once per record"
                    ("p_record_guard", 0)
                    (Template.regex_of {|.*%gu% % 5 == 4.*|})
                    [];
                  Constr.containment ~id:"gold_medal_code"
                    ~desc:"Gold medals have code 1"
                    ~ok:"You test the medal type against 1 (gold)"
                    ~fail:"Gold medals have code 1 — test the medal type \
                           against 1" ("p_record_guard", 0)
                    (Template.regex_of {|.*%fv% == 1.*|})
                    [ "p_read_int_field" ];
                ];
          ];
        enforce_headers = false;
      };
    suite =
      {
        Jfeed_ftest.Runner.entry = "countGoldMedals";
        max_steps = 200_000;
        cases =
          List.map
            (fun year ->
              {
                Jfeed_ftest.Runner.label = string_of_int year;
                args = [ V.Vint year ];
                files = olympics_fs;
              })
            [ 2000; 2008; 2016 ];
      };
  }

let rit_ath =
  {
    memo = new_memo ();
    gen = Jfeed_gen.A_rit.medals_by_ath;
    grading =
      {
        Grader.a_id = "rit-medals-by-ath";
        a_title = Jfeed_gen.A_rit.medals_by_ath.Jfeed_gen.Spec.title;
        a_methods =
          [
            {
              (rit_q ~name:"countMedals"
                 ~extra_constraints:
                   [
                     Constr.containment ~id:"ath_guard_residue"
                       ~desc:
                         "The count must happen after both names are read"
                       ~ok:"You count after both names of the record are read"
                       ~fail:
                         "Count only after both names of the record have \
                          been read" ("p_record_guard", 0)
                       (Template.regex_of {|.*%gu% % 5 == (0|2).*|})
                       [];
                     Constr.containment ~id:"ath_name_match"
                       ~desc:"The names must be compared with equals"
                       ~ok:"You compare the names with .equals"
                       ~fail:
                         "Compare the athlete names with .equals, not =="
                       ("p_record_guard", 0)
                       (Template.regex_of
                          {|.*(%fv%\.equals\(%k%\)|%k%\.equals\(%fv%\)).*|})
                       [ "p_read_str_field"; "p_param_decl" ];
                   ])
              with
              q_patterns =
                (let q =
                   rit_q ~name:"countMedals" ~extra_constraints:[]
                 in
                 List.map
                   (fun (p, t) ->
                     if p.Pattern.id = "p_param_decl" then (p, 2) else (p, t))
                   q.Grader.q_patterns);
            };
          ];
        enforce_headers = false;
      };
    suite =
      {
        Jfeed_ftest.Runner.entry = "countMedals";
        max_steps = 200_000;
        cases =
          List.map
            (fun (first, last) ->
              {
                Jfeed_ftest.Runner.label = first ^ "-" ^ last;
                args = [ V.Vstr first; V.Vstr last ];
                files = olympics_fs;
              })
            [ ("Usain", "Bolt"); ("Michael", "Phelps"); ("Simone", "Biles") ];
      };
  }

let all =
  [ assignment1; esc_p1v1; esc_p2v1; esc_p2v2; esc_p3v1; esc_p4v1; esc_p3v2;
    esc_p4v2; mitx_derivatives; mitx_polynomials; rit_gold; rit_ath ]

let find id =
  List.find_opt (fun b -> b.grading.Grader.a_id = id) all

(* Pre-compile every shipped pattern — primaries and variants alike —
   into its match plan at bundle load, so on the main domain
   [Plan.of_pattern] on the grading path is a memo lookup, never a
   compile. *)
let () =
  List.iter
    (fun b ->
      List.iter
        (fun (q : Grader.method_spec) ->
          List.iter
            (fun (p, _) -> ignore (Plan.of_pattern p))
            q.Grader.q_patterns;
          List.iter
            (fun (_, vs) -> List.iter (fun p -> ignore (Plan.of_pattern p)) vs)
            q.Grader.q_variants)
        b.grading.Grader.a_methods)
    all

(* ------------------------------------------------------------------ *)
(* KB revision fingerprint.

   A stable digest of everything grading-relevant in the knowledge base:
   every bundle's id, expected methods, patterns (node templates, types,
   edges, feedback texts, occurrence counts), variants, constraints, and
   the header-enforcement flag.  The serving tier's result cache keys on
   it, so outcomes cached by a binary with one knowledge base are never
   served by a binary with another — editing any pattern invalidates the
   whole cache, which is exactly the safe granularity for a compiled-in
   KB. *)

let revision =
  let dump_template buf tag (t : Template.t) =
    Buffer.add_string buf tag;
    Buffer.add_string buf (Template.source t);
    Buffer.add_char buf '\x00'
  in
  let dump_pattern buf (p : Pattern.t) =
    Buffer.add_string buf p.Pattern.id;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf p.Pattern.description;
    Buffer.add_char buf '\x00';
    Array.iter
      (fun (n : Pattern.pnode) ->
        Buffer.add_string buf
          (match n.Pattern.pn_type with
          | None -> "*"
          | Some ty -> E.string_of_node_type ty);
        dump_template buf "r:" n.Pattern.exact;
        Option.iter (dump_template buf "r^:") n.Pattern.approx;
        Buffer.add_string buf (Option.value ~default:"" n.Pattern.fb_correct);
        Buffer.add_char buf '\x00';
        Buffer.add_string buf
          (Option.value ~default:"" n.Pattern.fb_incorrect);
        Buffer.add_char buf '\x00')
      p.Pattern.nodes;
    List.iter
      (fun (u, v, ty) ->
        Buffer.add_string buf
          (Printf.sprintf "%d>%d:%s;" u v (E.string_of_edge_type ty)))
      p.Pattern.edges;
    Buffer.add_string buf p.Pattern.fb_present;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf p.Pattern.fb_missing;
    Buffer.add_char buf '\x00'
  in
  let dump_constr buf (c : Constr.t) =
    Buffer.add_string buf c.Constr.c_id;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf c.Constr.description;
    Buffer.add_char buf '\x00';
    (match c.Constr.kind with
    | Constr.Equality { pi; ui; pj; uj } ->
        Buffer.add_string buf (Printf.sprintf "eq:%s.%d=%s.%d" pi ui pj uj)
    | Constr.Edge_exists { pi; ui; pj; uj; edge } ->
        Buffer.add_string buf
          (Printf.sprintf "edge:%s.%d>%s.%d:%s" pi ui pj uj
             (E.string_of_edge_type edge))
    | Constr.Containment { main; u; template; support } ->
        Buffer.add_string buf
          (Printf.sprintf "contain:%s.%d:%s:%s" main u
             (Template.source template)
             (String.concat "," support)));
    Buffer.add_string buf c.Constr.fb_ok;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf c.Constr.fb_fail;
    Buffer.add_char buf '\x00'
  in
  lazy
    (let buf = Buffer.create 65536 in
     List.iter
       (fun b ->
         Buffer.add_string buf b.grading.Grader.a_id;
         Buffer.add_char buf '\x00';
         Buffer.add_string buf b.grading.Grader.a_title;
         Buffer.add_char buf '\x00';
         Buffer.add_string buf
           (if b.grading.Grader.enforce_headers then "h1" else "h0");
         List.iter
           (fun (q : Grader.method_spec) ->
             Buffer.add_string buf q.Grader.q_name;
             Buffer.add_char buf '\x00';
             List.iter
               (fun (p, t) ->
                 Buffer.add_string buf (Printf.sprintf "t=%d:" t);
                 dump_pattern buf p)
               q.Grader.q_patterns;
             List.iter
               (fun (primary, variants) ->
                 Buffer.add_string buf ("variants-of:" ^ primary);
                 List.iter (dump_pattern buf) variants)
               q.Grader.q_variants;
             List.iter (dump_constr buf) q.Grader.q_constraints)
           b.grading.Grader.a_methods)
       all;
     Digest.to_hex (Digest.string (Buffer.contents buf)))

let revision () = Lazy.force revision
