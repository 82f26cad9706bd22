(** The throughput layer: the Domain worker pool, the fuel-split
    arithmetic, and the headline guarantee — parallel batch grading is
    byte-identical to sequential on the fault-injection corpus. *)

open Jfeed_kb
open Jfeed_robust
module Pool = Jfeed_parallel.Pool
module Budget = Jfeed_budget.Budget

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool.map: sequential semantics at any width *)

let prop_map_equals_array_map =
  QCheck.Test.make ~count:200 ~name:"Pool.map = Array.map at any jobs"
    QCheck.(pair (list small_int) (int_bound 7))
    (fun (xs, jobs) ->
      let a = Array.of_list xs in
      let f x = (x * 37) + (x mod 5) in
      Pool.map ~jobs:(jobs + 1) ~f a = Array.map f a)

let test_map_exception_first_index () =
  (* The first failing *index* is re-raised, not the first to finish. *)
  let a = Array.init 40 Fun.id in
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x in
  match Pool.map ~jobs:4 ~f a with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "index order" "3" msg

(* ------------------------------------------------------------------ *)
(* Budget.split: nothing lost to integer division *)

let prop_split_sum_preserving =
  QCheck.Test.make ~count:300 ~name:"Budget.split pools sum to the total"
    QCheck.(pair (int_bound 1_000_000) (int_bound 63))
    (fun (total, ways) ->
      let ways = ways + 1 in
      let pools = Budget.split total ~ways in
      List.length pools = ways
      && List.fold_left ( + ) 0 pools = total
      && (* even: largest and smallest pool differ by at most one unit *)
      List.for_all
        (fun p -> abs (p - (total / ways)) <= 1)
        pools)

let test_split_rejects_zero_ways () =
  Alcotest.check_raises "ways must be positive"
    (Invalid_argument "Budget.split: ways must be positive") (fun () ->
      ignore (Budget.split 100 ~ways:0))

(* ------------------------------------------------------------------ *)
(* Determinism: run_batch ~jobs:4 ≡ ~jobs:1, byte for byte, on the
   fault-injection corpus (clean generated submissions plus mutants of
   every class — parse garbage, deep nesting, giant expressions — under
   a finite fuel budget, functional tests included). *)

let corpus_bundle = Bundles.esc_p2v2

let corpus =
  let spec = corpus_bundle.Bundles.gen in
  let size = Jfeed_gen.Spec.size spec in
  List.init 60 (fun i ->
      let idx = (i * 48271) mod size in
      let src = Jfeed_gen.Spec.source_of_index spec idx in
      let src =
        (* Two in three submissions are mutated, the rest stay clean, so
           the batch crosses every outcome class. *)
        if i mod 3 = 0 then src
        else Test_robust.mutate (Test_robust.lcg ((i * 104729) + idx)) src
      in
      (Printf.sprintf "m%03d.java" i, Ok src))

let test_parallel_batch_byte_identical () =
  let run jobs =
    Pipeline.summary_to_json
      (Pipeline.run_batch ~fuel:50_000 ~jobs corpus_bundle corpus)
  in
  let seq = run 1 in
  Alcotest.(check string) "jobs:4 equals jobs:1" seq (run 4);
  Alcotest.(check string) "jobs:3 equals jobs:1" seq (run 3);
  (* The corpus really exercises the ladder: all three classes appear. *)
  let s = Pipeline.run_batch ~fuel:50_000 ~jobs:4 corpus_bundle corpus in
  check "some graded" true (s.Pipeline.graded > 0);
  check "some rejected" true (s.Pipeline.rejected > 0)

let test_parallel_more_jobs_than_items () =
  let tiny = [ List.hd corpus ] in
  let run jobs =
    Pipeline.summary_to_json
      (Pipeline.run_batch ~fuel:50_000 ~jobs corpus_bundle tiny)
  in
  Alcotest.(check string) "jobs:8 on one item" (run 1) (run 8)

(* One corpus crossing every dedup path: interleaved α-duplicates and
   byte-identical copies, unparseable and too-deeply-nested sources
   (raw-fingerprint classes, themselves duplicated), and an unreadable
   file, which joins no class. *)
let test_batch_dedup_one_pass () =
  let b = corpus_bundle in
  let src i = Jfeed_gen.Spec.source_of_index b.Bundles.gen i in
  (* Generated indices 0–2 differ only in names; 3 and 6 do not. *)
  let a = src 0 and c = src 3 and d = src 6 in
  let deep =
    "void f() { int x = " ^ String.make 5_000 '(' ^ "1"
    ^ String.make 5_000 ')' ^ "; }"
  in
  let garbage = "int int int (((" in
  let batch =
    [
      ("a.java", Ok a);
      ("c.java", Ok c);
      ("a_renamed.java", Ok (Jfeed_gen.Mutate.alpha_rename ~seed:3 a));
      ("garbage.java", Ok garbage);
      ("unreadable.java", Error "Permission denied");
      ("c_reflowed.java", Ok (Jfeed_gen.Mutate.rename_and_reflow ~seed:5 c));
      ("a_copy.java", Ok a);
      ("deep.java", Ok deep);
      ("garbage_copy.java", Ok garbage);
      ("garbage_other.java", Ok (garbage ^ " "));
      ("deep_copy.java", Ok deep);
      ("a_variant.java", Ok (src 2));
      ("d.java", Ok d);
    ]
  in
  let run ~jobs ~dedup = Pipeline.run_batch ~fuel:500_000 ~jobs ~dedup b batch in
  let json ~jobs ~dedup = Pipeline.summary_to_json (run ~jobs ~dedup) in
  let d1 = json ~jobs:1 ~dedup:true in
  Alcotest.(check string) "jobs:2 equals jobs:1" d1 (json ~jobs:2 ~dedup:true);
  Alcotest.(check string) "jobs:4 equals jobs:1" d1 (json ~jobs:4 ~dedup:true);
  Alcotest.(check string) "dedup equals --no-dedup but for its field"
    (json ~jobs:1 ~dedup:false)
    (Test_properties.strip_dedup d1);
  Alcotest.(check string) "--no-dedup is jobs-invariant"
    (json ~jobs:1 ~dedup:false) (json ~jobs:4 ~dedup:false);
  match (run ~jobs:4 ~dedup:true).Pipeline.dedup with
  | Some { Pipeline.classes; replayed } ->
      Alcotest.(check (pair int int)) "classes, replayed" (6, 6)
        (classes, replayed)
  | None -> Alcotest.fail "dedup stats missing"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_equals_array_map;
    Alcotest.test_case "map: exception in index order" `Quick
      test_map_exception_first_index;
    QCheck_alcotest.to_alcotest prop_split_sum_preserving;
    Alcotest.test_case "split: zero ways rejected" `Quick
      test_split_rejects_zero_ways;
    Alcotest.test_case "batch determinism on the fault corpus" `Slow
      test_parallel_batch_byte_identical;
    Alcotest.test_case "more jobs than items" `Quick
      test_parallel_more_jobs_than_items;
    Alcotest.test_case "batch dedup in one pass, every path" `Quick
      test_batch_dedup_one_pass;
  ]
