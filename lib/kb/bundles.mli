(** Per-assignment bundles: the generator space (Table I column S), the
    grading specification (columns P and C), and the functional-test
    suite (column T) for each of the paper's twelve assignments. *)

type memo
(** Per-bundle cache of the artefacts derived from the reference
    solution; see {!reference}, {!oracle_degrees} and
    {!expected_outputs}. *)

type t = {
  gen : Jfeed_gen.Spec.t;
  grading : Jfeed_core.Grader.spec;
  suite : Jfeed_ftest.Runner.suite;
  memo : memo;
}

val reference : t -> Jfeed_java.Ast.program
(** The parsed reference solution ([Spec.reference] of [gen]), parsed
    once per bundle and shared by every caller.  Safe to call from any
    domain: the memo is published with a compare-and-set, never a
    [Lazy.t].  The AST is immutable, so sharing it is sound. *)

val oracle_degrees : t -> (string * int) list
(** [Jfeed_absint.Passes.method_degrees] of {!reference}: the reference's
    static cost signature, computed once per bundle, same domain
    safety. *)

val expected_outputs : t -> string list
(** [Jfeed_ftest.Runner.expected_outputs] of the bundle's suite on
    {!reference}: what every submission's test output is compared with,
    computed once per bundle, same domain safety.  The reference runs
    with tracing off, so no submission's trace carries it.  A failing
    reference raises [Invalid_argument] on every call: nothing is
    memoised when the computation raises. *)

val patterns : t -> (Jfeed_core.Pattern.t * int) list
(** All (pattern, t̄) usages across the assignment's expected methods —
    its Table I column P is the length of this list. *)

val constraints : t -> Jfeed_core.Constr.t list
(** All constraints across the expected methods — column C. *)

val assignment1 : t
val esc_p1v1 : t
val esc_p2v1 : t
val esc_p2v2 : t
val esc_p3v1 : t
val esc_p4v1 : t
val esc_p3v2 : t
val esc_p4v2 : t
val mitx_derivatives : t
val mitx_polynomials : t
val rit_gold : t
val rit_ath : t

val all : t list
(** The twelve assignments, in Table I order. *)

val find : string -> t option
(** Look up by assignment id (e.g. ["esc-LAB-3-P2-V1"]). *)

val revision : unit -> string
(** Fingerprint of the whole knowledge base (hex digest, computed once):
    covers every bundle's patterns — templates, node types, edges,
    feedback texts, occurrence counts — variants, constraints, and
    flags.  Changing any grading-relevant KB content changes it, so a
    content-addressed result cache keyed on it
    ({!Jfeed_service.Normalize}) is invalidated wholesale by a KB edit
    and survives mere recompilation. *)
