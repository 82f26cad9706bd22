(** Content addressing for the result cache: submission → cache key.

    The headline mechanism of the serving tier.  MOOC submission sets
    are dominated by byte-identical and near-identical attempts, so the
    key must collapse exactly the variation that cannot change the
    grade's {e structure}: consistent variable renamings, whitespace,
    comments.  The fingerprint is the digest of the {e canonically
    α-renamed, canonically pretty-printed} AST
    ({!Jfeed_java.Fingerprint}: {!Jfeed_java.Normalize.alpha_rename}
    then {!Jfeed_java.Pretty.program}); when the submission does not parse,
    it falls back to a digest of the raw bytes — unparseable inputs are
    [Rejected] with a parse diagnostic that quotes line/column, so only
    the exact same byte string may share that outcome.

    A full cache key scopes the fingerprint by everything else that can
    change the outcome: the assignment id, the knowledge-base revision
    ({!Jfeed_kb.Bundles.revision} — a KB edit invalidates every entry),
    and the effective budget/test configuration of the request. *)

val cache_key :
  assignment:string ->
  fuel:int option ->
  deadline_s:float option ->
  with_tests:bool ->
  string ->
  string * Jfeed_java.Fingerprint.t
(** [cache_key ~assignment ~fuel ~deadline_s ~with_tests source] — the
    composed key, deterministic in its inputs (and in the compiled-in
    KB via the revision component). *)
