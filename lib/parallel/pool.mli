(** Domain-based worker pool for batch grading (OCaml 5 multicore).

    The pool maps a function over an array on [jobs] domains.  Workers
    claim {e one index at a time}, in increasing order, from a shared
    atomic cursor, so load balances even when item costs are wildly
    uneven (one pathological submission does not stall a static
    partition), and index [i] is claimed only after every lower index
    has been.  The mapped function may therefore block until
    lower-index items reach some point of their own work
    ({!Jfeed_robust.Pipeline.run_batch} takes dedup classes in index
    order this way): each of those items is already held by a running
    worker.  The merge is {e deterministic}: result [i] always lands in
    slot [i], so the output is byte-identical to the sequential run
    whatever the scheduling.

    The mapped function must not touch shared mutable state without
    synchronising; everything in the grading pipeline satisfies this
    (per-submission budgets, domain-local regex memo in
    [Jfeed_exprmatch.Template], per-call embedding caches in
    [Jfeed_core.Grader], the batch's mutex-guarded dedup classes). *)

val map :
  ?trace:Jfeed_trace.Trace.t ->
  jobs:int ->
  f:('a -> 'b) ->
  'a array ->
  'b array
(** [map ~jobs ~f a] = [Array.map f a], computed on [min jobs (length a)]
    domains ([jobs <= 1] runs in the calling domain, no spawns).  Slots
    are filled by index, so the result — and any output derived from it
    — is identical at every [jobs] value.  If [f] raises, the first
    exception in {e index} order (not completion order) is re-raised
    after all workers have been joined.

    [?trace] (default disabled) records one [pool] span — with [jobs]
    and [items] attributes — in the {e calling} domain's tracer.  Worker
    domains keep their own ambient tracers
    ({!Jfeed_trace.Trace.with_current} inside [f]); the pool itself
    never writes to a worker's buffer, so the merge stays race-free and
    deterministic. *)
