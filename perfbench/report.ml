(** What one workload run hands back to [main.ml]. *)

type metric = string * float * string  (** name, value, unit *)

type t = {
  attempted : int;  (** operations attempted: submissions, requests, mutants *)
  failed : int;
      (** operations rejected, errored, shed, or failing an output check *)
  checks : (string * bool) list;  (** named output checks, all must hold *)
  metrics : metric list;
  latency : metric list;
      (** time to feedback: printed and recorded every run, but not
          among the gated metrics (see README.md) *)
  record : (string * string) list;
      (** extra fields of the provenance record line, rendered JSON *)
}

(** The workload knobs every run records.  Pool width and client
    connections are nproc on every workload. *)
type knobs = { seconds : float; seed : int }
