(** Domain worker pool: per-item claiming, deterministic merge.
    See pool.mli for the contract. *)

let map ?(trace = Jfeed_trace.Trace.disabled) ~jobs ~f a =
  let n = Array.length a in
  (* The [pool] span lives in the calling domain's tracer; workers run
     with their own per-domain ambient tracers and never touch this
     one, so recording here is race-free. *)
  Jfeed_trace.Trace.span trace "pool" @@ fun () ->
  if Jfeed_trace.Trace.enabled trace then begin
    Jfeed_trace.Trace.add_attr trace "jobs" (string_of_int jobs);
    Jfeed_trace.Trace.add_attr trace "items" (string_of_int n)
  end;
  if jobs <= 1 || n <= 1 then Array.map f a
  else begin
    let workers = min jobs n in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec claim () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          out.(i) <-
            Some
              (match f a.(i) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()));
          claim ()
        end
      in
      claim ()
    in
    let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* Every slot was written by exactly one worker, and the joins order
       those writes before these reads. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      out
  end
