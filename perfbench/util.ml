(** Clocks, order statistics, process accounting and JSON output shared
    by every workload of the benchmark. *)

(** Monotonic wall clock, seconds. *)
let now () = Int64.to_float (Jfeed_trace.Trace.now_ns ()) *. 1e-9

(** [(f (), seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Process CPU time (user + system, every domain), seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc = Domain.recommended_domain_count ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Nearest-rank quantile of a sorted array; [0.] when empty. *)
let quantile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = quantile (sorted xs) p
let median xs = percentile xs 0.5

(** The tail: the highest percentile that still has at least ten samples
    beyond it.  Returns [(value, percentile, samples)]; with ten samples
    or fewer the tail degenerates to the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

(** Time-to-feedback figures of a latency sample (milliseconds): median,
    90th percentile, and the tail with its percentile and sample count. *)
let latency_figures lats =
  let tail_ms, pct, n = tail lats in
  [
    ("p50_ms", median lats, "ms");
    ("p90_ms", percentile lats 0.9, "ms");
    ("tail_ms", tail_ms, "ms");
    ("tail_percentile", pct, "%");
    ("samples", float_of_int n, "count");
  ]

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [groups] samples of [f ()], each the mean of [per] calls in a row,
    and their median.  How long a fresh process takes to start is
    bimodal on a shared host (a launch lands in one of two modes some
    25% apart), so the median of single launches jumps between the
    modes from run to run; the mean of a few launches does not. *)
let median_of_means ~groups ~per f =
  median (List.init groups (fun _ -> mean (List.init per (fun _ -> f ()))))

let ratio num den = if den > 0.0 then num /. den else 0.0

(** SplitMix-style integer hash: derives independent sub-seeds from the
    workload seed, so each assignment and each request draws from its
    own stream. *)
let mix seed k =
  let h = ref ((seed * 0x9E3779B1) + (k * 0x85EBCA77) + 0x165667B1) in
  h := !h lxor (!h lsr 15);
  h := !h * 0x2C1B3C6D;
  h := !h lxor (!h lsr 12);
  !h land 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* /proc accounting                                                     *)

(* [/proc] files report a length of 0, so they are read line by line. *)
let read_lines path =
  match open_in path with
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []
  | exception Sys_error _ -> []

(** Peak resident set size of a process ([VmHWM]), MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match
            String.split_on_char ' ' (String.trim v)
            |> List.filter (( <> ) "")
          with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
      | _ -> acc)
    0.0 (read_lines path)

(** CPU seconds (user + system) another process has used so far, from
    [/proc/<pid>/stat] at the Linux clock-tick resolution (100 Hz). *)
let proc_cpu_s pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | l :: _ -> (
      match String.rindex_opt l ')' with
      | None -> 0.0
      | Some i ->
          let fields =
            String.sub l (i + 2) (String.length l - i - 2)
            |> String.split_on_char ' '
            |> Array.of_list
          in
          (* fields.(0) is the state (field 3); utime/stime are 14/15 *)
          if Array.length fields > 12 then
            (float_of_string fields.(11) +. float_of_string fields.(12))
            /. 100.0
          else 0.0)
  | [] -> 0.0

(* ------------------------------------------------------------------ *)
(* Child processes                                                      *)

(** Launch this executable again with [args]; stdout comes back through
    a pipe.  Returns the pid and the read end. *)
let spawn_self args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  (pid, Unix.in_channel_of_descr rd)

(** Wait for a child; [true] iff it exited with code 0. *)
let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

let json_str s = "\"" ^ Jfeed_trace.Trace.json_escape s ^ "\""

(** A float with all its digits ([%.17g]), finite by construction. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}"
