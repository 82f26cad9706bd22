(** The deadline-night serving workload: open-loop traffic from
    independent students into the [Server.serve_socket] daemon, which
    runs as a child process of its own.  On a ladder of arrival rates,
    requests go out on a fixed schedule whether or not earlier ones were
    answered, and each latency is taken from the request's intended send
    time; a backlog phase after the ladder measures the daemon's
    capacity. *)

module Bundles = Jfeed_kb.Bundles
module Pipeline = Jfeed_robust.Pipeline
module Outcome = Jfeed_robust.Outcome
module Proto = Jfeed_service.Proto
module Server = Jfeed_service.Server
module Sysx = Jfeed_service.Sysx

(** Latency objective for [service.max_rps]. *)
let tail_limit_ms = 500.0

(** The arrival-rate ladder, requests per second, raised by about 1.5x
    from rung to rung.  Each rung offers its rate for [rung_share] of the
    measured seconds, and for at least [rung_min] requests, and every
    rung runs, so each run sends the same requests; [service.max_rps] is the highest rung that, with every
    rung below it, met the latency objective.  Time to feedback is
    reported for every rung, and as the run's latency figures for the
    [nominal] one. *)
let ladder = [ 20.0; 40.0; 60.0; 90.0; 135.0; 200.0; 300.0 ]

let rung_share = 0.06

(** With at least this many requests on a rung, the two lowest rungs,
    which the daemon meets even on a slow host, give the generator check
    100 samples, so its 99th percentile is not one stall of the host. *)
let rung_min = 50

let nominal = 1

(** After the ladder, [saturation_per_s] requests per measured second
    go out in [bursts] equal bursts, each sent whole at once and answered
    before the next: the median rate the daemon drains a burst at is its
    capacity, [subs_per_s].  A backlog keeps every grading round large,
    so the figure is the daemon's and not that of a closed loop's
    round-by-round hand-offs.  The count is fixed rather than the time,
    so that the phase grades the same requests however fast the daemon
    is; the median keeps a burst slowed by the rest of a shared host out
    of the figure. *)
let saturation_per_s = 90.0

let bursts = 11

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)

(** Child side: serve until a [shutdown] request. *)
let child ~path ~traced =
  let config =
    {
      Server.default_config with
      jobs = Util.nproc;
      with_tests = true;
      queue_cap = 100_000;
      trace_sample = (if traced then Some 1 else None);
    }
  in
  Server.serve_socket config path

type daemon = {
  pid : int;
  fds : Unix.file_descr array;
  parts : Buffer.t array;  (** partial response lines, per connection *)
}

let live = ref []

(* A daemon left behind by an early exit is killed and reaped. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Util.reap pid))
        !live)

let socket_path () = Printf.sprintf "_build/perfbench-%d.sock" (Unix.getpid ())

(** Launch a daemon grading at [jobs] = nproc and open nproc client
    connections to it. *)
let start ~traced =
  let path = socket_path () in
  let pid, ic =
    Util.spawn_self [ "--child"; "serve"; path; string_of_bool traced ]
  in
  close_in ic;
  live := pid :: !live;
  let t0 = Util.now () in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        Unix.set_nonblock fd;
        fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if Util.now () -. t0 > 60.0 then failwith "serve: daemon never listened";
        Unix.sleepf 0.0005;
        connect ()
  in
  let fds = Array.init Util.nproc (fun _ -> connect ()) in
  { pid; fds; parts = Array.init Util.nproc (fun _ -> Buffer.create 65536) }

(* Hand every complete response line waiting on connection [i] to [k]. *)
let read_lines d i k =
  let buf = Bytes.create 65536 in
  let rec pull () =
    match Sysx.read d.fds.(i) buf 0 (Bytes.length buf) with
    | `Read 0 -> ()
    | `Read n ->
        Buffer.add_subbytes d.parts.(i) buf 0 n;
        pull ()
    | `Again -> ()
  in
  pull ();
  let s = Buffer.contents d.parts.(i) in
  let rec split start =
    match String.index_from_opt s start '\n' with
    | Some nl ->
        k (String.sub s start (nl - start));
        split (nl + 1)
    | None ->
        Buffer.clear d.parts.(i);
        Buffer.add_substring d.parts.(i) s start (String.length s - start)
  in
  split 0

let send_all fd s =
  let b = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  while !pos < Bytes.length b do
    match Sysx.write fd b !pos (Bytes.length b - !pos) with
    | `Wrote n -> pos := !pos + n
    | `Again -> ignore (Sysx.select [] [ fd ] [] 0.1)
  done

(* The ["id"] a response starts with ([{"id":"…",…}]), if any. *)
let response_id line =
  let pre = {|{"id":"|} in
  let n = String.length pre in
  if String.length line > n && String.sub line 0 n = pre then
    match String.index_from_opt line n '"' with
    | Some j -> Some (String.sub line n (j - n))
    | None -> None
  else None

(* Send [lines] on connection 0 and block until a response for each of
   [ids] has arrived. *)
let exchange d lines ids =
  List.iter (send_all d.fds.(0)) lines;
  let got = Hashtbl.create 16 in
  while List.exists (fun id -> not (Hashtbl.mem got id)) ids do
    ignore (Sysx.select [ d.fds.(0) ] [] [] 1.0);
    read_lines d 0 (fun line ->
        match response_id line with
        | Some id -> Hashtbl.replace got id line
        | None -> ())
  done;
  List.map (Hashtbl.find got) ids

let grade_line ~id (b : Bundles.t) src =
  Printf.sprintf {|{"op":"grade","id":"%s","assignment":"%s","source":"%s"}|}
    id (Corpus.id b)
    (Jfeed_core.Feedback.json_escape src)
  ^ "\n"

(** Ready to grade: one reference solution per assignment answered. *)
let warm_up d =
  let lines, ids =
    List.split
      (List.mapi
         (fun k b ->
           let id = Printf.sprintf "w%d" k in
           (grade_line ~id b (Jfeed_gen.Spec.reference b.Bundles.gen), id))
         Bundles.all)
  in
  ignore (exchange d lines ids)

let stats d =
  match
    exchange d [ {|{"op":"stats","id":"bench-stats"}|} ^ "\n" ] [ "bench-stats" ]
  with
  | [ line ] -> ( match Proto.parse_json line with Ok j -> j | Error _ -> Proto.Null)
  | _ -> Proto.Null

let num j path =
  let rec walk j = function
    | [] -> ( match j with Proto.Num n -> n | _ -> 0.0)
    | f :: rest -> (
        match Proto.member f j with Some j' -> walk j' rest | None -> 0.0)
  in
  walk j path

let stop d =
  send_all d.fds.(0) ({|{"op":"shutdown"}|} ^ "\n");
  ignore (Util.reap d.pid);
  live := List.filter (( <> ) d.pid) !live;
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.fds

(** Launch to ready, [groups] × [per] times, each daemon stopped again:
    the median over the groups of each group's mean set-up time (see
    {!Util.median_of_means}). *)
let setups ~groups ~per =
  Util.median_of_means ~groups ~per (fun () ->
      let t0 = Util.now () in
      let d = start ~traced:false in
      warm_up d;
      let t = Util.now () -. t0 in
      stop d;
      t)

(* ------------------------------------------------------------------ *)
(* The client                                                           *)

type request = {
  bundle : Bundles.t;
  source : string;
  line : string;
  mutable due : float;
  mutable sent : float;
      (** when the generator handed it to its connection: lateness here
          is the generator's own, not the daemon's back-pressure *)
  mutable recv : float;
  mutable response : string;
}

type rung = {
  rate : float;
  first : int;  (** index of its first request *)
  count : int;
  span : float;  (** first due time to last response, seconds *)
  meets : bool;  (** the latency objective, with no growing backlog *)
  row : string;  (** its figures for the record, JSON *)
}

(* The request index a response answers ([{"id":"q<k>",…}]). *)
let index_of line =
  match response_id line with
  | Some id when String.length id > 1 && id.[0] = 'q' ->
      int_of_string_opt (String.sub id 1 (String.length id - 1))
  | _ -> None

(* Record the first response to request [k] of [reqs]; [true] when it
   was new. *)
let answer (reqs : request array) k line =
  let r = reqs.(k) in
  r.response = ""
  && begin
       r.recv <- Util.now ();
       r.response <- line;
       true
     end

let sub reqs first count = Array.to_list (Array.sub reqs first count)

let latency_ms r = 1e3 *. (r.recv -. r.due)

let lag_ms r = 1e3 *. (r.sent -. r.due)

(* Index just past the first occurrence of [sub] in [s]. *)
let find_end sub s =
  let n = String.length sub and m = String.length s in
  let rec at i j = j = n || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + n > m then None else if at i 0 then Some (i + n) else go (i + 1) in
  go 0

let has sub s = find_end sub s <> None

(* A plain graded answer: not shed, not an error, not degraded or
   rejected. *)
let graded_ok r =
  has {|"op":"grade"|} r.response
  && (not (has {|"rejected":"overloaded"|} r.response))
  && has {|"result":{"outcome":"graded"|} r.response

let cached r = has {|"cached":true|} r.response

(* The result object of a grade response. *)
let result_json r =
  match find_end {|"result":|} r.response with
  | Some i -> String.sub r.response i (String.length r.response - i - 1)
  | None -> ""

(* Whether requests [first, first + count), offered at [rate], meet the
   latency objective with no growing backlog, and their figures for the
   record.  The achieved rate counts the answers that arrived by the
   time the last request was due plus the latency objective; it equals
   the offered rate unless a backlog built up. *)
let judge (reqs : request array) ~rate ~first ~count =
  let rs = sub reqs first count in
  let lats = List.map latency_ms rs in
  let tail, pct, samples = Util.tail lats in
  let failed = List.length (List.filter (fun r -> not (graded_ok r)) rs) in
  let last_due = List.fold_left (fun a r -> max a r.due) 0.0 rs in
  let answered =
    List.filter (fun r -> r.recv <= last_due +. (tail_limit_ms /. 1e3)) rs
  in
  let achieved = float_of_int (List.length answered) *. rate /. float_of_int count in
  let meets = tail <= tail_limit_ms && achieved >= 0.95 *. rate && failed = 0 in
  let lags = Util.sorted (List.map lag_ms rs) in
  ( meets,
    Util.json_obj
      [
        ("rate_rps", Util.json_num rate);
        ("requests", string_of_int count);
        ("failed", string_of_int failed);
        ("achieved_rps", Util.json_num achieved);
        ("p50_ms", Util.json_num (Util.median lats));
        ("tail_ms", Util.json_num tail);
        ("tail_percentile", Util.json_num pct);
        ("tail_samples", string_of_int samples);
        ("gen_lag_p99_ms", Util.json_num (Util.quantile lags 0.99));
        ("meets_objective", string_of_bool meets);
      ] )

(* Hand requests [first, first + count) to the connections, round-robin,
   each no earlier than its due time, and wait for every answer: the
   time of the last one. *)
let drive d (reqs : request array) ~first ~count =
  let conns = Array.length d.fds in
  let outq = Array.init conns (fun _ -> Queue.create ()) in
  let off = Array.make conns 0 in
  let next = ref 0 and received = ref 0 in
  let last = ref (Util.now ()) in
  while !received < count do
    let now = Util.now () in
    while !next < count && now >= reqs.(first + !next).due do
      reqs.(first + !next).sent <- now;
      Queue.push (first + !next) outq.(!next mod conns);
      incr next
    done;
    let writers =
      List.filteri (fun i _ -> not (Queue.is_empty outq.(i))) (Array.to_list d.fds)
    in
    let timeout =
      if !next < count then max 0.0 (reqs.(first + !next).due -. now) else 0.25
    in
    let readable, writable, _ =
      Sysx.select (Array.to_list d.fds) writers [] timeout
    in
    Array.iteri
      (fun i fd ->
        if List.mem fd writable then begin
          let blocked = ref false in
          while (not !blocked) && not (Queue.is_empty outq.(i)) do
            let r = reqs.(Queue.peek outq.(i)) in
            let len = String.length r.line - off.(i) in
            match Sysx.write fd (Bytes.unsafe_of_string r.line) off.(i) len with
            | `Wrote n when n = len ->
                ignore (Queue.pop outq.(i));
                off.(i) <- 0
            | `Wrote n ->
                off.(i) <- off.(i) + n;
                blocked := true
            | `Again -> blocked := true
          done
        end)
      d.fds;
    Array.iteri
      (fun i fd ->
        if List.mem fd readable then
          read_lines d i (fun line ->
              match index_of line with
              | Some k when k >= first && k < first + count && answer reqs k line ->
                  last := reqs.(k).recv;
                  incr received
              | _ -> ()))
      d.fds
  done;
  !last

(* Offer requests [first, first + count) at [rate] on a fixed schedule,
   whether or not earlier ones were answered. *)
let run_rung d (reqs : request array) ~rate ~first ~count =
  let t0 = Util.now () +. 0.002 in
  for k = 0 to count - 1 do
    reqs.(first + k).due <- t0 +. (float_of_int k /. rate)
  done;
  let last = drive d reqs ~first ~count in
  let meets, row = judge reqs ~rate ~first ~count in
  { rate; first; count; span = last -. t0; meets; row }

let rung_count ~seconds rate =
  max rung_min (int_of_float (rate *. rung_share *. seconds))

(* Rungs at [rates], from request [first]. *)
let run_ladder d reqs ~seconds ~first rates =
  let _, rungs =
    List.fold_left
      (fun (first, acc) rate ->
        let count = rung_count ~seconds rate in
        (first + count, run_rung d reqs ~rate ~first ~count :: acc))
      (first, []) rates
  in
  List.rev rungs

let burst_size ~seconds = int_of_float (saturation_per_s *. seconds) / bursts

(* A backlog: requests [first, first + count) all due at once, as when
   a class submits at a deadline.  Returns the time from the first send
   to the last answer. *)
let drain d (reqs : request array) ~first ~count =
  let t0 = Util.now () in
  for k = first to first + count - 1 do
    reqs.(k).due <- t0
  done;
  drive d reqs ~first ~count -. t0

(* Serve ≡ batch: the result object of a response, without the comment
   and diagnostic arrays the serving tier adds, must be the batch line
   for the request's own source without its [file] field.  Checked on
   up to 48 cache hits and 48 misses, spread evenly over the run.
   Separately counted, not failed: hits whose full payload differs from
   grading their own bytes (a hit replays the first submitter's
   comments, which quote that student's variable names). *)
let check_equals_batch ~jobs (reqs : request list) =
  let spread n xs =
    let a = Array.of_list xs in
    let m = Array.length a in
    if m <= n then xs else List.init n (fun i -> a.(i * m / n))
  in
  let hits, misses = List.partition cached reqs in
  let sample = spread 48 hits @ spread 48 misses in
  let by_bundle = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let id = Corpus.id r.bundle in
      Hashtbl.replace by_bundle id
        (r :: Option.value (Hashtbl.find_opt by_bundle id) ~default:[]))
    sample;
  Hashtbl.fold
    (fun _ rs (mismatched, foreign) ->
      let rs = List.rev rs in
      let b = (List.hd rs).bundle in
      let s =
        Pipeline.run_batch ~jobs ~dedup:false b
          (List.mapi (fun i r -> (string_of_int i, Ok r.source)) rs)
      in
      List.fold_left2
        (fun (mismatched, foreign) r (it : Pipeline.item) ->
          let batch = Outcome.to_json it.outcome in
          let served = result_json r in
          let prefix = String.sub batch 0 (String.length batch - 1) in
          let ok =
            String.length served > String.length prefix
            && String.sub served 0 (String.length prefix) = prefix
            && served.[String.length prefix] = ','
          in
          let full = Outcome.to_json ~comments:true it.outcome in
          ( (if ok then mismatched else mismatched + 1),
            if cached r && served <> full then foreign + 1 else foreign ))
        (mismatched, foreign) rs s.items)
    by_bundle (0, 0)

(* The requests of every rung of the ladder, then of the saturation
   phase. *)
let stream ~seed ~seconds =
  let segments =
    List.map (rung_count ~seconds) ladder
    @ List.init bursts (fun _ -> burst_size ~seconds)
  in
  Array.mapi
    (fun k (bundle, source) ->
      {
        bundle;
        source;
        line = grade_line ~id:(Printf.sprintf "q%d" k) bundle source;
        due = 0.0;
        sent = 0.0;
        recv = 0.0;
        response = "";
      })
    (Corpus.serve_stream ~seed ~segments (Array.of_list Bundles.all))

type measured = {
  rungs : rung list;
  ladder_requests : int;
  sat_requests : int;
  sat_spans : float list;  (** seconds, per burst *)
  sat_cpu : float;  (** daemon CPU seconds over the saturation phase *)
  cpu : float;  (** daemon CPU seconds over the ladder and saturation *)
  peak_rss_mb : float;
  nominal_stats : Proto.json;
      (** the daemon's own [stats] after the rungs up to the nominal one *)
  stats : Proto.json;  (** and after the run *)
}

(* The ladder, then the saturation phase, on a fresh daemon. *)
let measure ~traced ~seconds reqs =
  let d = start ~traced in
  warm_up d;
  let cpu0 = Util.proc_cpu_s d.pid in
  let count rungs = List.fold_left (fun a g -> a + g.count) 0 rungs in
  let low =
    run_ladder d reqs ~seconds ~first:0
      (List.filteri (fun i _ -> i <= nominal) ladder)
  in
  let nominal_stats = stats d in
  let high =
    run_ladder d reqs ~seconds ~first:(count low)
      (List.filteri (fun i _ -> i > nominal) ladder)
  in
  let rungs = low @ high in
  let ladder_requests = count rungs in
  let cpu1 = Util.proc_cpu_s d.pid in
  let per_burst = burst_size ~seconds in
  let sat_spans =
    List.init bursts (fun b ->
        drain d reqs ~first:(ladder_requests + (b * per_burst)) ~count:per_burst)
  in
  let cpu2 = Util.proc_cpu_s d.pid in
  let st = stats d in
  let peak_rss_mb = Util.peak_rss_mb d.pid in
  stop d;
  {
    rungs;
    ladder_requests;
    sat_requests = per_burst * bursts;
    sat_spans;
    sat_cpu = cpu2 -. cpu1;
    cpu = cpu2 -. cpu0;
    peak_rss_mb;
    nominal_stats;
    stats = st;
  }

let requests m = m.ladder_requests + m.sat_requests

let mean_us f xs =
  1e6 *. Util.mean (List.map (fun x -> snd (Util.timed (fun () -> f x))) xs)

let run ~(knobs : Report.knobs) ~trace =
  let seconds = if trace then 0.35 *. knobs.seconds else knobs.seconds in
  let setup_s = if trace then 0.0 else setups ~groups:9 ~per:3 in
  let reqs = stream ~seed:knobs.seed ~seconds in
  let m = measure ~traced:false ~seconds reqs in
  let all = sub reqs 0 (requests m) in
  let failed_reqs = List.length (List.filter (fun r -> not (graded_ok r)) all) in
  (* [max_rps]: the top of the rungs that met the objective from the
     bottom of the ladder up. *)
  let rec prefix = function g :: rest when g.meets -> g :: prefix rest | _ -> [] in
  let passed = prefix m.rungs in
  let max_rps = List.fold_left (fun a g -> max a g.rate) 0.0 passed in
  (* The open loop is only honest while the generator keeps to its
     schedule: checked on every rung up to [max_rps].  Past it the daemon
     holds every core and the generator's lateness is part of the
     overload being measured. *)
  let gen_lag_p99 =
    Util.quantile
      (Util.sorted
         (List.concat_map (fun g -> List.map lag_ms (sub reqs g.first g.count)) passed))
      0.99
  in
  let on_schedule = gen_lag_p99 <= 20.0 in
  let refs_ok = List.for_all Setup.reference_ok Bundles.all in
  let mismatched, foreign = check_equals_batch ~jobs:Util.nproc all in
  let failed =
    failed_reqs + mismatched
    + (if on_schedule then 0 else 1)
    + if refs_ok then 0 else 1
  in
  let checks =
    [
      ("references-positive", refs_ok);
      ("all-graded", failed_reqs = 0);
      ("serve-equals-batch", mismatched = 0);
      ("generator-on-schedule", on_schedule);
    ]
  in
  let nom = List.nth_opt m.rungs nominal in
  let nom_lats =
    match nom with
    | Some g -> List.map latency_ms (sub reqs g.first g.count)
    | None -> []
  in
  let hit_ratio =
    Util.ratio
      (float_of_int (List.length (List.filter cached all)))
      (float_of_int (requests m))
  in
  let burst_rps =
    List.map (fun t -> float_of_int (m.sat_requests / bursts) /. t) m.sat_spans
  in
  let sat_rps = Util.median burst_rps in
  let record =
    [
      ("nominal_rps", Util.json_num (List.nth ladder nominal));
      ("tail_limit_ms", Util.json_num tail_limit_ms);
      ("max_rps", Util.json_num max_rps);
      ("rungs", "[" ^ String.concat "," (List.map (fun g -> g.row) m.rungs) ^ "]");
      ( "saturation",
        Util.json_obj
          [
            ("requests", string_of_int m.sat_requests);
            ( "burst_rps",
              "[" ^ String.concat "," (List.map Util.json_num burst_rps) ^ "]" );
            ("median_rps", Util.json_num sat_rps);
          ] );
      ("hit_ratio", Util.json_num hit_ratio);
      ("foreign_hits", string_of_int foreign);
    ]
  in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("subs_per_s", sat_rps, "1/s");
        ("cpu_ms_per_sub", 1e3 *. m.cpu /. float_of_int (requests m), "ms");
        ("peak_rss_mb", m.peak_rss_mb, "MB");
      ]
    else begin
      (* The same run against a daemon that retains every request's span
         tree: the CPU it costs per request is the tracing overhead. *)
      let reqs_t = stream ~seed:knobs.seed ~seconds in
      let mt = measure ~traced:true ~seconds reqs_t in
      let per_req x = x.cpu /. float_of_int (requests x) in
      let sample = List.filteri (fun i _ -> i mod 4 = 0) all in
      let acc =
        Layers.run ~seconds:(0.3 *. knobs.seconds) ~min_subs:24
          (Array.of_list (List.map (fun r -> (r.bundle, r.source)) sample))
      in
      let proto r =
        ignore
          (Proto.request_of_line (String.sub r.line 0 (String.length r.line - 1)));
        ignore (Proto.grade_response ~id:"q" ~cached:false ~fuel:None (result_json r))
      in
      let cache_key r =
        Jfeed_service.Normalize.cache_key ~assignment:(Corpus.id r.bundle)
          ~fuel:None ~deadline_s:None ~with_tests:true r.source
      in
      let low_lats =
        List.concat_map
          (fun g -> List.map latency_ms (sub reqs g.first g.count))
          (List.filteri (fun i _ -> i <= nominal) m.rungs)
      in
      Layers.metrics acc
      @ [
          ("parallel.map_us", Layers.pool_map_us ~jobs:Util.nproc, "us");
          ( "parallel.busy_share",
            m.sat_cpu
            /. (float_of_int Util.nproc *. List.fold_left ( +. ) 0.0 m.sat_spans),
            "ratio" );
          ("service.hit_ratio", hit_ratio, "ratio");
          ( "service.queue_wait_ms",
            Util.median low_lats -. num m.nominal_stats [ "latency_ms"; "p50" ],
            "ms" );
          ("service.queue_max", num m.stats [ "queue"; "max" ], "count");
          ("service.shed", num m.stats [ "admission"; "shed" ], "count");
          ("service.degraded", num m.stats [ "admission"; "degraded" ], "count");
          ("service.proto_us", mean_us proto sample, "us");
          ("service.cache_key_us", mean_us cache_key sample, "us");
          ("service.gen_lag_ms", gen_lag_p99, "ms");
          ("service.max_rps", max_rps, "1/s");
          ("trace.overhead_pct", 100.0 *. ((per_req mt /. per_req m) -. 1.0), "%");
        ]
    end
  in
  {
    Report.attempted = requests m;
    failed;
    checks;
    metrics;
    latency = Util.latency_figures nom_lats;
    record;
  }
