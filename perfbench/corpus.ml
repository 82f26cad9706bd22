(** Seeded workload inputs.  Everything here is a pure function of the
    workload seed: the program under test only ever sees the generated
    Java sources. *)

module Bundles = Jfeed_kb.Bundles
module Spec = Jfeed_gen.Spec
module Mutate = Jfeed_gen.Mutate

let id (b : Bundles.t) = b.Bundles.grading.Jfeed_core.Grader.a_id

let bundle name =
  match Bundles.find name with
  | Some b -> b
  | None -> failwith ("perfbench: unknown assignment " ^ name)

(** Suites that run 12k–180k interpreter steps per submission: functional
    testing dominates their cost. *)
let interp_heavy =
  [
    "assignment1"; "esc-LAB-3-P1-V1"; "esc-LAB-3-P2-V1"; "esc-LAB-3-P3-V1";
    "esc-LAB-3-P4-V1"; "esc-LAB-3-P3-V2"; "esc-LAB-3-P4-V2";
  ]

(** Suites under 200 steps per submission: the static layers dominate. *)
let static_heavy =
  [
    "esc-LAB-3-P2-V2"; "mitx-derivatives"; "mitx-polynomials";
    "rit-all-g-medals"; "rit-medals-by-ath";
  ]

(** Share of α-renamed resubmissions in the batch and serve inputs. *)
let resub_pct = 25

(* Seeded Fisher–Yates shuffle in place. *)
let shuffle ~seed a =
  for i = Array.length a - 1 downto 1 do
    let r = Util.mix seed i mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(r);
    a.(r) <- t
  done;
  a

(** [n] distinct submissions of an assignment, drawn as a Latin-hypercube
    sample of its choice space: every option of every choice point
    appears equally often (±1), in a seeded pairing.  Each marginal is
    the uniform one, as in plain random sampling, but how many sampled
    submissions carry a costly option — an endless loop, say — no longer
    varies from seed to seed.  With [slices] (lengths that sum to [n]),
    every slice of consecutive submissions is such a sample on its own,
    so a stretch of a stream that takes one slice carries its share of
    the costly options too.  Small spaces are taken whole. *)
let uniques ?slices ~seed ~k (b : Bundles.t) n =
  let slices = Option.value slices ~default:[ n ] in
  let spec = b.Bundles.gen in
  let indices =
    if n >= Spec.size spec then Spec.sample_indices spec ~n ~seed
    else begin
      let seed = Util.mix seed k in
      let columns =
        Array.mapi
          (fun j (c : Spec.choice) ->
            let arity = Array.length c.Spec.labels in
            let offset = Util.mix seed (-j - 1) in
            let col = Array.init n (fun i -> (i + offset) mod arity) in
            ignore
              (List.fold_left
                 (fun (start, s) len ->
                   let part =
                     shuffle
                       ~seed:(Util.mix seed (j + (s * 7919)))
                       (Array.sub col start len)
                   in
                   Array.blit part 0 col start len;
                   (start + len, s + 1))
                 (0, 0) slices);
            col)
          spec.Spec.choices
      in
      let seen = Hashtbl.create n in
      List.filter
        (fun idx ->
          let fresh = not (Hashtbl.mem seen idx) in
          Hashtbl.replace seen idx ();
          fresh)
        (List.init n (fun i ->
             Spec.encode spec (Array.map (fun col -> col.(i)) columns)))
    end
  in
  Array.of_list (List.map (Spec.source_of_index spec) indices)

(** One assignment's regrade corpus: [n] sampled submissions plus enough
    α-renamed resubmissions of seeded earlier ones to make up
    {!resub_pct} of the whole, as [(file, source)] pairs. *)
let batch_corpus ~seed ~k (b : Bundles.t) ~n =
  let u = uniques ~seed ~k b n in
  let nu = Array.length u in
  let n_resub = nu * resub_pct / (100 - resub_pct) in
  let resubs =
    List.init n_resub (fun i ->
        let s = Util.mix seed ((k * 100_003) + i) in
        ( Printf.sprintf "r%04d.java" i,
          Ok (Mutate.alpha_rename ~seed:s u.(s mod nu)) ))
  in
  List.init nu (fun i -> (Printf.sprintf "s%04d.java" i, Ok u.(i))) @ resubs

(** The serving stream: requests in blocks of one request per
    assignment, in a seeded order within each block, so the mix is
    uniform over [bundles] in every stretch of the stream.  A seeded
    {!resub_pct} of each block resubmits an α-renamed copy of an
    earlier request's source for the same assignment; the rest are
    fresh samples, drawn so that each of the consecutive [segments]
    (request counts: a ladder rung, a burst) is a balanced sample of
    every assignment on its own. *)
let serve_stream ~seed ~segments (bundles : Bundles.t array) =
  let n = List.fold_left ( + ) 0 segments in
  let na = Array.length bundles in
  let block = n / na + 1 in
  (* Block [j]'s order of assignments, or (offset by [block]) of the
     positions that are resubmissions. *)
  let shuffle j = shuffle ~seed:(Util.mix seed j) (Array.init na Fun.id) in
  let resubs_per_block = na * resub_pct / 100 in
  let plan =
    Array.init n (fun i ->
        let j = i / na and p = i mod na in
        let resub =
          j > 0
          && Array.exists (( = ) p)
               (Array.sub (shuffle (block + j)) 0 resubs_per_block)
        in
        ((shuffle j).(p), resub))
  in
  (* Fresh requests per assignment in each segment. *)
  let segment =
    Array.of_list
      (List.concat (List.mapi (fun j len -> List.init len (fun _ -> j)) segments))
  in
  let fresh = Array.make_matrix na (List.length segments) 0 in
  Array.iteri
    (fun i (a, resub) ->
      if not resub then fresh.(a).(segment.(i)) <- fresh.(a).(segment.(i)) + 1)
    plan;
  let pools =
    Array.mapi
      (fun k b ->
        match List.filter (( < ) 0) (Array.to_list fresh.(k)) with
        | [] -> uniques ~seed ~k b 1
        | slices -> uniques ~slices ~seed ~k b (List.fold_left ( + ) 0 slices))
      bundles
  in
  let used = Array.make na 0 in
  let earlier = Array.make na [] in
  Array.mapi
    (fun i (a, resub) ->
      let src =
        match earlier.(a) with
        | _ :: _ as prev when resub ->
            let s = Util.mix seed (n + i) in
            Mutate.alpha_rename ~seed:s (List.nth prev (s mod List.length prev))
        | _ ->
            let pool = pools.(a) in
            let s = pool.(used.(a) mod Array.length pool) in
            used.(a) <- used.(a) + 1;
            s
      in
      earlier.(a) <- src :: earlier.(a);
      (bundles.(a), src))
    plan

(** [m] single-edit mutants of a bundle's reference that fail its suite.
    The edit sites are those [Mutate.fault_inject] draws from
    ([Edit.enumerate]), visited by seeded systematic sampling: [m]
    evenly spaced sites from a seeded offset first, then their
    neighbours, so the mutants spread over the whole program whatever
    the seed.  An edit that leaves the suite passing is skipped. *)
let failing_mutants ~seed ~k (b : Bundles.t) ~m =
  let module Edit = Jfeed_java.Edit in
  let reference = Jfeed_java.Parser.parse_program (Spec.reference b.Bundles.gen) in
  let suite = b.Bundles.suite in
  let expected = Jfeed_ftest.Runner.expected_outputs suite reference in
  let sites = Array.of_list (Edit.enumerate reference) in
  let n = Array.length sites in
  let step = max 1 (n / m) in
  let offset = Util.mix seed k in
  let order =
    Array.of_list
      (List.concat
         (List.init step (fun r ->
              List.filter (fun x -> x < n)
                (List.init ((n / step) + 1) (fun j -> (j * step) + r)))))
  in
  let rec go i acc found =
    if found = m || i >= n then List.rev acc
    else
      let site = sites.((offset + order.(i)) mod n) in
      let src = Jfeed_java.Pretty.program (Edit.apply reference site) in
      if
        Jfeed_ftest.Runner.passes suite ~expected
          (Jfeed_java.Parser.parse_program src)
      then go (i + 1) acc found
      else go (i + 1) (src :: acc) (found + 1)
  in
  go 0 [] 0
