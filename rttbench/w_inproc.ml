(* exact-bnb and lp-large: in-process closed loops over Engine.solve.

   One caller solves a fixed, seeded instance set back to back, in
   whole passes, until the run's time is up. Every answer is
   re-certified with Validate.check, must have the optimum known for
   its instance where one is (worked out by hand or committed in
   expected/), and must repeat the first pass's answer exactly. Solves
   are timed on the process CPU clock (see Outcome.cpu_timed). The
   traced run alternates untraced and traced passes; a traced pass also
   calls the rung's kernels directly, one public function at a time, to
   split the solve into layers. *)

open Rtt_num
open Rtt_core
open Rtt_engine

(* What an answer must equal besides passing Validate.check: an exact
   optimum, an LP optimum, or nothing more. *)
type want = Makespan of int | Lp_value of Rat.t | Certified

type item = { p : Problem.t; budget : int; want : want }

type kind = Exact_bnb | Lp_large

let policy = function Exact_bnb -> [ Policy.Exact ] | Lp_large -> [ Policy.Bicriteria ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* exact-bnb: 144 Erdos-Renyi step-duration DAGs (n 11-13, budgets
   2-7) drawn by the seed from a fixed pool, 384 T1-style
   fan-plus-chain instances at budget 3 (a fan of 6 three-level jobs, a
   chain of 8 jobs with seeded times 1-4), and a fixed grid of 48
   fan-of-8 instances (chain tails 1-16, budgets 2, 4 and 6). The ER
   instances are the varied part. The chain times lengthen every path
   alike, so each fan-of-6 instance costs the same search whatever the
   seed, and that family, two thirds of the set, holds the median deep
   inside it; the fixed grid sets the p99. With seeded fan times or
   budgets in the median family, or with it only half the set, the
   median moved by a tenth or more between seeds.

   The pool is candidates 0 .. [er_candidates - 1] of [er_candidate]
   whose exact solve fitted in [er_fuel] ticks when
   expected/exact-er.txt was written; the file lists them with their
   optimal makespans. Capping the fuel keeps one rare huge search from
   deciding the p99 of a whole run, and keeping the pool in a file
   keeps the instance set from changing with the solver's fuel count. *)
let er_fuel = 3000
let er_candidates = 2000

let er_candidate i =
  let rng = Random.State.make [| 4099; i |] in
  let n = 11 + Random.State.int rng 3 in
  let p = Inst.er_step rng ~n ~edge_prob:0.4 ~max_steps:2 in
  { p; budget = 2 + Random.State.int rng 6; want = Certified }

(* Candidate [i]'s record for expected/exact-er.txt, if it is kept. *)
let er_record i =
  let it = er_candidate i in
  match Engine.solve ~fuel:er_fuel ~policy:[ Policy.Exact ] it.p ~budget:it.budget with
  | Ok s -> Some (Printf.sprintf "%d %d" i s.Engine.makespan)
  | Error _ -> None

let fan_item ~fan ~chain ~budget =
  { p = Inst.fan_chain ~fan ~levels:3 ~chain (); budget; want = Makespan (Inst.fan_optimum ~chain) }

let exact_set rng =
  let pool =
    Expected.records "exact-er.txt"
    |> List.map (function [ i; m ] -> (int_of_string i, int_of_string m) | _ -> failwith "exact-er.txt: bad record")
    |> Array.of_list |> shuffle rng
  in
  let body = List.init 144 (fun k -> let i, m = pool.(k) in { (er_candidate i) with want = Makespan m }) in
  let fans = List.init 384 (fun _ -> fan_item ~fan:6 ~chain:(List.init 8 (fun _ -> 1 + Random.State.int rng 4)) ~budget:3) in
  let grid =
    List.concat_map
      (fun tail -> List.map (fun budget -> fan_item ~fan:8 ~chain:(List.init tail (fun _ -> 1)) ~budget) [ 2; 4; 6 ])
      (List.init 16 (fun i -> i + 1))
  in
  Array.append (shuffle rng (Array.of_list (body @ fans))) (Array.of_list grid)

(* lp-large: 480 seeded small E1-style DAGs (n 4-8, budgets 1-6), where
   the float warm-start advisor fires, plus a fixed set of 8 layered
   race DAGs the size of E16 (16-18 layers of width 9, recursive-binary
   durations, budgets 2, 5 and 9), far too large for the exact rung.
   The small LPs set the median, the large ones (1.6% of the set) the
   p99 and most of the throughput. With 240 small LPs the median moved
   by a tenth between seeds. The LP optimum of each large instance is
   in expected/lp-large.txt. *)
let lp_large_fixed i =
  let g = Random.State.make [| 1616 + i |] in
  {
    p = Inst.layered_race g ~layers:(16 + (i mod 3)) ~width:9 ~edge_prob:0.35;
    budget = [| 2; 5; 9 |].(i mod 3);
    want = Certified;
  }

let lp_large_count = 8

(* Fixed instance [i]'s record for expected/lp-large.txt. *)
let lp_record i =
  let it = lp_large_fixed i in
  match Engine.solve ~policy:[ Policy.Bicriteria ] it.p ~budget:it.budget with
  | Ok { Engine.lp_makespan = Some v; _ } -> Printf.sprintf "%d %s" i (Rat.to_string v)
  | _ -> failwith "lp-large: no LP optimum"

let lp_set rng =
  let small =
    List.init 480 (fun _ ->
        let n = 4 + Random.State.int rng 5 in
        { p = Inst.er_step rng ~n ~edge_prob:0.4 ~max_steps:2; budget = 1 + Random.State.int rng 6; want = Certified })
  in
  let large =
    Expected.records "lp-large.txt"
    |> List.map (function
         | [ i; v ] -> { (lp_large_fixed (int_of_string i)) with want = Lp_value (Rat.of_string v) }
         | _ -> failwith "lp-large.txt: bad record")
  in
  Array.append (shuffle rng (Array.of_list small)) (Array.of_list large)

let make_set kind seed =
  let rng = Random.State.make [| seed; (match kind with Exact_bnb -> 1 | Lp_large -> 2) |] in
  match kind with Exact_bnb -> exact_set rng | Lp_large -> lp_set rng

(* Sets list their seeded body first, shuffled, and their fixed tail
   last. The answer a pass must reproduce: *)
let signature (s : Engine.success) = (s.Engine.makespan, s.Engine.budget_used, Array.to_list s.Engine.allocation)

let certified it (s : Engine.success) =
  match Validate.check it.p (Rtt_service.Work.claim_of s ~budget:it.budget) with Ok () -> true | Error _ -> false

let as_wanted it (s : Engine.success) =
  match it.want with
  | Makespan m -> s.Engine.makespan = m
  | Lp_value v -> Option.equal Rat.equal s.Engine.lp_makespan (Some v)
  | Certified -> true

type counters = { pivots : int; refactors : int; etas : int; nnz : int; acc : int; rej : int }

let counters () =
  let f = Rtt_lp.Simplex.factor_stats () in
  let acc, rej = Rtt_lp.Simplex.warm_stats () in
  {
    pivots = Rtt_lp.Simplex.pivot_count ();
    refactors = f.Rtt_lp.Simplex.refactorizations;
    etas = f.Rtt_lp.Simplex.etas;
    nnz = f.Rtt_lp.Simplex.nnz;
    acc;
    rej;
  }

let diff a b =
  {
    pivots = b.pivots - a.pivots;
    refactors = b.refactors - a.refactors;
    etas = b.etas - a.etas;
    nnz = b.nnz - a.nnz;
    acc = b.acc - a.acc;
    rej = b.rej - a.rej;
  }

let add a b =
  {
    pivots = a.pivots + b.pivots;
    refactors = a.refactors + b.refactors;
    etas = a.etas + b.etas;
    nnz = a.nnz + b.nnz;
    acc = a.acc + b.acc;
    rej = a.rej + b.rej;
  }

let zero = { pivots = 0; refactors = 0; etas = 0; nnz = 0; acc = 0; rej = 0 }

type state = {
  kind : kind;
  items : item array;
  expect : (int * int * int list) option array;
  lat : Stats.buf;  (** Engine.solve wall time of untraced passes, seconds. *)
  traced_lat : Stats.buf;
  mutable passes : (Stats.buf * float) list;  (** Untraced passes, newest first: samples and busy seconds. *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable ticks : int;  (** Exact fuel ticks over the first traced pass. *)
  mutable lp : counters;  (** Simplex counter deltas over the first traced pass. *)
  mutable layer_checks_ok : bool;
}

let setup kind ~seed () =
  let items = make_set kind seed in
  let st =
    {
      kind;
      items;
      expect = Array.make (Array.length items) None;
      lat = Stats.buf ();
      traced_lat = Stats.buf ();
      passes = [];
      attempted = 0;
      failed = 0;
      wrong = 0;
      ticks = 0;
      lp = zero;
      layer_checks_ok = true;
    }
  in
  (* warm-up, untimed: the same amount of work whatever the seed — the
     tail item listed last in [items] and the 64 body items listed first *)
  let warm = (Array.length items - 1) :: List.init 64 Fun.id in
  List.iter
    (fun i ->
      let it = items.(i) in
      match Engine.solve ~policy:(policy kind) it.p ~budget:it.budget with
      | Ok s when certified it s && as_wanted it s -> st.expect.(i) <- Some (signature s)
      | _ -> ())
    warm;
  st

(* Call the rung's kernels directly, each in its own span, and check
   they agree with the engine's answer. *)
let layer_calls st it (s : Engine.success) ~first_pass =
  let agree =
    match st.kind with
    | Exact_bnb ->
        let r, ticks =
          Trace.span "core.exact" (fun () ->
              Rtt_budget.Budget.with_fuel None (fun () ->
                  let r = Exact.min_makespan it.p ~budget:it.budget in
                  (r, Rtt_budget.Budget.spent ())))
        in
        if first_pass then st.ticks <- st.ticks + ticks;
        r.Exact.makespan = s.Engine.makespan && r.Exact.allocation = s.Engine.allocation
    | Lp_large ->
        let tr = Trace.span "core.transform" (fun () -> Transform.of_problem it.p) in
        let lp = Trace.span "core.lp_relax" (fun () -> Lp_relax.min_makespan tr ~budget:it.budget) in
        let rd = Trace.span "core.rounding" (fun () -> Rounding.round tr ~alpha:Rat.half lp) in
        rd.Rounding.allocation = s.Engine.allocation
        && Option.equal Rat.equal s.Engine.lp_makespan (Some lp.Lp_relax.makespan)
  in
  let mb = Trace.span "core.schedule.min_budget" (fun () -> Schedule.min_budget it.p s.Engine.allocation) in
  let ok = Trace.span "engine.validate" (fun () -> certified it s) in
  if not (agree && ok && mb = s.Engine.budget_used) then st.layer_checks_ok <- false

let pass st ~traced ~first_traced =
  (* start every pass from a collected heap, untimed, so garbage left by
     the previous pass's large instances is not charged to this one *)
  Gc.full_major ();
  Trace.on := traced;
  let this = Stats.buf () in
  Array.iteri
    (fun i it ->
      st.attempted <- st.attempted + 1;
      let c0 = counters () in
      let r, dt =
        Outcome.cpu_timed (fun () ->
            Trace.span ~req:i "engine.solve" (fun () -> Engine.solve ~policy:(policy st.kind) it.p ~budget:it.budget))
      in
      let c1 = counters () in
      if traced then Stats.add st.traced_lat dt
      else begin
        Stats.add st.lat dt;
        Stats.add this dt
      end;
      match r with
      | Error _ -> st.failed <- st.failed + 1
      | Ok s ->
          let good =
            certified it s && as_wanted it s
            &&
            match st.expect.(i) with
            | None ->
                st.expect.(i) <- Some (signature s);
                true
            | Some e -> e = signature s
          in
          if not good then begin
            st.failed <- st.failed + 1;
            st.wrong <- st.wrong + 1
          end;
          if traced then begin
            if first_traced then st.lp <- add st.lp (diff c0 c1);
            layer_calls st it s ~first_pass:first_traced
          end)
    st.items;
  if not traced then st.passes <- (this, Stats.sum this) :: st.passes;
  Trace.on := false

let run kind ~seed ~seconds ~trace =
  let st, setups = Outcome.first_setup ~setup:(setup kind ~seed) ~teardown:ignore in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let passes = ref 0 in
  let continue () =
    let n = Stats.length st.lat in
    elapsed () < 3.0 *. seconds
    && (elapsed () < seconds || Stats.beyond n 99.0 < Stats.min_beyond || (trace && !passes < 2))
  in
  while continue () do
    let traced = trace && !passes mod 2 = 1 in
    pass st ~traced ~first_traced:(!passes = 1);
    incr passes;
    Outcome.spread_setup setups ~elapsed:(elapsed ()) ~seconds
  done;
  let setup_s = Outcome.setup_times setups in
  let n_items = float_of_int (Array.length st.items) in
  let b = Stats.block_means (List.rev st.passes) in
  let e2e =
    [
      Report.m "answers_per_s" "1/s" b.Stats.rate;
      Report.m "answer_p50_ms" "ms" (Outcome.ms b.Stats.b_p50);
      Report.m "answer_p99_ms" "ms" (Outcome.ms b.Stats.b_p99);
    ]
  in
  let per_solve name = Outcome.ms (fst (Trace.total name)) /. float_of_int (max 1 (snd (Trace.total "engine.solve"))) in
  let layers =
    if not trace then []
    else begin
      let solve = per_solve "engine.solve" in
      let kernel =
        match kind with
        | Exact_bnb -> per_solve "core.exact"
        | Lp_large -> per_solve "core.transform" +. per_solve "core.lp_relax" +. per_solve "core.rounding"
      in
      let validate = per_solve "engine.validate" in
      let c = st.lp in
      let per x = float_of_int x /. n_items in
      [
        Report.m "engine.solve.ms" "ms" solve;
        Report.m "core.exact.ms" "ms" (per_solve "core.exact");
        Report.m "core.exact.ticks" "count" (per st.ticks);
        Report.m "core.transform.ms" "ms" (per_solve "core.transform");
        Report.m "core.lp_relax.ms" "ms" (per_solve "core.lp_relax");
        Report.m "core.rounding.ms" "ms" (per_solve "core.rounding");
        Report.m "core.schedule.min_budget.ms" "ms" (per_solve "core.schedule.min_budget");
        Report.m "engine.validate.ms" "ms" validate;
        Report.m "engine.other.ms" "ms" (solve -. kernel -. validate);
        Report.m "lp.simplex.pivots" "count" (per c.pivots);
        Report.m "lp.simplex.refactors" "count" (per c.refactors);
        Report.m "lp.simplex.etas" "count" (per c.etas);
        Report.m "lp.simplex.nnz" "count" (per c.nnz);
        Report.m "lp.warm.accepted" "count" (per c.acc);
        Report.m "lp.warm.rejected" "count" (per c.rej);
        Report.m "lp.warm.accept_ratio" "ratio"
          (if c.acc + c.rej = 0 then 0.0 else float_of_int c.acc /. float_of_int (c.acc + c.rej));
        Report.m "trace.overhead_pct" "%" (100.0 *. ((Stats.mean st.traced_lat /. Stats.mean st.lat) -. 1.0));
      ]
    end
  in
  let st_ok = st.layer_checks_ok in
  let failed = if st_ok then st.failed else st.failed + 1 in
  {
    Outcome.attempted = st.attempted;
    failed;
    wrong = (st.wrong + if st_ok then 0 else 1);
    setup_s;
    e2e;
    layers;
    notes =
      [
        Printf.sprintf "instances %d, passes %d, untraced samples %d in %d blocks (each >= %d, so >= %d beyond p99)"
          (Array.length st.items) !passes b.Stats.samples b.Stats.blocks (100 * Stats.min_beyond) Stats.min_beyond;
      ];
  }
