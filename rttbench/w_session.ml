(* session-sweep: an in-process Session store on a scratch spool.

   Sixteen sessions take turns through mutation streams, each mutation
   followed by a warm re-solve on the exact rung: twelve Erdos-Renyi
   sessions drawn by the seed from a fixed pool, with the full mutation
   mix (set-budget, add-job, add-edge, set-duration-option,
   remove-job), three fan-plus-chain sessions with a fan of 5 driven
   through seeded chain duration changes, and one with a fan of 6
   driven through a fixed stream of fan duration changes (see
   [fan6_script]). Every mutation is one fsync'd journal record. A
   round replays the same streams from fresh seed mutations, so every
   round does the same work; the run measures whole rounds.

   The benchmark keeps its own copy of each session's instance. During
   set-up it cold-solves every revision of every stream with
   Engine.solve and keeps Session.cold_render of each answer; every
   warm answer of every round must equal that text byte for byte, and
   have the revision's optimal makespan as the script records it. *)

open Rtt_num
open Rtt_core
open Rtt_engine
module Session = Rtt_session.Session

let er_sessions = 12
let er_len = 20 (* mutations per ER session per round *)
let cold_fuel_cap = 1500 (* below the fan-6 stream's costliest re-solves, so those set the p99 *)
let mid_sessions = 3 (* fan-5 sessions *)
let fan_len = 100
let policy = [ Policy.Exact ]

(* The benchmark's copy of a session's instance, rendered exactly as
   the session renders its own state for the loader. *)
type mirror = { n : int; durs : (int * (int * int) list) list; edges : (int * int) list; mbudget : int }

let tuples_text ts = String.concat " " (List.map (fun (r, t) -> Printf.sprintf "%d:%d" r t) ts)

let text m =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "vertices %d\n" m.n);
  List.iter (fun (v, ts) -> Buffer.add_string b (Printf.sprintf "duration %d %s\n" v (tuples_text ts))) m.durs;
  List.iter (fun (u, v) -> Buffer.add_string b (Printf.sprintf "edge %d %d\n" u v)) m.edges;
  Buffer.contents b

let of_problem p ~budget =
  let durs = ref [] in
  Array.iteri
    (fun v d ->
      if not (Rtt_duration.Duration.is_constant d) || Rtt_duration.Duration.base_time d <> 0 then
        durs := (v, Rtt_duration.Duration.tuples d) :: !durs)
    p.Problem.durations;
  { n = Problem.n_jobs p; durs = List.rev !durs; edges = Rtt_dag.Dag.edges p.Problem.dag; mbudget = budget }

(* Whether [src] reaches [dst] along the mirror's edges. *)
let reaches m src dst =
  let seen = Array.make m.n false in
  let rec go v =
    v = dst
    || (not seen.(v))
       && begin
            seen.(v) <- true;
            List.exists (fun (a, b) -> a = v && go b) m.edges
          end
  in
  go src

let apply m = function
  | Session.Set_budget b -> { m with mbudget = b }
  | Session.Add_job ts -> { m with n = m.n + 1; durs = m.durs @ [ (m.n, ts) ] }
  | Session.Add_edge (u, v) -> { m with edges = m.edges @ [ (u, v) ] }
  | Session.Set_duration (v, ts) ->
      let durs = List.filter (fun (u, _) -> u <> v) m.durs @ [ (v, ts) ] in
      { m with durs = List.sort (fun (a, _) (b, _) -> compare a b) durs }
  | Session.Remove_job v ->
      let shift u = if u > v then u - 1 else u in
      {
        m with
        n = m.n - 1;
        durs = List.filter_map (fun (u, ts) -> if u = v then None else Some (shift u, ts)) m.durs;
        edges = List.filter_map (fun (a, b) -> if a = v || b = v then None else Some (shift a, shift b)) m.edges;
      }
  | Session.Seed _ | Session.Set_alpha _ -> m

(* Mutation [i] of a stream: the kinds take turns, the arguments are
   drawn, and the session must accept it (no duplicate edge, no cycle,
   the job count kept within two of the seed's). *)
let random_op rng m ~n0 ~i =
  let tuples () = Rtt_duration.Duration.tuples (Inst.step_duration rng ~max_steps:2) in
  let rec edge tries =
    if tries = 0 then Session.Set_budget (1 + Random.State.int rng 6)
    else
      let u = Random.State.int rng m.n and v = Random.State.int rng m.n in
      if u = v || List.mem (u, v) m.edges || reaches m v u then edge (tries - 1) else Session.Add_edge (u, v)
  in
  match i mod 5 with
  | 0 -> Session.Set_budget (1 + Random.State.int rng 6)
  | 1 when m.n < n0 + 2 -> Session.Add_job (tuples ())
  | 2 -> edge 20
  | 3 -> Session.Set_duration (Random.State.int rng m.n, tuples ())
  | 4 when m.n > n0 - 2 -> Session.Remove_job (Random.State.int rng m.n)
  | _ -> edge 20

(* A cold solve of the benchmark's copy. Under [fuel] a solve that would
   run longer fails instead, so filtering a stream stays cheap; one that
   finishes returns the unmetered answer. *)
let cold_solve ?fuel m =
  match Engine.load_string (text m) with
  | Error e -> Error (Error.to_string e)
  | Ok p -> (
      match Engine.solve ?fuel ~policy ~alpha:Rat.half p ~budget:m.mbudget with
      | Ok s -> Ok (p, s)
      | Error e -> Error (Error.to_string e))

(* One session's script: its seed text, initial budget, and the stream
   of mutations. Each revision carries the optimal makespan it must
   have, known independently of the program under test (worked out by
   hand or committed in expected/), and the text of a cold solve of it,
   which the warm answer must equal byte for byte. *)
type step = { op : Session.op; after : mirror; want : int; render : string }
type script = { seed_text : string; budget0 : int; want0 : int; render0 : string; steps : step array }

(* Draw up to [len] mutations from [next_op], in at most [tries] tries;
   [keep t m'] says whether try [t], which leads to [m'], is kept. *)
let stream ~m0 ~len ~tries ~keep ~next_op =
  let rec go t m acc =
    if List.length acc >= len || t >= tries then List.rev acc
    else
      let op = next_op m ~i:(List.length acc) in
      let m' = apply m op in
      if keep t m' then go (t + 1) m' ((op, m') :: acc) else go (t + 1) m acc
  in
  go 0 m0 []

let render m = match cold_solve m with Ok (p, s) -> Session.cold_render p s | Error e -> failwith e

let script ~seed_text ~m0 ~want0 steps =
  {
    seed_text;
    budget0 = m0.mbudget;
    want0;
    render0 = render m0;
    steps = Array.of_list (List.map (fun (op, after, want) -> { op; after; want; render = render after }) steps);
  }

(* A fan session: a T1-style fan of [fan] three-level jobs plus a chain
   of 8 unit jobs at budget 3. *)
let fan_seed ~fan =
  let p = Inst.fan_chain ~fan ~levels:3 ~chain:(List.init 8 (fun _ -> 1)) () in
  (Io.to_string p, of_problem p ~budget:3)

(* Fan-of-5 sessions driven through [fan_len] seeded chain-job duration
   changes: every path lengthens alike, so each warm re-solve does the
   same search whatever the stream, and these sessions set the median.
   Their optimum is Inst.fan_optimum of the chain. *)
let fan5_script rng =
  let fan = 5 in
  let seed_text, m0 = fan_seed ~fan in
  let want m = Inst.fan_optimum ~chain:(List.filter_map (fun (v, ts) -> if v >= fan + 2 then Some (List.assoc 0 ts) else None) m.durs) in
  let next_op _ ~i:_ = Session.Set_duration (fan + 2 + Random.State.int rng 8, [ (0, 1 + Random.State.int rng 4) ]) in
  stream ~m0 ~len:fan_len ~tries:fan_len ~keep:(fun _ _ -> true) ~next_op
  |> List.map (fun (op, m) -> (op, m, want m))
  |> script ~seed_text ~m0 ~want0:(want m0)

(* The fan-of-6 session: one fixed stream, the same for every seed, of
   [fan_len] new fan-job durations, which changes the search from step
   to step and sets the p99. Its optimal makespans, seed first, are in
   expected/session-fan6.txt. Budget changes, a seeded fan-6 stream or
   seeded fan durations in the median class each moved a percentile
   between seeds. *)
let fan6_stream () =
  let fan = 6 in
  let rng = Random.State.make [| 7919 |] in
  let seed_text, m0 = fan_seed ~fan in
  let next_op _ ~i:_ =
    let tuples = Rtt_duration.Duration.tuples (Inst.three_levels rng) in
    Session.Set_duration (1 + Random.State.int rng fan, tuples)
  in
  (seed_text, m0, stream ~m0 ~len:fan_len ~tries:fan_len ~keep:(fun _ _ -> true) ~next_op)

let fan6_script () =
  let seed_text, m0, steps = fan6_stream () in
  match Expected.records "session-fan6.txt" with
  | [ w0 :: ws ] when List.length ws = List.length steps ->
      script ~seed_text ~m0 ~want0:(int_of_string w0) (List.map2 (fun (op, m) w -> (op, m, int_of_string w)) steps ws)
  | _ -> failwith "session-fan6.txt: bad record"

(* Erdos-Renyi sessions: a mid-size step-duration DAG (n 9) driven
   through the full mutation mix. These make the stream's shape depend
   on the seed; their re-solves are the cheap part of the distribution.
   The seed draws them from a fixed pool: candidate [i] is kept when its
   seed instance's cold solve fitted in [cold_fuel_cap] ticks, and of
   its stream only the tries whose cold solve fitted too, when
   expected/session-er.txt was written. The file lists, per candidate
   kept, which tries were kept and every revision's optimal makespan,
   so the streams do not change with the solver's fuel count. *)
let er_candidates = 400

let er_seed i =
  let rng = Random.State.make [| 6151; i |] in
  let p = Inst.er_step rng ~n:9 ~edge_prob:0.35 ~max_steps:2 in
  let budget = 2 + Random.State.int rng 5 in
  let m0 = of_problem p ~budget in
  (rng, m0, Io.to_string p)

let er_next rng m0 m ~i = random_op rng m ~n0:m0.n ~i

(* Candidate [i]'s record for expected/session-er.txt, if it is kept. *)
let er_record i =
  let rng, m0, _ = er_seed i in
  match cold_solve ~fuel:cold_fuel_cap m0 with
  | Error _ -> None
  | Ok (_, s0) ->
      let mask = Buffer.create 80 and wants = ref [] in
      let keep _ m' =
        match cold_solve ~fuel:cold_fuel_cap m' with
        | Ok (_, s) ->
            Buffer.add_char mask '1';
            wants := s.Engine.makespan :: !wants;
            true
        | Error _ ->
            Buffer.add_char mask '0';
            false
      in
      ignore (stream ~m0 ~len:er_len ~tries:(4 * er_len) ~keep ~next_op:(er_next rng m0));
      Some
        (String.concat " "
           (string_of_int i :: Buffer.contents mask :: List.map string_of_int (s0.Engine.makespan :: List.rev !wants)))

let er_script = function
  | i :: mask :: want0 :: wants ->
      let rng, m0, seed_text = er_seed (int_of_string i) in
      let steps =
        stream ~m0 ~len:er_len ~tries:(String.length mask) ~keep:(fun t _ -> mask.[t] = '1') ~next_op:(er_next rng m0)
      in
      if List.length steps <> List.length wants then failwith "session-er.txt: bad record";
      script ~seed_text ~m0 ~want0:(int_of_string want0)
        (List.map2 (fun (op, m) w -> (op, m, int_of_string w)) steps wants)
  | _ -> failwith "session-er.txt: bad record"

type state = {
  scripts : script array;
  spool : string;
  store : Session.store;
  handles : Session.t array;
  mutate_lat : Stats.buf;
  resolve_lat : Stats.buf;
  traced_resolve : Stats.buf;
  mutable rounds_done : (Stats.buf * float) list;
      (** Untraced rounds, newest first: resolve times and their sum. Mutate
          time stays out of the end-to-end figures: it is an fsync, whose
          cost drifted 10-15% between runs on the VM this was written on
          (see README.md); session.mutate_* report it. *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable warm_fuel : int;  (** Over the first traced round. *)
  mutable cold_fuel : int;
  mutable exact_ticks : int;
  mutable round_steps : int;
}

let setup ~base ~seed k () =
  let rng = Random.State.make [| seed; 6 |] in
  let pool = W_inproc.shuffle rng (Array.of_list (Expected.records "session-er.txt")) in
  let scripts =
    Array.concat
      [
        Array.init er_sessions (fun k -> er_script pool.(k));
        Array.init mid_sessions (fun _ -> fan5_script rng);
        [| fan6_script () |];
      ]
  in
  let spool = Filename.concat base (Printf.sprintf "session-%d" k) in
  Files.rm_rf spool;
  Files.mkdir_p spool;
  let store = Session.create_store ~spool in
  let handles =
    Array.init (Array.length scripts) (fun j ->
        match Session.open_ store (Printf.sprintf "s%d" j) with Ok t -> t | Error e -> failwith e)
  in
  {
    scripts;
    spool;
    store;
    handles;
    mutate_lat = Stats.buf ();
    resolve_lat = Stats.buf ();
    traced_resolve = Stats.buf ();
    rounds_done = [];
    attempted = 0;
    failed = 0;
    wrong = 0;
    warm_fuel = 0;
    cold_fuel = 0;
    exact_ticks = 0;
    round_steps = Array.fold_left (fun n sc -> n + Array.length sc.steps) 0 scripts;
  }

let teardown st =
  Array.iter (fun t -> Session.close st.store t) st.handles;
  Files.rm_rf st.spool

(* The traced run's extra checks on one step: a real cold solve of the
   benchmark's copy, compared with the warm answer, and the exact
   kernel called directly. *)
let bad st =
  st.wrong <- st.wrong + 1;
  st.failed <- st.failed + 1

let traced_step st ~first (x : step) (w : Session.solved) =
  match Engine.load_string (text x.after) with
  | Error _ -> bad st
  | Ok p -> (
      let r, ticks =
        Trace.span "core.exact" (fun () ->
            Rtt_budget.Budget.with_fuel None (fun () ->
                let r = Exact.min_makespan p ~budget:x.after.mbudget in
                (r, Rtt_budget.Budget.spent ())))
      in
      match Trace.span "session.cold_solve" (fun () -> Engine.solve ~policy ~alpha:Rat.half p ~budget:x.after.mbudget) with
      | Error _ -> bad st
      | Ok c ->
          if first then begin
            st.warm_fuel <- st.warm_fuel + w.Session.success.Engine.fuel_spent;
            st.cold_fuel <- st.cold_fuel + c.Engine.fuel_spent;
            st.exact_ticks <- st.exact_ticks + ticks
          end;
          if Session.cold_render p c <> w.Session.rendered || r.Exact.makespan <> c.Engine.makespan then bad st)

let round st ~traced ~first =
  let fail () = st.failed <- st.failed + 1 in
  Gc.full_major ();
  (* restart every session from its seed; the seed solve is cold *)
  Array.iteri
    (fun j sc ->
      let t = st.handles.(j) in
      match (Session.mutate t (Session.Seed sc.seed_text), Session.mutate t (Session.Set_budget sc.budget0)) with
      | Ok _, Ok _ -> (
          match Session.solve ~policy t with
          | Ok w when w.Session.rendered = sc.render0 && w.Session.success.Engine.makespan = sc.want0 -> ()
          | Ok _ -> bad st
          | Error _ -> fail ())
      | _ -> fail ())
    st.scripts;
  Trace.on := traced;
  let this = Stats.buf () and busy = ref 0.0 in
  let longest = Array.fold_left (fun n sc -> max n (Array.length sc.steps)) 0 st.scripts in
  for i = 0 to longest - 1 do
    Array.iteri
      (fun j sc ->
        if i < Array.length sc.steps then begin
          let x = sc.steps.(i) and t = st.handles.(j) in
          st.attempted <- st.attempted + 1;
          let r, dm = Outcome.timed (fun () -> Trace.span ~req:i "session.mutate" (fun () -> Session.mutate t x.op)) in
          match r with
          | Error _ -> fail ()
          | Ok _ -> (
              let r, ds = Outcome.cpu_timed (fun () -> Trace.span ~req:i "session.solve" (fun () -> Session.solve ~policy t)) in
              match r with
              | Error _ -> fail ()
              | Ok w ->
                  if traced then Stats.add st.traced_resolve ds
                  else begin
                    Stats.add st.mutate_lat dm;
                    Stats.add st.resolve_lat ds;
                    Stats.add this ds;
                    busy := !busy +. ds
                  end;
                  if w.Session.rendered <> x.render || w.Session.success.Engine.makespan <> x.want || not w.Session.warm
                  then bad st;
                  if traced then traced_step st ~first x w)
        end)
      st.scripts
  done;
  if not traced then st.rounds_done <- (this, !busy) :: st.rounds_done;
  Trace.on := false

let run ~seed ~seconds ~trace =
  let base = Files.run_dir () in
  Files.mkdir_p base;
  let k = ref 0 in
  let st, setups =
    Outcome.first_setup
      ~setup:(fun () ->
        incr k;
        setup ~base ~seed !k ())
      ~teardown
  in
  let rounds = ref 0 in
  let setup_s =
    Fun.protect
      ~finally:(fun () ->
        teardown st;
        Files.rm_rf base)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let elapsed () = Unix.gettimeofday () -. t0 in
        let continue () =
          let n = Stats.length st.resolve_lat in
          elapsed () < 3.0 *. seconds
          && (elapsed () < seconds || Stats.beyond n 99.0 < Stats.min_beyond || (trace && !rounds < 2))
        in
        while continue () do
          round st ~traced:(trace && !rounds mod 2 = 1) ~first:(!rounds = 1);
          incr rounds;
          Outcome.spread_setup setups ~elapsed:(elapsed ()) ~seconds
        done;
        Outcome.setup_times setups)
  in
  let b = Stats.block_means (List.rev st.rounds_done) and mut = Stats.summarize st.mutate_lat in
  let e2e =
    [
      Report.m "answers_per_s" "1/s" b.Stats.rate;
      Report.m "answer_p50_ms" "ms" (Outcome.ms b.Stats.b_p50);
      Report.m "answer_p99_ms" "ms" (Outcome.ms b.Stats.b_p99);
    ]
  in
  let per_step x = float_of_int x /. float_of_int (max 1 st.round_steps) in
  let mean name =
    let s, k = Trace.total name in
    if k = 0 then 0.0 else Outcome.ms s /. float_of_int k
  in
  let layers =
    if not trace then []
    else
      [
        Report.m "engine.solve.ms" "ms" (mean "session.cold_solve");
        Report.m "core.exact.ms" "ms" (mean "core.exact");
        Report.m "core.exact.ticks" "count" (per_step st.exact_ticks);
        Report.m "session.mutate_p50_ms" "ms" (Outcome.ms mut.Stats.p50);
        Report.m "session.mutate_p99_ms" "ms" (Outcome.ms mut.Stats.p99);
        Report.m "session.warm_fuel" "count" (per_step st.warm_fuel);
        Report.m "session.cold_fuel" "count" (per_step st.cold_fuel);
        Report.m "session.warm_share" "ratio" (float_of_int st.warm_fuel /. float_of_int (max 1 st.cold_fuel));
        Report.m "trace.overhead_pct" "%"
          (100.0 *. ((Stats.mean st.traced_resolve /. Stats.mean st.resolve_lat) -. 1.0));
      ]
  in
  {
    Outcome.attempted = st.attempted;
    failed = st.failed;
    wrong = st.wrong;
    setup_s;
    e2e;
    layers;
    notes =
      [
        Printf.sprintf "%d sessions, %d mutations a round, %d rounds, %d untraced resolves in %d blocks (each >= %d)"
          (Array.length st.scripts) st.round_steps !rounds b.Stats.samples b.Stats.blocks (100 * Stats.min_beyond);
        Printf.sprintf "mutate p50 %.3f ms p99 %.3f ms" (Outcome.ms mut.Stats.p50) (Outcome.ms mut.Stats.p99);
      ];
  }
