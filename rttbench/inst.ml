(* Seeded instance generators for the workloads. Every generator takes
   its [Random.State.t] from the caller, so one --seed fixes every input
   the benchmark hands to the program. *)

open Rtt_dag
open Rtt_duration
open Rtt_core

(* A general non-increasing step function: base time 2..10, up to
   [max_steps] further (resource, time) tuples. *)
let step_duration rng ~max_steps =
  let base = 2 + Random.State.int rng 9 in
  let rec steps r t k acc =
    if k = 0 || t = 0 then List.rev acc
    else begin
      let r' = r + 1 + Random.State.int rng 3 in
      let t' = max 0 (t - 1 - Random.State.int rng 4) in
      if t' >= t then List.rev acc else steps r' t' (k - 1) ((r', t') :: acc)
    end
  in
  Duration.make ((0, base) :: steps 0 base (Random.State.int rng (max_steps + 1)) [])

(* Erdos-Renyi DAG with general step durations. *)
let er_step rng ~n ~edge_prob ~max_steps =
  let g = Gen.erdos_renyi rng ~n ~edge_prob in
  Problem.make g ~durations:(fun _ -> step_duration rng ~max_steps)

(* A fan of [fan] upgradable jobs between a source and a hub, then a
   chain of constant jobs with times [chain]: the branch and bound
   enumerates the fan while the chain only lengthens every path. Fan
   jobs have [levels] levels (10, 9, 8, ...); the source and the hub
   take 1. *)
let fan_chain ~fan ~levels ~chain () =
  let g = Dag.create () in
  let s = Dag.add_vertex ~label:"s" g in
  let fan_vs = List.init fan (fun _ -> Dag.add_vertex g) in
  let hub = Dag.add_vertex g in
  List.iter
    (fun v ->
      Dag.add_edge g s v;
      Dag.add_edge g v hub)
    fan_vs;
  let prev = ref hub in
  let chain =
    List.map
      (fun t ->
        let v = Dag.add_vertex g in
        Dag.add_edge g !prev v;
        prev := v;
        (v, Duration.constant t))
      chain
  in
  let fan_duration = Duration.make (List.init levels (fun r -> (r, 10 - r))) in
  Problem.make g ~durations:(fun v ->
      if List.mem v fan_vs then fan_duration
      else match List.assoc_opt v chain with Some d -> d | None -> Duration.constant 1)

(* The optimal makespan of [fan_chain] at a budget below [fan], worked
   out by hand rather than by the program: a unit of budget flows
   through one fan job, so some fan job gets nothing and takes 10, and
   the all-zero allocation reaches source + 10 + hub + chain. *)
let fan_optimum ~chain = 12 + List.fold_left ( + ) 0 chain

(* Three levels: a base time of 8-12, each upgrade saving 1-2. *)
let three_levels rng =
  let t0 = 8 + Random.State.int rng 5 in
  let t1 = t0 - 1 - Random.State.int rng 2 in
  Duration.make [ (0, t0); (1, t1); (2, t1 - 1 - Random.State.int rng 2) ]

(* A layered race DAG with recursive-binary reducer durations. *)
let layered_race rng ~layers ~width ~edge_prob =
  Problem.of_race_dag (Gen.layered rng ~layers ~width ~edge_prob) Problem.Binary
