(* Writes the answers the benchmark checks against, in
   rttbench/expected/, from the program at the current commit. What it
   writes becomes the reference every later commit is held to, so run
   it, from the root of the repository, only when a workload's instance
   pool changes:

     dune build ./rttbench/mkexpected.exe && ./_build/default/rttbench/mkexpected.exe *)

let pool name ~comment ~candidates record =
  Expected.write name ~comment (List.filter_map record (List.init candidates Fun.id))

let () =
  pool "exact-er.txt" ~candidates:W_inproc.er_candidates W_inproc.er_record
    ~comment:
      [
        "exact-bnb's Erdos-Renyi pool: candidate index and optimal makespan, for the";
        Printf.sprintf "candidates of W_inproc.er_candidate whose exact solve fits in %d ticks" W_inproc.er_fuel;
      ];
  Expected.write "lp-large.txt"
    ~comment:[ "lp-large's fixed E16-sized instances: index and LP optimum of Lp_relax.min_makespan" ]
    (List.init W_inproc.lp_large_count W_inproc.lp_record);
  pool "session-er.txt" ~candidates:W_session.er_candidates W_session.er_record
    ~comment:
      [
        "session-sweep's Erdos-Renyi pool: candidate index, which tries of its stream are kept (1)";
        "and the optimal makespan of the seed instance and of each kept revision";
      ];
  let _, m0, steps = W_session.fan6_stream () in
  let makespan m =
    match W_session.cold_solve m with Ok (_, s) -> s.Rtt_engine.Engine.makespan | Error e -> failwith e
  in
  Expected.write "session-fan6.txt"
    ~comment:[ "session-sweep's fixed fan-of-6 stream: optimal makespan of the seed and of each revision" ]
    [ String.concat " " (List.map (fun m -> string_of_int (makespan m)) (m0 :: List.map snd steps)) ]
