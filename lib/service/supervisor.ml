type config = Work.config = {
  spool : string;
  budget : int;
  policy : Rtt_engine.Policy.t;
  max_attempts : int;
  deadline_fuel : int option;
  checkpoint_every : int;
  seed : int;
  sleep : bool;
  verbose : bool;
  workers : int;
  cache_dir : string option;
}

let default_config ~spool =
  {
    spool;
    budget = 4;
    policy = Rtt_engine.Policy.default;
    max_attempts = 3;
    deadline_fuel = None;
    checkpoint_every = 1000;
    seed = 0;
    sleep = true;
    verbose = false;
    workers = 1;
    cache_dir = None;
  }

let drained_exit_code = 0
let failed_jobs_exit_code = 31
let shutdown_exit_code = 30

exception Shutdown

let jobs_in = Work.jobs_in
let result_path = Work.result_path
let read_result = Work.read_result

(* ------------------------------------------------------------------ *)
(* the drain loop                                                      *)

let run ?(notify = fun _ -> ()) cfg =
  let spool = cfg.spool in
  let log fmt =
    Printf.ksprintf (fun s -> if cfg.verbose then Printf.eprintf "[serve] %s\n%!" s) fmt
  in
  let states = ref (Journal.fold (Journal.replay ~spool)) in
  let journal = Journal.open_ ~spool in
  let record event job =
    let r = { Journal.job; event } in
    Journal.append journal r;
    states := Journal.apply !states r;
    notify r
  in
  let stop = ref false in
  let install signal = Sys.signal signal (Sys.Signal_handle (fun _ -> stop := true)) in
  let saved_term = install Sys.sigterm in
  let saved_int = install Sys.sigint in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm saved_term;
      Sys.set_signal Sys.sigint saved_int;
      Journal.close journal)
    (fun () ->
      (* admit new spool files *)
      let jobs = jobs_in ~spool in
      List.iter (fun job -> if not (List.mem_assoc job !states) then record Journal.Queued job) jobs;
      (* each job's next attempt, per the journal; one past the last
         allowed attempt ends the job instead *)
      let claim job =
        match Journal.next_attempt (List.assoc_opt job !states) with
        | Some attempt when attempt > cfg.max_attempts ->
            record (Journal.retries_exhausted ~max_attempts:cfg.max_attempts) job;
            None
        | next -> next
      in
      let exit_code () =
        if !stop then shutdown_exit_code
        else if List.exists (function _, Journal.Dead _ -> true | _ -> false) !states then
          failed_jobs_exit_code
        else drained_exit_code
      in
      if cfg.workers > 1 then begin
        let worklist =
          List.filter_map (fun job -> Option.map (fun a -> (job, a)) (claim job)) jobs
        in
        Pool.drain cfg ~journal ~record ~jobs:worklist ~stop ~log:(fun s -> log "%s" s);
        exit_code ()
      end
      else begin
        (* in process: the pool's attempt and settle rule, no fork *)
        let rec drive job ~attempt =
          record (Journal.Started { attempt }) job;
          let report =
            Pool.run_attempt cfg ~stop:(fun () -> !stop) ~log:(fun s -> log "%s" s) ~job ~attempt
          in
          let event, next = Pool.settle ~max_attempts:cfg.max_attempts ~attempt (Some report) in
          Option.iter (fun e -> record e job) event;
          match next with
          | Pool.Finished -> ()
          | Pool.Retry backoff ->
              if cfg.sleep then Unix.sleepf (float_of_int backoff /. 1000.);
              if !stop then raise Shutdown;
              drive job ~attempt:(attempt + 1)
          | Pool.Replay ->
              (* only a shutdown abandons an in-process attempt *)
              log "%s attempt %d: abandoned on shutdown (checkpoint kept)" job attempt;
              raise Shutdown
        in
        match
          List.iter
            (fun job ->
              if !stop then raise Shutdown;
              Option.iter (fun attempt -> drive job ~attempt) (claim job))
            jobs
        with
        | () -> exit_code ()
        | exception Shutdown ->
            log "shutdown requested; exiting";
            shutdown_exit_code
      end)

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)

let report ~spool =
  let states = Journal.fold (Journal.replay ~spool) in
  let unseen =
    List.filter_map
      (fun job ->
        if List.mem_assoc job states then None else Some (job, Journal.Pending { attempts = 0 }))
      (jobs_in ~spool)
  in
  states @ unseen

let render_report ~spool =
  let entries = report ~spool in
  let buf = Buffer.create 256 in
  let width =
    List.fold_left (fun acc (job, _) -> max acc (String.length job)) (String.length "job") entries
  in
  Buffer.add_string buf (Printf.sprintf "%-*s | state\n" width "job");
  List.iter
    (fun (job, status) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s | %s\n" width job (Format.asprintf "%a" Journal.pp_status status)))
    entries;
  let hits =
    List.fold_left
      (fun acc -> function _, Journal.Completed { cached = true; _ } -> acc + 1 | _ -> acc)
      0 entries
  in
  if hits > 0 then Buffer.add_string buf (Printf.sprintf "%d completed from cache\n" hits);
  Buffer.contents buf
