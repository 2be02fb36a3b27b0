open Rtt_engine

(* ------------------------------------------------------------------ *)
(* wire protocol: one {!Frame}d line per message. Pipes do not corrupt
   bytes, but the CRC turns any protocol bug into an ignorable line
   instead of a silently misparsed result. The payload grammar below:
   assignments down, reports up. *)

let assignment ~job ~attempt = Printf.sprintf "solve %s %d" (Journal.encode_job job) attempt
let quit_payload = "quit"

type report =
  | Solved of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Failed of { attempt : int; error_class : string; transient : bool; backoff : int }
  | Abandoned of { attempt : int }

let report_payload = function
  | Solved { attempt; makespan; budget_used; fuel; cached } ->
      Printf.sprintf "ok %d %d %d %d %d" attempt makespan budget_used fuel (if cached then 1 else 0)
  | Failed { attempt; error_class; transient; backoff } ->
      Printf.sprintf "fail %d %s %d %d" attempt (Journal.encode_job error_class)
        (if transient then 1 else 0)
        backoff
  | Abandoned { attempt } -> Printf.sprintf "abandoned %d" attempt

let parse_report payload =
  let int = int_of_string_opt in
  match String.split_on_char ' ' payload with
  | [ "ok"; a; ms; bu; fu; c ] -> (
      match (int a, int ms, int bu, int fu) with
      | Some attempt, Some makespan, Some budget_used, Some fuel when c = "0" || c = "1" ->
          Some (Solved { attempt; makespan; budget_used; fuel; cached = c = "1" })
      | _ -> None)
  | [ "fail"; a; cls; tr; bo ] -> (
      match (int a, Journal.decode_job cls, int bo) with
      | Some attempt, Some error_class, Some backoff when tr = "0" || tr = "1" ->
          Some (Failed { attempt; error_class; transient = tr = "1"; backoff })
      | _ -> None)
  | [ "abandoned"; a ] -> Option.map (fun attempt -> Abandoned { attempt }) (int a)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* one attempt, settled                                                *)

let run_attempt cfg ~stop ~log ~job ~attempt =
  match Work.attempt cfg ~stop ~log ~job ~attempt with
  | Work.Solved (s, cached) ->
      Solved
        {
          attempt;
          makespan = s.Engine.makespan;
          budget_used = s.Engine.budget_used;
          fuel = s.Engine.fuel_spent;
          cached;
        }
  | Work.Failed { error_class; transient; backoff } ->
      Failed { attempt; error_class; transient; backoff }
  | exception Work.Interrupted -> Abandoned { attempt }

type next = Finished | Retry of int | Replay

let settle ~max_attempts ~attempt = function
  | Some (Solved { makespan; budget_used; fuel; cached; _ }) ->
      (Some (Journal.Done { attempt; makespan; budget_used; fuel; cached }), Finished)
  | Some (Failed { error_class; transient = true; backoff; _ }) when attempt < max_attempts ->
      (Some (Journal.Failed { attempt; error_class; transient = true; backoff }), Retry backoff)
  | Some (Failed { error_class; _ }) ->
      (Some (Journal.Failed { attempt; error_class; transient = false; backoff = 0 }), Finished)
  | Some (Abandoned _) -> (Some (Journal.Abandoned { attempt }), Replay)
  (* a worker that died without reporting leaves its claim unrecorded:
     the attempt is consumed, exactly like a whole-process crash *)
  | None -> (None, Replay)

(* ------------------------------------------------------------------ *)
(* worker side                                                         *)

(* Blocking byte-at-a-time line read; assignments are a few dozen bytes
   and arrive at job granularity, so simplicity beats buffering. This
   is the one read that must NOT go through {!Eintr}'s blind restart:
   the signal that interrupts it is exactly the SIGTERM that set [stop],
   and restarting without the [stop ()] re-check would leave an idle
   worker blocked in [read] until the parent happens to close the pipe.
   A partial line survives the interruption in [buf], so the assignment
   still can't tear. *)
let read_assignment ~stop fd =
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    if stop () then None
    else
      match Unix.read fd byte 0 1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | 0 -> None
      | _ -> if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf) else (Buffer.add_bytes buf byte; go ())
  in
  go ()


(* The worker body run in the forked child: read one assignment, run
   the shared attempt, report the outcome, repeat. Exits with
   [Unix._exit] so the child never unwinds into the parent's at_exit
   handlers or flushes duplicated stdio buffers. *)
let worker_loop (cfg : Work.config) ~from_parent ~to_parent : 'a =
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let log s =
    if cfg.Work.verbose then Printf.eprintf "[worker %d] %s\n%!" (Unix.getpid ()) s
  in
  let reply payload =
    try Frame.write to_parent payload with Unix.Unix_error _ -> stop := true
  in
  let rec loop () =
    if !stop then Unix._exit 0;
    match read_assignment ~stop:(fun () -> !stop) from_parent with
    | None -> Unix._exit 0
    | Some line ->
        (match Option.map (String.split_on_char ' ') (Frame.unframe line) with
        | Some [ "quit" ] -> Unix._exit 0
        | Some [ "solve"; j; a ] -> (
            match (Journal.decode_job j, int_of_string_opt a) with
            | Some job, Some attempt -> (
                let r = run_attempt cfg ~stop:(fun () -> !stop) ~log ~job ~attempt in
                reply (report_payload r);
                match r with Abandoned _ -> Unix._exit 0 | Solved _ | Failed _ -> ())
            | _ -> log "undecodable assignment ignored")
        | Some _ | None -> log "undecodable assignment ignored");
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* parent side: the fleet                                              *)

let now () = Unix.gettimeofday ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | _ -> ()
  in
  go ()

module Fleet = struct
  type worker = {
    pid : int;
    to_w : Unix.file_descr;
    from_w : Unix.file_descr;
    reader : Frame.reader;
    mutable current : (string * int) option;  (* claimed (job, attempt) *)
  }

  type t = {
    cfg : Work.config;
    journal_fd : Unix.file_descr;
    child : unit -> unit;
    record : Journal.event -> string -> unit;
    settled : job:string -> attempt:int -> next -> unit;
    log : string -> unit;
    mutable workers : worker list;  (* spawn order *)
  }

  let create ?(child = ignore) cfg ~journal ~record ~settled ~log =
    { cfg; journal_fd = Journal.fd journal; child; record; settled; log; workers = [] }

  let size f = List.length f.workers
  let busy f = List.exists (fun w -> w.current <> None) f.workers
  let has_idle f = List.exists (fun w -> w.current = None) f.workers
  let fds f = List.map (fun w -> w.from_w) f.workers

  let spawn f =
    let ar, aw = Unix.pipe () (* parent -> worker *) in
    let br, bw = Unix.pipe () (* worker -> parent *) in
    match Unix.fork () with
    | 0 ->
        Unix.close aw;
        Unix.close br;
        List.iter
          (fun w ->
            close_quietly w.to_w;
            close_quietly w.from_w)
          f.workers;
        (* only the parent writes the journal *)
        close_quietly f.journal_fd;
        (* the parent's LP counters (warm-start stats, pivot counts) are
           inherited across fork; zero them so the worker's figures are
           its own *)
        Rtt_lp.Simplex.reset_stats ();
        f.child ();
        worker_loop f.cfg ~from_parent:ar ~to_parent:bw
    | pid ->
        Unix.close ar;
        Unix.close bw;
        f.workers <-
          f.workers @ [ { pid; to_w = aw; from_w = br; reader = Frame.reader (); current = None } ];
        f.log (Printf.sprintf "spawned worker %d" pid)

  (* the one place a claim ends: journal the settle rule's event, then
     hand the next step to the client *)
  let settle_claim f w report =
    match w.current with
    | None -> ()
    | Some (job, attempt) ->
        w.current <- None;
        let event, next = settle ~max_attempts:f.cfg.Work.max_attempts ~attempt report in
        Option.iter (fun e -> f.record e job) event;
        f.settled ~job ~attempt next

  let death f w =
    close_quietly w.to_w;
    close_quietly w.from_w;
    reap w.pid;
    f.workers <- List.filter (fun x -> x.pid <> w.pid) f.workers;
    Option.iter
      (fun (job, attempt) ->
        f.log (Printf.sprintf "worker %d died holding %s (attempt %d)" w.pid job attempt))
      w.current;
    settle_claim f w None

  let on_report f w payload =
    let attempt_of = function
      | Solved { attempt; _ } | Failed { attempt; _ } | Abandoned { attempt } -> attempt
    in
    match (w.current, parse_report payload) with
    | Some (_, attempt), Some r when attempt_of r = attempt -> settle_claim f w (Some r)
    | _ -> f.log (Printf.sprintf "unexpected message %S from worker %d ignored" payload w.pid)

  let readable f fd =
    match List.find_opt (fun w -> w.from_w = fd) f.workers with
    | None -> false
    | Some w ->
        (* {!Eintr.read}: select already reported the fd readable, so a
           restart never blocks and a signal can't tear the report frame *)
        let buf = Bytes.create 4096 in
        (match Eintr.read w.from_w buf 0 4096 with
        | 0 -> death f w
        | n ->
            List.iter
              (function
                | `Frame payload -> on_report f w payload
                | `Corrupt line ->
                    f.log (Printf.sprintf "unframed line from worker %d ignored: %S" w.pid line)
                | `Overflow -> death f w)
              (Frame.feed w.reader (Bytes.sub_string buf 0 n)));
        true

  let wait f timeout =
    let r, _, _ = Eintr.select (fds f) [] [] timeout in
    List.iter (fun fd -> ignore (readable f fd)) r

  let assign f ~job ~attempt =
    match List.find_opt (fun w -> w.current = None) f.workers with
    | None -> invalid_arg "Pool.Fleet.assign: no idle worker"
    | Some w -> (
        w.current <- Some (job, attempt);
        f.record (Journal.Started { attempt }) job;
        f.log (Printf.sprintf "assign %s (attempt %d) to worker %d" job attempt w.pid);
        try Frame.write w.to_w (assignment ~job ~attempt) with Unix.Unix_error _ -> death f w)

  let teardown f ~term ~grace =
    List.iter
      (fun w ->
        if term && w.current <> None then
          try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ()
        else try Frame.write w.to_w quit_payload with Unix.Unix_error _ -> ())
      f.workers;
    let deadline = now () +. grace in
    while busy f && now () < deadline do
      wait f 0.1
    done;
    List.iter
      (fun w ->
        (match w.current with
        | Some (_, attempt) ->
            (* unresponsive after the grace period: record the
               abandonment on its behalf and kill it *)
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            settle_claim f w (Some (Abandoned { attempt }))
        | None -> ());
        close_quietly w.to_w;
        close_quietly w.from_w;
        reap w.pid)
      f.workers;
    f.workers <- []
end

(* ------------------------------------------------------------------ *)
(* the pooled spool drain                                              *)

let drain (cfg : Work.config) ~journal ~(record : Journal.event -> string -> unit)
    ~(jobs : (string * int) list) ~(stop : bool ref) ~(log : string -> unit) =
  let pending = ref jobs in
  let deferred = ref ([] : (float * string * int) list) in
  (* duplicate-instance coalescing: when the cache is on, two jobs with
     the same digest are never in flight together — the second waits
     and is then served from the entry the first published. *)
  let digest_memo : (string, string option) Hashtbl.t = Hashtbl.create 16 in
  let digest_of job =
    match cfg.Work.cache_dir with
    | None -> None
    | Some _ -> (
        match Hashtbl.find_opt digest_memo job with
        | Some d -> d
        | None ->
            let d =
              match Engine.load (Filename.concat cfg.Work.spool job) with
              | Ok p -> Some (Work.digest_of cfg p)
              | Error _ -> None
            in
            Hashtbl.replace digest_memo job d;
            d)
  in
  let inflight_digests : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let requeue job next_attempt =
    if next_attempt > cfg.Work.max_attempts then
      record (Journal.retries_exhausted ~max_attempts:cfg.Work.max_attempts) job
    else pending := !pending @ [ (job, next_attempt) ]
  in
  let settled ~job ~attempt next =
    Option.iter (Hashtbl.remove inflight_digests) (digest_of job);
    match next with
    | Finished -> ()
    | Retry backoff when cfg.Work.sleep ->
        deferred := !deferred @ [ (now () +. (float_of_int backoff /. 1000.), job, attempt + 1) ]
    | Retry _ -> requeue job (attempt + 1)
    (* an externally signalled or killed worker: unless the pool itself
       is shutting down the claim is replayed from its checkpoint *)
    | Replay -> if not !stop then requeue job (attempt + 1)
  in
  let fleet = Fleet.create cfg ~journal ~record ~settled ~log in
  let promote_deferred () =
    let t = now () in
    let ready, still = List.partition (fun (at, _, _) -> at <= t) !deferred in
    deferred := still;
    List.iter (fun (_, job, attempt) -> pending := !pending @ [ (job, attempt) ]) ready
  in
  let assignable (job, _) =
    match digest_of job with None -> true | Some d -> not (Hashtbl.mem inflight_digests d)
  in
  let rec assign () =
    if (not !stop) && Fleet.has_idle fleet then
      match List.find_opt assignable !pending with
      | None -> ()
      | Some ((job, attempt) as pick) ->
          pending := List.filter (fun x -> x != pick) !pending;
          Option.iter (fun d -> Hashtbl.replace inflight_digests d ()) (digest_of job);
          Fleet.assign fleet ~job ~attempt;
          assign ()
  in
  let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      (* in-flight workers are asked to abandon (they checkpoint
         first); idle ones to quit *)
      Fleet.teardown fleet ~term:true ~grace:60.0;
      ignore (Sys.signal Sys.sigpipe saved_pipe))
    (fun () ->
      let width = max 1 (min cfg.Work.workers (List.length jobs)) in
      for _ = 1 to width do
        Fleet.spawn fleet
      done;
      while (not !stop) && (!pending <> [] || !deferred <> [] || Fleet.busy fleet) do
        promote_deferred ();
        assign ();
        if Fleet.size fleet = 0 && (!pending <> [] || !deferred <> []) then Fleet.spawn fleet
        else if Fleet.size fleet > 0 then begin
          let timeout =
            match !deferred with
            | [] -> 0.2
            | ds ->
                let soonest = List.fold_left (fun acc (at, _, _) -> min acc at) infinity ds in
                max 0.01 (min 0.2 (soonest -. now ()))
          in
          Fleet.wait fleet timeout
        end;
        (* replace crashed workers while there is still work to hand out *)
        if
          (not !stop)
          && Fleet.size fleet < width
          && List.length !pending + List.length !deferred > 0
        then Fleet.spawn fleet
      done)
