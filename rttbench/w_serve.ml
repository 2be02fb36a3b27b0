(* serve-open: a daemon started with Daemon.run in a forked child (one
   shard, one worker, result cache on), driven open loop by this
   process at a fixed rate over at most nproc connections.

   Each arrival is a [submit] followed, once it is accepted, by a
   [wait] for its result. Instances are drawn Zipf-skewed from a seeded
   pool of small exact instances, so a share of the submits repeat an
   earlier one and coalesce onto its job. Latency runs from the time an
   arrival was due, not from when it was sent. Every accepted id must
   be the instance's fingerprint and every result must equal, byte for
   byte, Work.render of an in-process solve of the same instance.

   The traced run also replays the run's submit sequence through the
   service layers' public functions on a scratch spool, one span per
   call, to split a job into parse, fingerprint, journal, cache, solve,
   result write and protocol codec. *)

open Rtt_core
open Rtt_engine
open Rtt_service
open Rtt_net

let rate = 50.0 (* arrivals per second: 20 s give 1000 samples *)
let pool_size = 4000
let zipf_s = 0.6 (* about a quarter of 1000 draws repeat an earlier one *)
let budget = 3
let warmups = 16
let grace = 15.0 (* seconds to wait for stragglers after the last arrival *)

type instance = { body : string; id : string; rendered : string }

let service_config ~spool ~cache =
  {
    (Supervisor.default_config ~spool) with
    Work.budget;
    workers = 1;
    sleep = false;
    cache_dir = Some cache;
  }

(* Pool item [k] of seed [seed]: a small exact instance, an
   Erdos-Renyi step-duration DAG with n 9-11 whose solve fits in
   [pool_fuel] ticks, so no single job stalls the one worker for long.
   Only the text is kept before the run. *)
let pool_fuel = 2000

let body ~seed k =
  let rng = Random.State.make [| seed; 3; k |] in
  let rec go () =
    let n = 9 + Random.State.int rng 3 in
    let text = Io.to_string (Inst.er_step rng ~n ~edge_prob:0.4 ~max_steps:2) in
    match Engine.load_string text with
    | Ok p when Result.is_ok (Engine.solve ~fuel:pool_fuel p ~budget) -> text
    | _ -> go ()
  in
  go ()

(* The reference for one body: its fingerprint and the answer text of
   an in-process solve of the same text the daemon parses. *)
let reference cfg body =
  match Engine.load_string body with
  | Error e -> failwith (Error.to_string e)
  | Ok p -> (
      match Engine.solve ~policy:cfg.Work.policy ~alpha:Work.alpha p ~budget with
      | Error e -> failwith (Error.to_string e)
      | Ok s -> { body; id = Work.digest_of cfg p; rendered = Work.render p s })

type daemon = {
  dir : string;
  pid : int;
  conns : Client.t array;
  items : int array;  (** The pool item of each arrival, Zipf-drawn. *)
  bodies : (int, string) Hashtbl.t;  (** Instance text of every drawn item. *)
  cfg : Work.config;
}

let must_ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ Client.error_to_string e)

let connect endpoint =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Client.connect endpoint with
    | Ok c -> c
    | Error e ->
        if Unix.gettimeofday () > deadline then failwith ("connect: " ^ Client.error_to_string e);
        Unix.sleepf 0.005;
        go ()
  in
  go ()

(* One round trip, for set-up only. *)
let submit_and_wait c (x : instance) =
  let id =
    match must_ok "submit" (Client.request c (Protocol.Submit { name = "warmup"; body = x.body })) with
    | Protocol.Accepted { id } -> id
    | _ -> failwith "warm-up submit was not accepted"
  in
  match must_ok "wait" (Client.request c (Protocol.Wait { id })) with
  | Protocol.Result { rendered; _ } when id = x.id && rendered = x.rendered -> ()
  | _ -> failwith "warm-up result differs from the in-process answer"

let nconns () =
  let n = try Domain.recommended_domain_count () with _ -> 1 in
  max 1 (min 2 n)

let stop_daemon d =
  Array.iter (fun c -> try Client.close c with _ -> ()) d.conns;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] d.pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
    | _ -> ()
  in
  reap ();
  Files.rm_rf d.dir

let arrivals_in seconds = int_of_float (Float.round (rate *. seconds))

let start ~base ~seed ~seconds k () =
  let dir = Filename.concat base (Printf.sprintf "serve-%d" k) in
  Files.rm_rf dir;
  let spool = Filename.concat dir "spool" in
  Files.mkdir_p spool;
  let cfg = service_config ~spool ~cache:(Filename.concat dir "cache") in
  let socket_path = Filename.concat dir "d.sock" in
  let dcfg = { (Daemon.default_config ~spool ~socket_path) with Daemon.service = cfg; queue_capacity = 256 } in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code = try Daemon.run dcfg with _ -> 99 in
      Unix._exit code
  | pid -> (
      try
        let zipf = Zipf.make ~n:pool_size ~s:zipf_s in
        let rng = Random.State.make [| seed; 5 |] in
        let items = Array.init (arrivals_in seconds) (fun _ -> Zipf.draw zipf rng) in
        let bodies = Hashtbl.create 2048 in
        Array.iter (fun k -> if not (Hashtbl.mem bodies k) then Hashtbl.add bodies k (body ~seed k)) items;
        (* warm-up: items past the pool, so none of them is drawn later *)
        let conns = Array.init (nconns ()) (fun _ -> connect (Client.Unix_socket socket_path)) in
        for i = 0 to warmups - 1 do
          submit_and_wait conns.(i mod Array.length conns) (reference cfg (body ~seed (pool_size + i)))
        done;
        { dir; pid; conns; items; bodies; cfg }
      with e ->
        stop_daemon { dir; pid; conns = [||]; items = [||]; bodies = Hashtbl.create 1; cfg };
        raise e)

(* ------------------------------------------------------------------ *)
(* the open-loop driver                                                *)

type arrival = {
  item : int;  (** Pool index. *)
  due : float;
  conn : int;
  mutable acked : float;
  mutable done_ : float;
  mutable traced : bool;
  mutable got_id : string;
  mutable got : string;  (** The result frame's text. *)
}

type conn_state = { submits : int Queue.t; waiters : (string, int Queue.t) Hashtbl.t }

type loop_result = { arrivals : arrival array; late : Stats.buf; dups : int }

let drive d ~trace =
  let total = Array.length d.items in
  let nc = Array.length d.conns in
  let start = Unix.gettimeofday () +. 0.05 in
  let pacer = Pacer.make ~start ~rate ~total in
  let arrivals =
    Array.init total (fun i ->
        {
          item = d.items.(i);
          due = Pacer.due pacer i;
          conn = i mod nc;
          acked = 0.0;
          done_ = 0.0;
          traced = false;
          got_id = "";
          got = "";
        })
  in
  let cs = Array.init nc (fun _ -> { submits = Queue.create (); waiters = Hashtbl.create 64 }) in
  let outstanding = ref 0 and dups = ref 0 in
  let seen = Hashtbl.create 256 in
  let dead = ref false in
  let fail_conn () = dead := true in
  let send i _due =
    let a = arrivals.(i) in
    (* tracing is on in every other second of a traced run *)
    a.traced <- trace && int_of_float (a.due -. start) mod 2 = 1;
    Trace.on := a.traced;
    let body = Hashtbl.find d.bodies a.item in
    match Trace.span ~req:i "client.submit" (fun () -> Client.send d.conns.(a.conn) (Protocol.Submit { name = "b"; body })) with
    | Ok () ->
        Queue.push i cs.(a.conn).submits;
        incr outstanding
    | Error _ -> fail_conn ()
  in
  let on_response k now = function
    | Protocol.Accepted { id } -> (
        match Queue.take_opt cs.(k).submits with
        | None -> fail_conn ()
        | Some i -> (
            let a = arrivals.(i) in
            a.acked <- now;
            a.got_id <- id;
            if Hashtbl.mem seen id then incr dups else Hashtbl.add seen id ();
            Trace.on := a.traced;
            match Trace.span ~req:i "client.wait" (fun () -> Client.send d.conns.(k) (Protocol.Wait { id })) with
            | Ok () ->
                let q =
                  match Hashtbl.find_opt cs.(k).waiters id with
                  | Some q -> q
                  | None ->
                      let q = Queue.create () in
                      Hashtbl.add cs.(k).waiters id q;
                      q
                in
                Queue.push i q
            | Error _ -> fail_conn ()))
    | Protocol.Shed _ | Protocol.Errored _ -> (
        match Queue.take_opt cs.(k).submits with
        | Some _ -> decr outstanding
        | None -> fail_conn ())
    | Protocol.Result { id; rendered } -> (
        match Option.bind (Hashtbl.find_opt cs.(k).waiters id) Queue.take_opt with
        | None -> fail_conn ()
        | Some i ->
            let a = arrivals.(i) in
            a.done_ <- now;
            a.got <- rendered;
            decr outstanding)
    | Protocol.Failed { id; _ } -> (
        match Option.bind (Hashtbl.find_opt cs.(k).waiters id) Queue.take_opt with
        | Some _ -> decr outstanding
        | None -> fail_conn ())
    | _ -> fail_conn ()
  in
  (* hand every buffered response to [on_response]; [wait_s] > 0 also
     reads what the socket has *)
  let drain k wait_s =
    let rec go deadline =
      match Client.recv ~deadline d.conns.(k) with
      | Ok resp ->
          on_response k (Unix.gettimeofday ()) resp;
          go 0.0
      | Error Client.Timeout -> ()
      | Error _ -> fail_conn ()
    in
    go (if wait_s > 0.0 then Unix.gettimeofday () +. wait_s else 0.0)
  in
  let fds = Array.to_list (Array.map Client.fd d.conns) in
  let stop_at = Pacer.due pacer total +. grace in
  while (not !dead) && ((not (Pacer.finished pacer)) || !outstanding > 0) && Unix.gettimeofday () < stop_at do
    Pacer.release pacer ~now:(Unix.gettimeofday ()) ~send;
    Trace.on := false;
    let timeout = Pacer.timeout pacer ~now:(Unix.gettimeofday ()) ~cap:0.05 in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        Array.iteri (fun k c -> if List.mem (Client.fd c) ready then drain k 0.0005) d.conns
  done;
  Trace.on := false;
  { arrivals; late = pacer.Pacer.late; dups = !dups }

(* After the run, outside any timing: an arrival without a result
   (shed, refused, failed or never answered) failed; so did one whose
   id is not its instance's fingerprint or whose result differs from
   the in-process answer. *)
let verify d (r : loop_result) =
  let refs = Hashtbl.create 2048 in
  Hashtbl.iter (fun k b -> Hashtbl.add refs k (reference d.cfg b)) d.bodies;
  let failed = ref 0 and wrong = ref 0 in
  Array.iter
    (fun a ->
      let x = Hashtbl.find refs a.item in
      if a.done_ = 0.0 then incr failed
      else if a.got_id <> x.id || a.got <> x.rendered then begin
        incr failed;
        incr wrong
      end)
    r.arrivals;
  (refs, !failed, !wrong)

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace =
  let base = Files.run_dir () in
  Files.mkdir_p base;
  let k = ref 0 in
  let d, setup_s =
    Outcome.repeat_setup
      ~setup:(fun () ->
        incr k;
        start ~base ~seed ~seconds !k ())
      ~teardown:stop_daemon
  in
  let r, rss =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let r = drive d ~trace in
        (r, Rss.tree_peak_mb d.pid +. Rss.self_peak_mb ()))
  in
  let completes = Stats.buf () and acks = Stats.buf () in
  let traced_c = Stats.buf () and plain_c = Stats.buf () in
  let last = ref 0.0 in
  Array.iter
    (fun a ->
      if a.done_ > 0.0 then begin
        Stats.add completes (a.done_ -. a.due);
        Stats.add (if a.traced then traced_c else plain_c) (a.done_ -. a.due);
        last := Float.max !last a.done_
      end;
      if a.acked > 0.0 then Stats.add acks (a.acked -. a.due))
    r.arrivals;
  let c = Stats.summarize completes and ak = Stats.summarize acks in
  let n = Array.length r.arrivals in
  let first_due = if n = 0 then 0.0 else r.arrivals.(0).due in
  let e2e =
    [
      Report.m "answers_per_s" "1/s" (float_of_int c.Stats.n /. Float.max 1e-9 (!last -. first_due));
      Report.m "answer_p50_ms" "ms" (Outcome.ms c.Stats.p50);
      Report.m "answer_p99_ms" "ms" (Outcome.ms c.Stats.p99);
    ]
  in
  let late = Stats.summarize r.late in
  let refs, failed, wrong = verify d r in
  let replay_ok, layers =
    if not trace then (true, [])
    else begin
      let reqs =
        Array.map
          (fun (a : arrival) ->
            let x = Hashtbl.find refs a.item in
            { Replay.body = x.body; budget; policy = d.cfg.Work.policy; rendered = Some x.rendered })
          r.arrivals
      in
      let ok, solve_ms, service = Replay.run ~dir:base reqs in
      let median b = Stats.percentile_sorted (Stats.sorted_of b) 50.0 in
      ( ok,
        service
        @ [
          Report.m "engine.solve.ms" "ms" solve_ms;
          Report.m "serve.complete_p50_ms" "ms" (Outcome.ms c.Stats.p50);
          Report.m "serve.complete_p99_ms" "ms" (Outcome.ms c.Stats.p99);
          Report.m "serve.ack_p50_ms" "ms" (Outcome.ms ak.Stats.p50);
          Report.m "serve.ack_p99_ms" "ms" (Outcome.ms ak.Stats.p99);
          Report.m "serve.dup_share" "ratio" (float_of_int r.dups /. float_of_int (max 1 n));
          Report.m "gen.late_p99_ms" "ms" (Outcome.ms late.Stats.p99);
          Report.m "trace.overhead_pct" "%" (100.0 *. ((median traced_c /. median plain_c) -. 1.0));
        ] )
    end
  in
  Files.rm_rf base;
  let failed = failed + if replay_ok then 0 else 1 in
  ( {
      Outcome.attempted = n;
      failed;
      wrong = (wrong + if replay_ok then 0 else 1);
      setup_s;
      e2e;
      layers;
      notes =
        [
          Printf.sprintf "rate %.0f/s over %d connection(s), %d arrivals, %d answered (%d beyond p99), %d duplicate submits" rate
            (Array.length d.conns) n c.Stats.n (Stats.beyond c.Stats.n 99.0) r.dups;
          Printf.sprintf "ack p50 %.3f ms p99 %.3f ms; generator late p50 %.3f ms p99 %.3f ms" (Outcome.ms ak.Stats.p50)
            (Outcome.ms ak.Stats.p99) (Outcome.ms late.Stats.p50) (Outcome.ms late.Stats.p99);
        ];
    },
    rss )
