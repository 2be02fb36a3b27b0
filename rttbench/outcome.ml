(* What one workload run hands back to the command-line front end. *)

type t = {
  attempted : int;  (** Operations tried in the measured phase. *)
  failed : int;  (** Errors, sheds, unanswered requests and wrong answers. *)
  wrong : int;  (** Answers that failed a correctness check (also in [failed]). *)
  setup_s : float list;  (** One set-up time per repetition. *)
  e2e : Report.metric list;  (** End-to-end metrics of an untraced run. *)
  layers : Report.metric list;  (** Per-layer metrics of a traced run. *)
  notes : string list;  (** Extra human-readable lines. *)
}

let error_rate t = if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

(* Time [f] in seconds of wall-clock time. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Time [f] in seconds of this process's CPU time (user plus system,
   from getrusage). The in-process workloads time single-threaded,
   compute-bound calls with it: on an idle core that equals their wall
   time, and it leaves out the time the process waited for a core while
   other processes or the hypervisor ran, which moved wall-clock
   figures by a fifth or more between runs on a shared VM. *)
let cpu_timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Set-ups per run; [setup_s] is their median. *)
let setups = 5

(* The set-ups of an in-process run. The first builds the state the run
   measures; the others are spread over the measured phase, one in each
   later fifth of it, between passes, and are torn down at once. Set-up
   time then samples the host over the whole run, as the timed figures
   do: timed back to back at the start of each run, session-sweep's
   moved twice as much between two sets of runs as its timed figures. *)
type 'a spread = { setup : unit -> 'a; teardown : 'a -> unit; mutable times : float list }

let first_setup ~setup ~teardown =
  let r, dt = cpu_timed setup in
  (r, { setup; teardown; times = [ dt ] })

let once s =
  let r, dt = cpu_timed s.setup in
  s.teardown r;
  s.times <- dt :: s.times

(* Called between passes, with the seconds the measured phase has run. *)
let spread_setup s ~elapsed ~seconds =
  let k = List.length s.times in
  if k < setups && elapsed >= float_of_int k *. seconds /. float_of_int setups then once s

(* Every set-up time of the run, taking any still missing. *)
let setup_times s =
  while List.length s.times < setups do
    once s
  done;
  List.rev s.times

(* Run [setup] [setups] times back to back, keeping the last result and
   every wall-clock duration; serve-open's set-up starts a daemon, so
   it is neither CPU-bound nor spread over the run. Earlier results are
   torn down with [teardown]. *)
let repeat_setup ~setup ~teardown =
  let rec go k times =
    let r, dt = timed setup in
    if k >= setups then (r, List.rev (dt :: times))
    else begin
      teardown r;
      go (k + 1) (dt :: times)
    end
  in
  go 1 []

let ms s = 1000.0 *. s
