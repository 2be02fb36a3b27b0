(** The one place job attempts are run and settled, for both
    [rtt serve] and [rtt daemon].

    {!settle} is the retry policy: it turns one attempt's {!report}
    into its journal event and the next step. The sequential
    [--workers 1] drain calls it on an in-process {!run_attempt};
    forked workers run the same {!run_attempt} and the {!Fleet} parent
    settles their reports through the same rule.

    The {!Fleet} owns the forked workers: spawn, assignment over a
    framed pipe protocol, death, the report reader, reap and teardown.
    {!drain} ([rtt serve --workers N]) and the network daemon are its
    two clients; each keeps only its own queueing — the drain's backoff
    schedule and digest coalescing, the daemon's admission queue.

    Exactly-once is inherited from the journal discipline, not from the
    pipes: the fleet records [Started] when it hands a job to a worker
    and a terminal event only when the worker reports back. A worker
    that dies mid-solve (SIGKILL, crash) leaves a claim with no
    terminal record, exactly like a whole-process crash of the
    sequential supervisor, so the claim is replayed — attempt consumed,
    resumed from the last checkpoint — and never double-reported.

    When the configuration has a cache directory, {!drain} never has
    two jobs with the same {!Rtt_engine.Fingerprint} digest in flight
    concurrently: the first occupant solves and publishes the entry,
    later ones are served from the cache. *)

(** {1 Settling one attempt} *)

type report =
  | Solved of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Failed of { attempt : int; error_class : string; transient : bool; backoff : int }
  | Abandoned of { attempt : int }
      (** The attempt checkpointed and gave the job back (shutdown). *)

val run_attempt :
  Work.config -> stop:(unit -> bool) -> log:(string -> unit) -> job:string -> attempt:int -> report
(** {!Work.attempt} as a report: an interrupted attempt
    ({!Work.Interrupted}) is [Abandoned]. Run in process by the
    sequential drain and in every forked worker. *)

type next =
  | Finished  (** The job is terminal (done or failed permanently). *)
  | Retry of int
      (** Transient failure with attempts left: run the next attempt,
          after this many backoff units if the client sleeps. *)
  | Replay
      (** The claim was abandoned or its worker died: the next attempt
          resumes from the checkpoint, unless the client is shutting
          down. *)

val settle :
  max_attempts:int -> attempt:int -> report option -> Journal.event option * next
(** The retry policy. [None] is a worker that died without reporting:
    no event (the journal keeps the claim as [Running]) and [Replay].
    A transient failure is retried only below [max_attempts]; at it,
    and for any permanent failure, the job ends with a permanent
    [Failed] carrying backoff 0. *)

(** {1 The worker fleet} *)

module Fleet : sig
  type t

  val create :
    ?child:(unit -> unit) ->
    Work.config ->
    journal:Journal.t ->
    record:(Journal.event -> string -> unit) ->
    settled:(job:string -> attempt:int -> next -> unit) ->
    log:(string -> unit) ->
    t
  (** An empty fleet. [record] journals an event (the fleet's owner is
      the only journal writer). After a claim is settled and its event
      recorded, [settled] tells the client what happens next.
      [child] runs in each freshly forked worker before it starts
      serving, after the fleet has closed the other workers' pipes and
      the [journal] descriptor and zeroed the LP counters — the hook
      a client uses to close descriptors of its own. *)

  val spawn : t -> unit
  (** Fork one worker. The caller must ignore SIGPIPE while the fleet
      is live. *)

  val size : t -> int

  val busy : t -> bool
  (** Some worker holds a claim. *)

  val has_idle : t -> bool

  val assign : t -> job:string -> attempt:int -> unit
  (** Claim [attempt] of [job] on the first idle worker: record
      [Started], then send the assignment.
      @raise Invalid_argument when no worker is idle. *)

  val fds : t -> Unix.file_descr list
  (** The report pipes, for the client's [select]. *)

  val readable : t -> Unix.file_descr -> bool
  (** Handle a readable report pipe: settle any complete reports, or
      the worker's death on EOF or an overlong line. [false] when [fd]
      is not one of the fleet's. *)

  val wait : t -> float -> unit
  (** [select] on {!fds} for up to the timeout, then {!readable}. *)

  val teardown : t -> term:bool -> grace:float -> unit
  (** Stop every worker: idle ones are sent [quit]; busy ones SIGTERM
      when [term] (they checkpoint and report [Abandoned]), otherwise
      [quit] after their current job. Reports keep being settled for up
      to [grace] seconds; a worker still busy after that has
      [Abandoned] recorded on its behalf and is SIGKILLed. All workers
      are reaped. *)
end

(** {1 The pooled spool drain} *)

val drain :
  Work.config ->
  journal:Journal.t ->
  record:(Journal.event -> string -> unit) ->
  jobs:(string * int) list ->
  stop:bool ref ->
  log:(string -> unit) ->
  unit
(** Drain [jobs] — [(job, next_attempt)] pairs in admission order —
    across [config.workers] forked workers. Transient failures wait
    out their backoff (when [config.sleep]) without holding a worker.
    Returns when the spool is drained or [stop] has turned true; on
    stop, in-flight workers are signalled, given a grace period to
    checkpoint and abandon, then reaped. *)
