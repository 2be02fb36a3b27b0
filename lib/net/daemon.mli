(** The network daemon: the batch service behind a socket.

    [run] listens on a Unix-domain socket (and optionally TCP), speaks
    the {!Protocol} over {!Rtt_service.Frame}d lines, and bridges
    accepted submissions into the same spool + journal + worker + cache
    machinery as [rtt serve] — a submission becomes a spool instance
    file named [<digest>.rtt] plus a journaled [Queued] record
    {e before} the client hears [accepted], so an accepted job survives
    a daemon [kill -9] and is adopted (and solved) by the next daemon
    started on the same spool. Duplicate submissions coalesce onto one
    job by construction: the job id {e is} the instance's
    {!Rtt_engine.Fingerprint} digest.

    Concurrency is a single-threaded [select] loop over the listeners,
    the client connections, and the pipes of forked workers — the
    workers are {!Rtt_service.Pool.Fleet} workers, the same ones
    [rtt serve --workers N] runs, and their attempts are settled by the
    pool's one retry rule ({!Rtt_service.Pool.settle}); the daemon
    process is the sole journal writer, so exactly-once and
    claim-replay are inherited from the pool's discipline, not
    re-implemented.

    Admission is bounded ({!Admission}): a submission past capacity is
    answered [shed <retry-after-ms>], never queued unboundedly and
    never silently dropped. Per-connection defenses: a read deadline
    ([idle_timeout], connections with unanswered waits are exempt) and
    a maximum frame size ([max_frame], an overlong line poisons only
    that connection).

    Shutdown: the first SIGTERM/SIGINT starts a drain — no new
    submissions (they shed), the admitted backlog finishes, in-flight
    clients get their answers, then exit with
    {!Rtt_service.Supervisor.drained_exit_code} (or
    [failed_jobs_exit_code] if any job died). A second signal forces:
    workers are told to checkpoint and abandon, and the exit code is
    {!Rtt_service.Supervisor.shutdown_exit_code}. *)

type config = {
  service : Rtt_service.Work.config;
      (** Spool, budget, policy, workers, cache — exactly [rtt serve]'s
          knobs; the daemon is the same service with a socket in
          front. *)
  socket_path : string;  (** Unix-domain listening socket. *)
  tcp : (string * int) option;  (** Optional additional TCP listener. *)
  queue_capacity : int;  (** Admission bound (queued + in flight). *)
  max_frame : int;  (** Per-connection inbound line limit, bytes. *)
  idle_timeout : float;  (** Read deadline, seconds. *)
  sync_replicas : int;
      (** Hold each [submit]'s accepted reply until this many followers
          have durably applied its [Queued] record; [0] (the default)
          acknowledges as soon as the local journal append returns.
          Incompatible with [shards > 1]. *)
  shards : int;
      (** Fork this many acceptor shards over the shared listening
          socket(s). [1] (the default) keeps the flat single-process
          topology. See {!section-sharding}. *)
}

val default_config : spool:string -> socket_path:string -> config
(** [rtt serve] service defaults; no TCP, capacity 64, 16 MiB frames,
    30 s read deadline, [sync_replicas = 0], [shards = 1]. *)

(** {1:sharding Sharding}

    With [shards = N > 1], [run] binds the listener(s) once, forks [N]
    shard processes that inherit the shared descriptors (the kernel
    distributes accepts among them), and supervises: SIGTERM/SIGINT are
    forwarded to every shard, children are reaped, and the exit code is
    the worst child verdict. Each shard is a complete daemon over its
    own sub-spool [<spool>/shard-<k>/] — own journal, own workers, own
    admission queue — so the single-writer discipline (and with it
    exactly-once) is preserved per shard.

    Jobs are partitioned by {!shard_of_id} over the instance
    fingerprint, so duplicate submissions still coalesce fleet-wide: a
    request that arrives at a non-owner shard is relayed over a
    persistent internal link ([<socket_path>.shard<k>]) to the owner
    and the response relayed back; the accept-side shard never touches
    the job's journal. Sheds are answered with a fleet-wide retry hint
    ({!Admission.aggregate} over per-shard stat files in the root
    spool). A sharded daemon refuses [repl.hello] ([bad-role]):
    replication composes with [shards = 1] only. *)

val shard_of_id : shards:int -> string -> int
(** The shard that owns a job id: deterministic, stable across
    processes (leading fingerprint hex, with a polynomial-hash fallback
    for ids that are not hex). [shard_of_id ~shards:1 id = 0]. *)

(** {1 Replication}

    Followers ([rtt replica], {!Standby}) connect to either listener
    and send [repl.hello]; from then on every committed journal record
    is forwarded to them as a verbatim [repl.frame] (preceded by the
    instance/result/cache attachments it references), and their
    [repl.ack] watermarks are tracked per connection. [stats] exposes
    the per-follower sent/acked watermarks and lag as JSON — this is
    what [rtt status] with no job id prints. *)

val run : config -> int
(** Serve until signalled. Returns an exit code (see above); the
    listening socket file is removed on the way out. *)

val listen_unix : string -> Unix.file_descr
(** Bind + listen (non-blocking) on a Unix-domain socket path,
    evicting a stale socket file only after probing that no live
    daemon answers on it. Shared with {!Standby}'s local listener.
    @raise Failure if a live daemon already listens there. *)

val listen_tcp : string * int -> Unix.file_descr
