(** Write-ahead job journal: the supervisor's single source of truth.

    The job-event codec over a {!Wal}: append-only, one CRC-framed
    record per line, fsync'd before {!append} returns — so a [kill -9]
    at any instruction leaves a journal whose committed prefix is
    exactly the set of events that were durably acknowledged. Replay
    ({!replay}) returns that prefix and drops a torn or CRC-corrupt
    tail (and anything after it) instead of failing: an interrupted
    append is indistinguishable from an append that never happened,
    which is the correct recovery semantics for a WAL. Replay and
    {!seal} share the {!Wal.scan}, so what replay counts is exactly
    what the next open keeps.

    The derived job state ({!fold}/{!apply}) is a pure left fold, so
    replaying any prefix of a journal and then the rest yields the same
    state map as one replay — the idempotence property the test suite
    checks. *)

type event =
  | Queued  (** The job was discovered in the spool. *)
  | Started of { attempt : int }  (** Attempt [attempt] (1-based) claimed the job. *)
  | Done of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
      (** The attempt produced a validated answer; recorded once, ever.
          [cached] marks a result served from the content-addressed
          cache instead of a solve ([fuel] is then 0). Journals written
          before the cache existed replay with [cached = false]. *)
  | Failed of { attempt : int; error_class : string; transient : bool; backoff : int }
      (** The attempt failed. [transient] means the supervisor will
          retry after [backoff] backoff units; permanent failures end
          the job. *)
  | Abandoned of { attempt : int }
      (** Graceful shutdown interrupted the attempt; the job resumes
          from its checkpoint on the next run. *)

type record = { job : string; event : event }

(** {1 Durable log} *)

type t
(** An open journal handle (append mode). *)

val path : spool:string -> string
(** [spool ^ "/journal.log"]. *)

val open_ : spool:string -> t
(** Open (creating if absent) the spool's journal for appending. Seals
    first ({!seal}): a torn final line left by a crash is truncated
    away so the next append starts on a newline boundary rather than
    corrupting itself against the torn tail. *)

val append : t -> record -> unit
(** Frame, CRC, write and fsync one record. When [append] returns, the
    record survives a crash. *)

val append_line : t -> string -> unit
(** Append one already-framed line (no trailing newline) verbatim,
    then fsync. Used by replication followers so a replayed journal is
    byte-for-byte the primary's — re-encoding could differ if the wire
    format ever grows alternate spellings. The line is not validated;
    callers decode before appending. *)

val scan : spool:string -> record Wal.scan
(** One read of the journal, split at its committed prefix
    ({!Wal.scan}). [lines] is the stream a primary ships to followers,
    and a follower's durable watermark is [List.length lines]. *)

val seal : spool:string -> int
(** Truncate the journal to its committed prefix ({!scan}) and
    fsync; returns the number of committed records. A missing journal
    seals to 0 records. Promotion calls this to fsync-seal a follower's
    tail before replaying claims. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The underlying descriptor — exposed so a forked child (pool or
    daemon worker) can close its inherited copy; only the owning
    process may write. *)

val replay : spool:string -> record list
(** The journal's committed records, in append order: exactly the
    records {!seal} keeps. A missing journal is an empty one. A record
    that fails CRC or framing, or lost its newline, ends the prefix: it
    and everything after it are dropped. *)

(** {1 Derived job state} *)

type status =
  | Pending of { attempts : int }
      (** Awaiting (re)execution; [attempts] already consumed. *)
  | Running of { attempt : int }
      (** A [Started] with no terminal event — in-flight, or the
          previous process crashed mid-attempt. *)
  | Interrupted of { attempt : int }  (** Abandoned by a graceful shutdown. *)
  | Completed of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Dead of { attempts : int; error_class : string }
      (** Permanently failed (bad instance, or retries exhausted). *)

val apply : (string * status) list -> record -> (string * status) list
(** One state-machine step; unknown jobs are inserted in encounter
    order. *)

val fold : record list -> (string * status) list
(** [List.fold_left apply []]. *)

val next_attempt : status option -> int option
(** The attempt a job runs next, judged from its status ([None]: not
    yet journaled): [None] once it is [Completed] or [Dead]. A
    [Running] status seen by a fresh owner is a crashed attempt and
    recovers like an [Interrupted] one — the attempt is consumed and
    the job resumes from its checkpoint. Callers compare the result
    with [max_attempts] and journal {!retries_exhausted} past it. *)

val retries_exhausted : max_attempts:int -> event
(** The permanent [Failed] that ends a job whose next attempt would
    exceed [max_attempts] (error class [retries-exhausted]). *)

val status_name : status -> string
val pp_status : Format.formatter -> status -> unit

(** {1 Wire format (exposed for tests)} *)

val encode : record -> string
(** One framed line, without the trailing newline. *)

val decode : string -> record option
(** [None] on bad CRC or framing. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string, as used by the framing.
    Alias of {!Frame.crc32}. *)

val encode_job : string -> string
(** Percent-encode a job name so it survives space-separated framing
    (also used by the worker-pool wire protocol). Alias of
    {!Frame.escape}. *)

val decode_job : string -> string option
