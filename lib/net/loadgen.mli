(** Load generator for the daemon — the engine behind [rtt loadgen].

    Drives [clients] concurrent pipelined connections from one
    single-threaded select loop (the generator must be cheaper than the
    thing it measures). Two arrival disciplines:

    - {b open loop} ([rate > 0]): job [k] is due at [t0 + k/rate],
      round-robin over the connections, and the schedule does {e not}
      slow down when the daemon does — latency under a fixed offered
      load is exactly what an SLO speaks about, and closed-loop
      generators famously hide it (coordinated omission).
    - {b saturation} ([rate = 0]): every connection is kept topped up
      to [depth] in-flight submits, measuring peak throughput.

    Latencies are measured from each submit's {e scheduled} time to its
    ack and recorded in an HDR-style histogram (log-spaced octaves of
    linear sub-buckets, ~12% relative precision, no per-sample
    storage); samples before [warmup] elapses are discarded. Sheds and
    errors are counted per class, never silently dropped. *)

type config = {
  endpoint : Client.endpoint;
  clients : int;  (** Concurrent connections. *)
  rate : float;  (** Fleet-wide jobs/sec; [0.] = saturation mode. *)
  depth : int;  (** Per-connection in-flight bound (saturation mode). *)
  duration : float;  (** Measured seconds, after warmup. *)
  warmup : float;  (** Leading seconds excluded from the statistics. *)
  bodies : string array;  (** Instance texts, cycled round-robin. *)
}

type report = {
  clients : int;
  rate : float;
  duration_s : float;
  wall_s : float;  (** Measured-window wall clock actually covered. *)
  sent : int;
  acked : int;
  shed : int;
  errors : int;
  jobs_per_sec : float;  (** Measured responses over [wall_s]. *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  histogram : (float * int) list;
      (** Occupied buckets only: (upper bound in ms, count). *)
}

val run : config -> (report, string) result
(** Run one generation; blocks for [warmup + duration] plus up to 10 s
    of drain grace for still-unanswered submits (those count as
    errors). [Error] only on setup failure (connect refused, empty
    body set). *)

val select_timeout : now:float -> next_due:float -> stop:float -> float
(** How long the generator's [select] may wait at [now]: until the
    next scheduled arrival [next_due] ([infinity] in saturation mode)
    or the end of sending [stop], whichever is first, capped at 50 ms
    (the cap alone once sending has stopped), never negative. *)

val to_json : report -> string
(** One-line JSON ([rtt-loadgen/1] schema) — what
    [scripts/loadgen_gate.sh] parses and [BENCH_LOADGEN.json]
    stores. *)
