(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names; README.md says what each one means. *)

let workloads = [ "exact-bnb"; "lp-large"; "serve-open"; "session-sweep" ]

(* The workloads BENCHMARK.json lists; README.md says why serve-open is
   not one of them. *)
let gated = [ "exact-bnb"; "lp-large"; "session-sweep" ]

(* Reported by an untraced run (--trace 0). *)
let end_to_end =
  [
    ("answers_per_s", "1/s");
    ("answer_p50_ms", "ms");
    ("answer_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Reported by a traced run (--trace 1). A layer a workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("engine.solve.ms", "ms");
    ("core.exact.ms", "ms");
    ("core.exact.ticks", "count");
    ("core.transform.ms", "ms");
    ("core.lp_relax.ms", "ms");
    ("core.rounding.ms", "ms");
    ("core.schedule.min_budget.ms", "ms");
    ("engine.validate.ms", "ms");
    ("engine.other.ms", "ms");
    ("lp.simplex.pivots", "count");
    ("lp.simplex.refactors", "count");
    ("lp.simplex.etas", "count");
    ("lp.simplex.nnz", "count");
    ("lp.warm.accepted", "count");
    ("lp.warm.rejected", "count");
    ("lp.warm.accept_ratio", "ratio");
    ("core.io.parse.ms", "ms");
    ("engine.fingerprint.ms", "ms");
    ("engine.cache.lookup.ms", "ms");
    ("engine.cache.store.ms", "ms");
    ("engine.cache.hit_ratio", "ratio");
    ("service.work.write_result.ms", "ms");
    ("service.journal.append.ms", "ms");
    ("net.protocol.codec.us", "us");
    ("serve.complete_p50_ms", "ms");
    ("serve.complete_p99_ms", "ms");
    ("serve.ack_p50_ms", "ms");
    ("serve.ack_p99_ms", "ms");
    ("serve.dup_share", "ratio");
    ("gen.late_p99_ms", "ms");
    ("session.mutate_p50_ms", "ms");
    ("session.mutate_p99_ms", "ms");
    ("session.warm_fuel", "count");
    ("session.cold_fuel", "count");
    ("session.warm_share", "ratio");
    ("trace.overhead_pct", "%");
    ("error_rate", "ratio");
  ]

(* The name the issue gives an end-to-end metric on one workload,
   printed next to the shared name. *)
let alias ~workload name =
  let op =
    match workload with
    | "serve-open" -> "complete"
    | "session-sweep" -> "resolve"
    | _ -> "solve"
  in
  match name with
  | "answers_per_s" -> Some (op ^ "s_per_s")
  | "answer_p50_ms" -> Some (op ^ "_p50_ms")
  | "answer_p99_ms" -> Some (op ^ "_p99_ms")
  | _ -> None
