(* The rtt benchmark. One run of one workload:

     rttbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   prints a line per metric and, as its last line, one JSON object with
   the keys correct, attempted, failed and metrics. --trace 0 reports
   the end-to-end metrics, --trace 1 the per-layer metrics. See
   README.md in this directory for the workloads and metrics. *)

let usage () =
  prerr_endline
    "usage: rttbench --workload <exact-bnb|lp-large|serve-open|session-sweep> --seed <n> --seconds <s> --trace <0|1>";
  exit 2

(* exact-bnb's traced run ends with a traced serve-open run, so the
   daemon, client and service layers are measured on a listed
   workload: its per-layer metrics that exact-bnb does not report
   itself are added, and its operations count in attempted and
   failed. *)
let with_serve (o : Outcome.t) (s : Outcome.t) =
  let own (x : Report.metric) = List.exists (fun (y : Report.metric) -> y.Report.name = x.Report.name) o.Outcome.layers in
  {
    o with
    Outcome.attempted = o.Outcome.attempted + s.Outcome.attempted;
    failed = o.Outcome.failed + s.Outcome.failed;
    wrong = o.Outcome.wrong + s.Outcome.wrong;
    layers = o.Outcome.layers @ List.filter (fun x -> not (own x)) s.Outcome.layers;
    notes = o.Outcome.notes @ List.map (fun n -> "serve-open: " ^ n) s.Outcome.notes;
  }

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let wl = !workload in
  if not (List.mem wl Catalogue.workloads) then usage ();
  (* the peak RSS is read once the workload has run, and before
     exact-bnb's serve-open phase *)
  let in_process o = (o, Rss.self_peak_mb ()) in
  let o, rss =
    match wl with
    | "exact-bnb" ->
        let o, rss = in_process (W_inproc.run W_inproc.Exact_bnb ~seed ~seconds ~trace) in
        ((if trace then with_serve o (fst (W_serve.run ~seed ~seconds ~trace)) else o), rss)
    | "lp-large" -> in_process (W_inproc.run W_inproc.Lp_large ~seed ~seconds ~trace)
    | "serve-open" -> W_serve.run ~seed ~seconds ~trace
    | _ -> in_process (W_session.run ~seed ~seconds ~trace)
  in
  let setup_median = Stats.median_of o.Outcome.setup_s in
  let err = Outcome.error_rate o in
  let e2e = o.Outcome.e2e @ [ Report.m "setup_s" "s" setup_median; Report.m "peak_rss_mb" "MB" rss ] in
  let layers = o.Outcome.layers @ [ Report.m "error_rate" "ratio" err ] in
  let tag = if trace then "traced" else "e2e" in
  List.iter print_endline o.Outcome.notes;
  Printf.printf "%-14s %-7s %-28s %14.6f %s\n" wl tag "error_rate" err "ratio";
  Printf.printf "%-14s %-7s %-28s %14s %s\n" wl tag "setup_s(each)"
    (String.concat "," (List.map (Printf.sprintf "%.3f") o.Outcome.setup_s))
    "s";
  let pick catalogue got =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (x : Report.metric) -> x.Report.name = name) got with
        | Some x -> x
        | None -> Report.m name unit_ 0.0)
      catalogue
  in
  let shown = if trace then pick Catalogue.per_layer layers else pick Catalogue.end_to_end e2e in
  let finite = List.for_all (fun (x : Report.metric) -> Float.is_finite x.Report.value) shown in
  List.iter (fun (x : Report.metric) -> Report.line ~workload:wl ~tag ?alias:(Catalogue.alias ~workload:wl x.Report.name) x) shown;
  if trace then (try Trace.write (Filename.concat ".rttbench" ("trace-" ^ wl ^ ".jsonl")) with Sys_error _ -> ());
  let attempted = max 1 o.Outcome.attempted in
  Report.emit ~correct:(o.Outcome.wrong = 0 && finite) ~attempted ~failed:o.Outcome.failed shown
