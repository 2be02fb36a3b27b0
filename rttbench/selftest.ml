(* Self-tests of the benchmark's own machinery: percentiles and the
   ten-beyond-p99 rule, the Zipf duplicate share against its target,
   pacing lateness on an idle loop, and the metric catalogue against
   BENCHMARK.json. Run from the root of the repository:

     bash rttbench/run.sh --selftest

   Exits 0 when every check passes. *)

let failures = ref 0

let check name ok detail =
  Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name (if detail = "" then "" else " (" ^ detail ^ ")");
  if not ok then incr failures

let buf_of xs =
  let b = Stats.buf () in
  List.iter (Stats.add b) xs;
  b

let percentiles () =
  let b = buf_of (List.init 100 (fun i -> float_of_int (100 - i))) in
  let a = Stats.sorted_of b in
  check "p50 of 1..100 is 50" (Stats.percentile_sorted a 50.0 = 50.0) "";
  check "p99 of 1..100 is 99" (Stats.percentile_sorted a 99.0 = 99.0) "";
  check "p100 of 1..100 is 100" (Stats.percentile_sorted a 100.0 = 100.0) "";
  check "p50 of one sample is that sample" (Stats.percentile_sorted [| 7.0 |] 50.0 = 7.0) "";
  check "percentile of no samples is nan" (Float.is_nan (Stats.percentile_sorted [||] 50.0)) "";
  let many = Stats.buf () in
  for i = 1 to 1000 do
    Stats.add many (float_of_int i)
  done;
  check "buffer grows past its first block" (Stats.length many = 1000 && Stats.sum many = 500500.0) "";
  check "1000 samples leave 10 beyond p99" (Stats.beyond 1000 99.0 = 10) "";
  check "999 samples leave 9 beyond p99" (Stats.beyond 999 99.0 = 9) "";
  check "100 samples leave 1 beyond p99" (Stats.beyond 100 99.0 = 1) "";
  check "200 samples leave 20 beyond p90" (Stats.beyond 200 90.0 = 20) "";
  let parts k n = List.init k (fun _ -> (buf_of (List.init n (fun i -> float_of_int (i + 1))), 1.0)) in
  let b3 = Stats.block_means (parts 7 400) in
  check "blocks hold at least 1000 samples, a short last one joining the one before"
    (b3.Stats.blocks = 2 && b3.Stats.samples = 2800) (Printf.sprintf "%d blocks" b3.Stats.blocks);
  check "block figures are per block" (b3.Stats.b_p50 = 200.0 && b3.Stats.b_p99 = 396.0) "";
  let one = Stats.block_means (parts 2 100) in
  check "too few samples make one block" (one.Stats.blocks = 1 && one.Stats.rate = 100.0) "";
  check "block rate is samples per busy second"
    ((Stats.block_means [ (buf_of (List.init 1000 float_of_int), 4.0) ]).Stats.rate = 250.0)
    ""

let zipf () =
  let z = Zipf.make ~n:W_serve.pool_size ~s:W_serve.zipf_s in
  let total = ref 0.0 in
  for k = 0 to Zipf.size z - 1 do
    total := !total +. Zipf.prob z k
  done;
  check "Zipf probabilities sum to 1" (Float.abs (!total -. 1.0) < 1e-9) "";
  check "Zipf weights fall with rank" (Zipf.prob z 0 > Zipf.prob z 1 && Zipf.prob z 1 > Zipf.prob z (Zipf.size z - 1)) "";
  let draws = W_serve.arrivals_in 20.0 in
  let target = Zipf.expected_dup_share z ~draws in
  let shares =
    List.init 20 (fun seed ->
        let rng = Random.State.make [| seed |] in
        Zipf.dup_share (Array.init draws (fun _ -> Zipf.draw z rng)))
  in
  let mean = List.fold_left ( +. ) 0.0 shares /. 20.0 in
  check "measured duplicate share matches the Zipf target"
    (Float.abs (mean -. target) < 0.01)
    (Printf.sprintf "target %.4f, mean of 20 seeds %.4f" target mean);
  check "uniform draws repeat as the birthday bound says"
    (let u = Zipf.make ~n:1000 ~s:0.0 in
     Float.abs (Zipf.expected_dup_share u ~draws:100 -. (1.0 -. ((1000.0 /. 100.0) *. (1.0 -. (0.999 ** 100.0))))) < 1e-9)
    ""

(* An idle open loop: nothing to do but wait for the next arrival. The
   generator must keep to its schedule. *)
let pacing () =
  let rate = 500.0 and total = 500 in
  let p = Pacer.make ~start:(Unix.gettimeofday () +. 0.01) ~rate ~total in
  let sent = ref 0 in
  while not (Pacer.finished p) do
    Pacer.release p ~now:(Unix.gettimeofday ()) ~send:(fun _ _ -> incr sent);
    let t = Pacer.timeout p ~now:(Unix.gettimeofday ()) ~cap:0.05 in
    if t > 0.0 then ignore (Unix.select [] [] [] t)
  done;
  let s = Stats.summarize p.Pacer.late in
  check "idle loop sends every arrival once" (!sent = total) "";
  check "idle loop is never early" (Stats.percentile_sorted (Stats.sorted_of p.Pacer.late) 0.0 >= 0.0) "";
  check "idle loop p50 lateness under 1 ms" (s.Stats.p50 < 0.001) (Printf.sprintf "%.3f ms" (1000.0 *. s.Stats.p50));
  check "idle loop p99 lateness under 20 ms" (s.Stats.p99 < 0.020) (Printf.sprintf "%.3f ms" (1000.0 *. s.Stats.p99));
  let q = Pacer.make ~start:0.0 ~rate:10.0 ~total:3 in
  check "timeout is bounded by the next due arrival" (Pacer.timeout q ~now:(-0.02) ~cap:1.0 = 0.02) "";
  check "an overdue arrival gives a zero timeout" (Pacer.timeout q ~now:5.0 ~cap:1.0 = 0.0) ""

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let catalogue () =
  let all = Catalogue.end_to_end @ Catalogue.per_layer in
  let names = List.map fst all in
  check "metric names are unique" (List.length (List.sort_uniq compare names) = List.length names) "";
  match read_file "BENCHMARK.json" with
  | exception Sys_error _ -> check "BENCHMARK.json is readable from the working directory" false ""
  | json ->
      List.iter
        (fun (name, unit_) ->
          check
            (Printf.sprintf "BENCHMARK.json lists %s in %s" name unit_)
            (contains json (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" name unit_))
            "")
        all;
      List.iter
        (fun w -> check (Printf.sprintf "BENCHMARK.json lists workload %s" w) (contains json (Printf.sprintf "\"name\": \"%s\"" w)) "")
        Catalogue.gated

let () =
  percentiles ();
  zipf ();
  pacing ();
  catalogue ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
