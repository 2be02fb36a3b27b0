(* Zipf-skewed draws over a pool of [n] items: item k (0-based) has
   weight 1/(k+1)^s. The benchmark uses it to decide how many submits
   repeat an earlier instance. *)

type t = { cdf : float array }

let make ~n ~s =
  if n < 1 then invalid_arg "Zipf.make: empty pool";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  { cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

let size t = Array.length t.cdf

let prob t k = if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)

let draw t rng =
  let u = Random.State.float rng 1.0 in
  (* first index whose cumulative weight exceeds u *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Expected share of [draws] draws that repeat an item drawn before:
   1 - E[distinct items] / draws. *)
let expected_dup_share t ~draws =
  let d = float_of_int draws in
  let distinct = ref 0.0 in
  for k = 0 to size t - 1 do
    distinct := !distinct +. (1.0 -. ((1.0 -. prob t k) ** d))
  done;
  1.0 -. (!distinct /. d)

(* Measured share of a draw sequence that repeats an earlier draw. *)
let dup_share draws =
  let seen = Hashtbl.create 64 in
  let dups = ref 0 in
  Array.iter (fun k -> if Hashtbl.mem seen k then incr dups else Hashtbl.add seen k ()) draws;
  if Array.length draws = 0 then 0.0 else float_of_int !dups /. float_of_int (Array.length draws)
