(* Order statistics over latency samples.

   Percentiles use the nearest-rank definition: the p-th percentile of
   n sorted samples is the sample at 1-based rank ceil(p/100 * n). A
   p99 is only reported from at least 1000 samples, so that at least
   [min_beyond] lie beyond its rank. *)

let min_beyond = 10

(* A growable float buffer; samples are appended in the timed loop, so
   appending must not allocate per sample. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let add b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let length b = b.len
let to_array b = Array.sub b.data 0 b.len

let sorted_of b =
  let a = to_array b in
  Array.sort Float.compare a;
  a

let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)))

(* Samples strictly after the rank of the p-th percentile. *)
let beyond n p = n - rank n p

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(min n (rank n p) - 1)

let sum b =
  let s = ref 0.0 in
  for i = 0 to b.len - 1 do
    s := !s +. b.data.(i)
  done;
  !s

let mean b = if b.len = 0 then Float.nan else sum b /. float_of_int b.len

type summary = { n : int; p50 : float; p99 : float }

let summarize b =
  let a = sorted_of b in
  { n = Array.length a; p50 = percentile_sorted a 50.0; p99 = percentile_sorted a 99.0 }

let mean_of xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A run's result from blocks: consecutive passes are grouped into
   blocks of at least 100 * [min_beyond] samples (a short last block
   joins the one before it), and each figure is the mean over blocks of
   the block's figure. A pass is its samples and the seconds the system
   was busy producing them. The host's speed changes from one pass to
   the next; over the windows of long runs measured on a shared VM,
   the mean over blocks moved less from window to window than the
   median or the minimum did. *)
type block_summary = { blocks : int; samples : int; rate : float; b_p50 : float; b_p99 : float }

let block_means (passes : (buf * float) list) =
  let min_n = 100 * min_beyond in
  let count ps = List.fold_left (fun n (b, _) -> n + length b) 0 ps in
  (* full blocks, newest first, and the passes of the open block *)
  let full, open_ =
    List.fold_left
      (fun (full, cur) pass ->
        let cur = pass :: cur in
        if count cur >= min_n then (List.rev cur :: full, []) else (full, cur))
      ([], []) passes
  in
  let groups =
    match (full, open_) with
    | last :: rest, _ :: _ -> (last @ List.rev open_) :: rest
    | _, [] -> full
    | [], _ -> [ List.rev open_ ]
  in
  let stats =
    List.rev_map
      (fun ps ->
        let all = buf () in
        List.iter (fun (b, _) -> for i = 0 to b.len - 1 do add all b.data.(i) done) ps;
        let busy = List.fold_left (fun t (_, s) -> t +. s) 0.0 ps in
        let a = sorted_of all in
        (float_of_int all.len /. busy, percentile_sorted a 50.0, percentile_sorted a 99.0, all.len))
      groups
  in
  {
    blocks = List.length stats;
    samples = List.fold_left (fun n (_, _, _, k) -> n + k) 0 stats;
    rate = mean_of (List.map (fun (r, _, _, _) -> r) stats);
    b_p50 = mean_of (List.map (fun (_, p, _, _) -> p) stats);
    b_p99 = mean_of (List.map (fun (_, _, p, _) -> p) stats);
  }
