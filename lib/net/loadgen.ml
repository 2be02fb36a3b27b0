open Rtt_service

type config = {
  endpoint : Client.endpoint;
  clients : int;
  rate : float; (* jobs/sec fleet-wide; 0 = closed-loop saturation *)
  depth : int; (* in-flight bound per connection (saturation mode) *)
  duration : float; (* measured seconds, after warmup *)
  warmup : float; (* seconds whose samples are discarded *)
  bodies : string array; (* instance texts, cycled round-robin *)
}

type report = {
  clients : int;
  rate : float;
  duration_s : float;
  wall_s : float;
  sent : int;
  acked : int;
  shed : int;
  errors : int;
  jobs_per_sec : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  histogram : (float * int) list; (* (bucket upper bound in ms, count) *)
}

(* ------------------------------------------------------------------ *)
(* HDR-style histogram: log-spaced octaves of 8 linear sub-buckets
   over microseconds — ~12% relative precision from 1 µs to ~4.7 min
   in 176 fixed slots, constant-time record, no per-sample storage *)

module Hist = struct
  let octaves = 22
  let subs = 8
  let slots = octaves * subs

  type t = { counts : int array; mutable total : int; mutable max_us : int }

  let create () = { counts = Array.make slots 0; total = 0; max_us = 0 }

  let index_of_us us =
    let us = max 1 us in
    let octave =
      let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
      bits us 0
    in
    if octave < 3 then min (subs - 1) us
    else
      let o = min (octaves - 1) (octave - 2) in
      let sub = (us lsr (octave - 3)) land (subs - 1) in
      (o * subs) + sub

  (* slot (o, sub) with o >= 1 covers values in
     [2^(o+2) + sub * 2^(o-1), 2^(o+2) + (sub+1) * 2^(o-1)), i.e. upper
     bound (9 + sub) * 2^(o-1); o = 0 slots are exact (us < 8) *)
  let upper_us_of_index i =
    let o = i / subs and sub = i mod subs in
    if o = 0 then max sub 1 else (9 + sub) lsl (o - 1)

  let record t ~us =
    t.counts.(index_of_us us) <- t.counts.(index_of_us us) + 1;
    t.total <- t.total + 1;
    if us > t.max_us then t.max_us <- us

  let percentile t q =
    if t.total = 0 then 0.
    else begin
      let target = int_of_float (ceil (q *. float_of_int t.total)) in
      let seen = ref 0 and answer = ref 0. in
      (try
         for i = 0 to slots - 1 do
           seen := !seen + t.counts.(i);
           if !seen >= target then begin
             answer := float_of_int (upper_us_of_index i) /. 1000.;
             raise Exit
           end
         done
       with Exit -> ());
      !answer
    end

  let nonempty_buckets t =
    let acc = ref [] in
    for i = slots - 1 downto 0 do
      if t.counts.(i) > 0 then
        acc := (float_of_int (upper_us_of_index i) /. 1000., t.counts.(i)) :: !acc
    done;
    !acc
end

(* ------------------------------------------------------------------ *)
(* one generator connection: its own socket, frame reader, out-buffer,
   and the FIFO of send timestamps its pipelined submits will be
   answered in (the daemon answers submits in arrival order) *)

type gconn = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  mutable out : string; (* unwritten wire bytes *)
  inflight : float Queue.t; (* send timestamp per unanswered submit *)
  mutable gsent : int;
}

let connect_gconn endpoint =
  match Client.connect endpoint with
  | Error e -> Error (Client.error_to_string e)
  | Ok c ->
      let fd = Client.fd c in
      Unix.set_nonblock fd;
      Ok { fd; reader = Frame.reader (); out = ""; inflight = Queue.create (); gsent = 0 }

let now () = Unix.gettimeofday ()

(* an arrival that falls due while the loop idles in select would go
   out late, and that lateness would be charged to the daemon: the wait
   ends at the next arrival (or the end of sending), capped so replies
   and the grace cutoff are still polled *)
let max_wait = 0.05

let select_timeout ~now ~next_due ~stop =
  if now >= stop then max_wait
  else Float.max 0. (Float.min max_wait (Float.min next_due stop -. now))

let run (cfg : config) =
  if cfg.clients <= 0 then Error "clients must be positive"
  else if Array.length cfg.bodies = 0 then Error "no instance bodies to submit"
  else if cfg.duration <= 0. then Error "duration must be positive"
  else begin
    let conns_r =
      let rec go acc k =
        if k = 0 then Ok (Array.of_list (List.rev acc))
        else
          match connect_gconn cfg.endpoint with
          | Error _ as e -> e
          | Ok g -> go (g :: acc) (k - 1)
      in
      go [] cfg.clients
    in
    match conns_r with
    | Error msg ->
        Error (Printf.sprintf "connect: %s" msg)
    | Ok conns ->
        let hist = Hist.create () in
        let sent = ref 0 and acked = ref 0 and shed = ref 0 and errors = ref 0 in
        let t0 = now () in
        let measure_from = t0 +. cfg.warmup in
        let stop_sending_at = measure_from +. cfg.duration in
        let body_i = ref 0 in
        let next_body () =
          let b = cfg.bodies.(!body_i mod Array.length cfg.bodies) in
          incr body_i;
          b
        in
        let enqueue_submit g t =
          let body = next_body () in
          let req =
            Protocol.Submit { name = Printf.sprintf "loadgen-%d" !sent; body }
          in
          g.out <- g.out ^ Frame.frame (Protocol.encode_request req) ^ "\n";
          Queue.push t g.inflight;
          g.gsent <- g.gsent + 1;
          incr sent
        in
        let account g resp t =
          match Queue.take_opt g.inflight with
          | None -> incr errors (* a reply with no question: protocol bug *)
          | Some t_sent ->
              if t_sent >= measure_from then
                Hist.record hist ~us:(int_of_float ((t -. t_sent) *. 1e6));
              (match resp with
              | Protocol.Accepted _ -> incr acked
              | Protocol.Shed _ -> incr shed
              | _ -> incr errors)
        in
        let dead = ref 0 in
        let closed = Array.make (Array.length conns) false in
        let close_g i =
          if not closed.(i) then begin
            closed.(i) <- true;
            incr dead;
            errors := !errors + Queue.length conns.(i).inflight;
            Queue.clear conns.(i).inflight;
            try Unix.close conns.(i).fd with Unix.Unix_error _ -> ()
          end
        in
        let readable i t =
          let g = conns.(i) in
          let buf = Bytes.create 16384 in
          match Unix.read g.fd buf 0 16384 with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
          | exception Unix.Unix_error _ -> close_g i
          | 0 -> close_g i
          | n ->
              List.iter
                (function
                  | `Frame payload -> (
                      match Protocol.parse_response payload with
                      | Ok resp -> account g resp t
                      | Error _ -> incr errors)
                  | `Corrupt _ | `Overflow -> close_g i)
                (Frame.feed g.reader (Bytes.sub_string buf 0 n))
        in
        let writable i =
          let g = conns.(i) in
          if g.out <> "" then
            match Unix.write_substring g.fd g.out 0 (String.length g.out) with
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error _ -> close_g i
            | n -> g.out <- String.sub g.out n (String.length g.out - n)
        in
        (* open loop: job k is due at t0 + k/rate, round-robin over the
           connections — the schedule does not slow down because the
           daemon is slow; that is the point *)
        let scheduled = ref 0 in
        let next_due () =
          if cfg.rate > 0. then t0 +. (float_of_int !scheduled /. cfg.rate) else infinity
        in
        let rr = ref 0 in
        let pump t =
          if t < stop_sending_at then begin
            if cfg.rate > 0. then
              while next_due () <= t do
                let i = !rr mod Array.length conns in
                incr rr;
                if not closed.(i) then enqueue_submit conns.(i) (next_due ());
                incr scheduled
              done
            else
              (* saturation: keep every connection topped up to depth *)
              Array.iteri
                (fun i g ->
                  if not closed.(i) then
                    while Queue.length g.inflight < cfg.depth do
                      enqueue_submit g t
                    done)
                conns
          end
        in
        let outstanding () =
          Array.fold_left (fun acc g -> acc + Queue.length g.inflight) 0 conns
        in
        let live_indices () =
          let acc = ref [] in
          Array.iteri (fun i _ -> if not closed.(i) then acc := i :: !acc) conns;
          !acc
        in
        let grace = stop_sending_at +. 10. in
        let rec loop () =
          let t = now () in
          if !dead = Array.length conns then ()
          else if t >= stop_sending_at && outstanding () = 0 then ()
          else if t >= grace then ()
          else begin
            pump t;
            let idx = live_indices () in
            let reads = List.map (fun i -> conns.(i).fd) idx in
            let writes =
              List.filter_map (fun i -> if conns.(i).out <> "" then Some conns.(i).fd else None) idx
            in
            let timeout =
              select_timeout ~now:(now ()) ~next_due:(next_due ()) ~stop:stop_sending_at
            in
            (match Unix.select reads writes [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | r, w, _ ->
                let t = now () in
                List.iter (fun i -> if List.mem conns.(i).fd w then writable i) idx;
                List.iter (fun i -> if List.mem conns.(i).fd r then readable i t) idx);
            loop ()
          end
        in
        loop ();
        Array.iteri (fun i _ -> close_g i) conns;
        (* unanswered submits at the grace cutoff were already rolled
           into errors by close_g; the wall clock covers the measured
           window only *)
        let wall = Float.max 0.001 (Float.min (now () -. measure_from) cfg.duration) in
        Ok
          {
            clients = cfg.clients;
            rate = cfg.rate;
            duration_s = cfg.duration;
            wall_s = wall;
            sent = !sent;
            acked = !acked;
            shed = !shed;
            errors = !errors;
            jobs_per_sec = float_of_int hist.Hist.total /. wall;
            p50_ms = Hist.percentile hist 0.50;
            p95_ms = Hist.percentile hist 0.95;
            p99_ms = Hist.percentile hist 0.99;
            max_ms = float_of_int hist.Hist.max_us /. 1000.;
            histogram = Hist.nonempty_buckets hist;
          }
  end

let to_json r =
  let hist =
    String.concat ","
      (List.map (fun (ub, n) -> Printf.sprintf "[%.3f,%d]" ub n) r.histogram)
  in
  Printf.sprintf
    {|{"schema":"rtt-loadgen/1","clients":%d,"rate":%.1f,"duration_s":%.1f,"wall_s":%.3f,"sent":%d,"acked":%d,"shed":%d,"errors":%d,"jobs_per_sec":%.1f,"latency_ms":{"p50":%.3f,"p95":%.3f,"p99":%.3f,"max":%.3f},"histogram":[%s]}|}
    r.clients r.rate r.duration_s r.wall_s r.sent r.acked r.shed r.errors r.jobs_per_sec
    r.p50_ms r.p95_ms r.p99_ms r.max_ms hist
