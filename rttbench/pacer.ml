(* Open-loop arrival schedule: arrival i is due at [start + i / rate],
   whatever the system under test is doing. Latency is measured from
   the due time, so a stall also charges the arrivals it delayed, and
   [late] records how far behind its own schedule the generator ran. *)

type t = { start : float; interval : float; total : int; mutable next : int; late : Stats.buf }

let make ~start ~rate ~total = { start; interval = 1.0 /. rate; total; next = 0; late = Stats.buf () }

let due t i = t.start +. (float_of_int i *. t.interval)
let finished t = t.next >= t.total

(* Seconds until the next arrival is due (0 when one is overdue), capped
   at [cap]; [cap] once every arrival has been sent. *)
let timeout t ~now ~cap = if finished t then cap else Float.max 0.0 (Float.min cap (due t t.next -. now))

(* Hand every arrival due by [now] to [send], oldest first, with its
   index and due time. *)
let release t ~now ~send =
  while (not (finished t)) && due t t.next <= now do
    let i = t.next in
    t.next <- i + 1;
    let d = due t i in
    Stats.add t.late (Unix.gettimeofday () -. d);
    send i d
  done
