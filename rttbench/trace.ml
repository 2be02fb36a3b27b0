(* In-memory spans recorded by the benchmark around its calls into the
   program's layers. Nothing inside the program is instrumented: a span
   covers one call to a layer's public function. Spans stay in memory
   and are written out once, when the run ends. *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

let on = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

(* Run [f] inside a span named [name] of request [req] when tracing is
   on; otherwise just run it. *)
let span ?(req = 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      spans := { id; parent; req; name; t0; t1 } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Total seconds and count of the spans named [name]. *)
let total name =
  List.fold_left
    (fun (s, n) sp -> if String.equal sp.name name then (s +. (sp.t1 -. sp.t0), n + 1) else (s, n))
    (0.0, 0) !spans

(* One JSON object per span, oldest first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.req s.name s.t0 s.t1)
    (List.rev !spans);
  close_out oc
