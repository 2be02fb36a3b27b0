type event =
  | Queued
  | Started of { attempt : int }
  | Done of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Failed of { attempt : int; error_class : string; transient : bool; backoff : int }
  | Abandoned of { attempt : int }

type record = { job : string; event : event }

(* The CRC-32 and the line framing now live in {!Frame}, shared with
   the pool pipes and the network daemon; the aliases below keep this
   module the journal-facing name for them. *)

let crc32 = Frame.crc32

(* wire format: "<crc-as-8-hex> <payload>"; payload tokens are space-
   separated, job names percent-encoded so any file name round-trips *)

let encode_job = Frame.escape
let decode_job = Frame.unescape

let payload_of { job; event } =
  let j = encode_job job in
  match event with
  | Queued -> Printf.sprintf "queued %s" j
  | Started { attempt } -> Printf.sprintf "started %s %d" j attempt
  | Done { attempt; makespan; budget_used; fuel; cached } ->
      Printf.sprintf "done %s %d %d %d %d %s" j attempt makespan budget_used fuel
        (if cached then "cached" else "fresh")
  | Failed { attempt; error_class; transient; backoff } ->
      Printf.sprintf "failed %s %d %s %s %d" j attempt error_class
        (if transient then "transient" else "permanent")
        backoff
  | Abandoned { attempt } -> Printf.sprintf "abandoned %s %d" j attempt

let record_of_payload payload =
  let int = int_of_string_opt in
  match String.split_on_char ' ' payload with
  | [ "queued"; j ] -> Option.map (fun job -> { job; event = Queued }) (decode_job j)
  | [ "started"; j; a ] -> (
      match (decode_job j, int a) with
      | Some job, Some attempt -> Some { job; event = Started { attempt } }
      | _ -> None)
  | [ "done"; j; a; ms; bu; fu ] -> (
      (* pre-cache journals: a five-field done is a fresh solve *)
      match (decode_job j, int a, int ms, int bu, int fu) with
      | Some job, Some attempt, Some makespan, Some budget_used, Some fuel ->
          Some { job; event = Done { attempt; makespan; budget_used; fuel; cached = false } }
      | _ -> None)
  | [ "done"; j; a; ms; bu; fu; (("cached" | "fresh") as src) ] -> (
      match (decode_job j, int a, int ms, int bu, int fu) with
      | Some job, Some attempt, Some makespan, Some budget_used, Some fuel ->
          Some
            { job; event = Done { attempt; makespan; budget_used; fuel; cached = src = "cached" } }
      | _ -> None)
  | [ "failed"; j; a; cls; tr; bo ] -> (
      match (decode_job j, int a, int bo, tr) with
      | Some job, Some attempt, Some backoff, ("transient" | "permanent") ->
          Some
            {
              job;
              event = Failed { attempt; error_class = cls; transient = tr = "transient"; backoff };
            }
      | _ -> None)
  | [ "abandoned"; j; a ] -> (
      match (decode_job j, int a) with
      | Some job, Some attempt -> Some { job; event = Abandoned { attempt } }
      | _ -> None)
  | _ -> None

let encode r = Frame.frame (payload_of r)
let decode line = Option.bind (Frame.unframe line) record_of_payload

(* ------------------------------------------------------------------ *)
(* durable log                                                         *)

type t = Wal.t

let path ~spool = Filename.concat spool "journal.log"
let scan ~spool = Wal.scan ~decode (path ~spool)
let replay ~spool = (scan ~spool).Wal.records
let seal ~spool = List.length (Wal.seal ~decode (path ~spool)).Wal.records
let open_ ~spool = fst (Wal.open_ ~decode (path ~spool))
let append_line = Wal.append
let append t r = append_line t (encode r)
let close = Wal.close
let fd = Wal.fd

(* ------------------------------------------------------------------ *)
(* derived state                                                       *)

type status =
  | Pending of { attempts : int }
  | Running of { attempt : int }
  | Interrupted of { attempt : int }
  | Completed of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Dead of { attempts : int; error_class : string }

let step status event =
  match (status, event) with
  (* a Done is final: late or duplicate events never un-complete a job,
     so a result is reported at most once *)
  | (Some (Completed _ as c), _) -> c
  | _, Queued -> ( match status with Some s -> s | None -> Pending { attempts = 0 })
  | _, Started { attempt } -> Running { attempt }
  | _, Done { attempt; makespan; budget_used; fuel; cached } ->
      Completed { attempt; makespan; budget_used; fuel; cached }
  | _, Failed { attempt; transient = true; _ } -> Pending { attempts = attempt }
  | _, Failed { attempt; error_class; transient = false; _ } ->
      Dead { attempts = attempt; error_class }
  | _, Abandoned { attempt } -> Interrupted { attempt }

let apply states { job; event } =
  let rec go = function
    | [] -> [ (job, step None event) ]
    | (j, s) :: rest when j = job -> (j, step (Some s) event) :: rest
    | entry :: rest -> entry :: go rest
  in
  go states

let fold records = List.fold_left apply [] records

(* a Running status seen by a fresh owner is a crashed attempt: same
   recovery as a graceful abandon — the attempt is consumed and the
   job resumes from its checkpoint *)
let next_attempt = function
  | Some (Completed _ | Dead _) -> None
  | Some (Pending { attempts }) -> Some (attempts + 1)
  | Some (Running { attempt } | Interrupted { attempt }) -> Some (attempt + 1)
  | None -> Some 1

let retries_exhausted ~max_attempts =
  Failed
    { attempt = max_attempts; error_class = "retries-exhausted"; transient = false; backoff = 0 }

let status_name = function
  | Pending _ -> "pending"
  | Running _ -> "running"
  | Interrupted _ -> "interrupted"
  | Completed _ -> "done"
  | Dead _ -> "failed"

let pp_status fmt = function
  | Pending { attempts } ->
      if attempts = 0 then Format.fprintf fmt "pending"
      else Format.fprintf fmt "pending (retry after %d attempt%s)" attempts
             (if attempts = 1 then "" else "s")
  | Running { attempt } -> Format.fprintf fmt "running (attempt %d)" attempt
  | Interrupted { attempt } -> Format.fprintf fmt "interrupted (attempt %d)" attempt
  | Completed { attempt; makespan; budget_used; fuel; cached } ->
      Format.fprintf fmt "done (attempt %d, makespan %d, budget %d, fuel %d%s)" attempt makespan
        budget_used fuel
        (if cached then ", cache hit" else "")
  | Dead { attempts; error_class } ->
      Format.fprintf fmt "failed permanently (%s after %d attempt%s)" error_class attempts
        (if attempts = 1 then "" else "s")
