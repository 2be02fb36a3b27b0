open Rtt_num
open Rtt_dag
open Rtt_duration
open Rtt_core
open Rtt_engine
open Rtt_service

(* ------------------------------------------------------------------ *)
(* mutation language                                                   *)

type op =
  | Seed of string
  | Add_job of (int * int) list
  | Add_edge of int * int
  | Set_duration of int * (int * int) list
  | Set_budget of int
  | Set_alpha of Rat.t
  | Remove_job of int

let tuples_to_string tuples =
  String.concat " " (List.map (fun (r, t) -> Printf.sprintf "%d:%d" r t) tuples)

let op_to_string = function
  | Seed text -> Printf.sprintf "seed %s" (Frame.escape text)
  | Add_job tuples -> Printf.sprintf "add-job %s" (tuples_to_string tuples)
  | Add_edge (u, v) -> Printf.sprintf "add-edge %d %d" u v
  | Set_duration (v, tuples) ->
      Printf.sprintf "set-duration-option %d %s" v (tuples_to_string tuples)
  | Set_budget b -> Printf.sprintf "set-budget %d" b
  | Set_alpha a -> Printf.sprintf "set-alpha %s" (Rat.to_string a)
  | Remove_job v -> Printf.sprintf "remove-job %d" v

let parse_tuples words =
  let tuple w =
    match String.split_on_char ':' w with
    | [ r; t ] -> (
        match (int_of_string_opt r, int_of_string_opt t) with
        | Some r, Some t -> Ok (r, t)
        | _ -> Error (Printf.sprintf "bad resource:time tuple %S" w))
    | _ -> Error (Printf.sprintf "bad resource:time tuple %S" w)
  in
  List.fold_left
    (fun acc w ->
      match (acc, tuple w) with
      | Ok l, Ok t -> Ok (l @ [ t ])
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    (Ok []) words

let op_of_string line =
  let words = String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "") in
  let int what s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  let ( let* ) = Result.bind in
  match words with
  | [ "seed"; body ] -> (
      match Frame.unescape body with
      | Some text -> Ok (Seed text)
      | None -> Error "seed: malformed escape")
  | "add-job" :: ((_ :: _) as tuples) ->
      let* tuples = parse_tuples tuples in
      Ok (Add_job tuples)
  | [ "add-edge"; u; v ] ->
      let* u = int "vertex" u in
      let* v = int "vertex" v in
      Ok (Add_edge (u, v))
  | "set-duration-option" :: v :: ((_ :: _) as tuples) ->
      let* v = int "vertex" v in
      let* tuples = parse_tuples tuples in
      Ok (Set_duration (v, tuples))
  | [ "set-budget"; b ] ->
      let* b = int "budget" b in
      Ok (Set_budget b)
  | [ "set-alpha"; a ] -> (
      match Rat.of_string a with
      | r -> Ok (Set_alpha r)
      | exception _ -> Error (Printf.sprintf "bad alpha %S (want p/q)" a))
  | [ "remove-job"; v ] ->
      let* v = int "vertex" v in
      Ok (Remove_job v)
  | verb :: _ -> Error (Printf.sprintf "unknown mutation %S" verb)
  | [] -> Error "empty mutation"

(* ------------------------------------------------------------------ *)
(* instance state: a text-faithful representation of the evolving
   instance. Kept as sorted/ordered lists (not a hashtable) so the
   rendered instance text — and through it the validation messages and
   the solver answers — is a deterministic function of the mutation
   history. *)

type state = {
  n : int;
  durs : (int * (int * int) list) list;  (* sorted by vertex *)
  edges : (int * int) list;  (* insertion order *)
  budget : int;
  alpha : Rat.t;
}

let empty_state = { n = 0; durs = []; edges = []; budget = 0; alpha = Rat.half }

let to_text st =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "vertices %d\n" st.n);
  List.iter
    (fun (v, tuples) ->
      Buffer.add_string buf (Printf.sprintf "duration %d %s\n" v (tuples_to_string tuples)))
    st.durs;
  List.iter (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" u v)) st.edges;
  Buffer.contents buf

let state_of_problem ~budget ~alpha p =
  let durs = ref [] in
  Array.iteri
    (fun v d ->
      if not (Duration.is_constant d) || Duration.base_time d <> 0 then
        durs := (v, Duration.tuples d) :: !durs)
    p.Problem.durations;
  {
    n = Problem.n_jobs p;
    durs = List.rev !durs;
    edges = Dag.edges p.Problem.dag;
    budget;
    alpha;
  }

let check_tuples tuples =
  match Duration.make tuples with
  | _ -> Ok ()
  | exception Invalid_argument m -> Error (Printf.sprintf "invalid duration (%s)" m)

let check_vertex st v = if v < 0 || v >= st.n then Error (Printf.sprintf "vertex %d out of range [0, %d)" v st.n) else Ok ()

(* Apply one mutation to a state, without validation of the DAG shape
   (that is [validate]'s job, which sees the whole rendered text). *)
let apply st op =
  let ( let* ) = Result.bind in
  match op with
  | Seed text -> (
      match Engine.load_string text with
      | Ok p -> Ok (state_of_problem ~budget:st.budget ~alpha:st.alpha p)
      | Error e -> Error (Error.to_string e))
  | Add_job tuples ->
      let* () = check_tuples tuples in
      Ok { st with n = st.n + 1; durs = st.durs @ [ (st.n, tuples) ] }
  | Add_edge (u, v) ->
      let* () = check_vertex st u in
      let* () = check_vertex st v in
      if u = v then Error (Printf.sprintf "self-loop on vertex %d" u)
      else if List.mem (u, v) st.edges then
        Error (Printf.sprintf "duplicate edge %d -> %d" u v)
      else Ok { st with edges = st.edges @ [ (u, v) ] }
  | Set_duration (v, tuples) ->
      let* () = check_vertex st v in
      let* () = check_tuples tuples in
      let durs = List.filter (fun (u, _) -> u <> v) st.durs @ [ (v, tuples) ] in
      Ok { st with durs = List.sort (fun (a, _) (b, _) -> compare a b) durs }
  | Set_budget b ->
      if b < 0 then Error "budget must be non-negative" else Ok { st with budget = b }
  | Set_alpha a ->
      if Rat.(a <= Rat.zero) || Rat.(a >= Rat.one) then
        Error "alpha must lie strictly inside (0, 1)"
      else Ok { st with alpha = a }
  | Remove_job v ->
      let* () = check_vertex st v in
      if st.n = 1 then Error "cannot remove the last job"
      else begin
        let shift u = if u > v then u - 1 else u in
        Ok
          {
            st with
            n = st.n - 1;
            durs =
              List.filter_map
                (fun (u, tuples) -> if u = v then None else Some (shift u, tuples))
                st.durs;
            edges =
              List.filter_map
                (fun (a, b) -> if a = v || b = v then None else Some (shift a, shift b))
                st.edges;
          }
      end

(* Engine-grade validation of the whole mutated instance: the rendered
   text goes through the same loader a submission does, so a duplicate
   edge is rejected naming the edge and a cycle is rejected naming a
   witness vertex. An empty state has no instance yet and is valid. *)
let validate st =
  if st.n = 0 then Ok None
  else
    match Engine.load_string (to_text st) with
    | Ok p -> Ok (Some p)
    | Error e -> Error (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* per-session journal: one CRC-framed [mut <escaped-op>] line per
   committed mutation, fsync'd before the mutation is acknowledged. A
   line counts only if its op parses too. *)

let record_of_op op = Frame.frame ("mut " ^ Frame.escape (op_to_string op))

let op_of_record line =
  match Frame.unframe line with
  | None -> None
  | Some payload -> (
      match String.index_opt payload ' ' with
      | Some i when String.sub payload 0 i = "mut" -> (
          let rest = String.sub payload (i + 1) (String.length payload - i - 1) in
          match Frame.unescape rest with
          | None -> None
          | Some op_line -> (
              match op_of_string op_line with Ok op -> Some op | Error _ -> None))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* the store                                                           *)

type t = {
  sid : string;
  dir : string;
  wal : Wal.t;
  mutable state : state;
  mutable revision : int;
  mutable problem : Problem.t option;
  mutable warm : int array option;  (* last answer, remapped across mutations *)
  mutable basis : Rtt_lp.Simplex.basis option;
}

type store = { spool : string; sessions : (string, t) Hashtbl.t }

let create_store ~spool = { spool; sessions = Hashtbl.create 8 }
let sessions_root spool = Filename.concat spool "sessions"

let valid_sid sid =
  let ok_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false in
  String.length sid > 0 && String.length sid <= 64 && sid <> "." && sid <> ".."
  && String.for_all ok_char sid

let ensure_dir path =
  match Unix.mkdir path 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let sid t = t.sid
let revision t = t.revision
let find store sid = Hashtbl.find_opt store.sessions sid

let open_ store sid =
  match Hashtbl.find_opt store.sessions sid with
  | Some t -> Ok t
  | None ->
      if not (valid_sid sid) then
        Error "bad session id (want 1-64 characters from [A-Za-z0-9._-])"
      else begin
        let dir = Filename.concat (sessions_root store.spool) sid in
        ensure_dir (sessions_root store.spool);
        ensure_dir dir;
        (* sealing on open makes the next append start on a newline
           boundary; the seal's scan is the replay *)
        let wal, scan = Wal.open_ ~decode:op_of_record (Filename.concat dir "journal.log") in
        let rec replay st rev problem = function
          | [] -> Ok (st, rev, problem)
          | op :: rest -> (
              match apply st op with
              | Error msg ->
                  Error (Printf.sprintf "replay failed at mutation %d: %s" (rev + 1) msg)
              | Ok st' -> (
                  match validate st' with
                  | Error msg ->
                      Error (Printf.sprintf "replay failed at mutation %d: %s" (rev + 1) msg)
                  | Ok problem' -> replay st' (rev + 1) problem' rest))
        in
        match replay empty_state 0 None scan.Wal.records with
        | Error _ as e ->
            Wal.close wal;
            e
        | Ok (state, revision, problem) ->
            let t = { sid; dir; wal; state; revision; problem; warm = None; basis = None } in
            Hashtbl.replace store.sessions sid t;
            Ok t
      end

(* Remap the remembered answer across the mutation so the next
   re-solve can still use it as a phantom bound. Only shape changes
   need work: a new job starts at 0 units, a removed job drops its
   entry, a reseed retires the answer entirely. Everything else is
   revalidated against the current instance at solve time anyway. *)
let remap_warm warm = function
  | Seed _ -> None
  | Add_job _ -> Option.map (fun a -> Array.append a [| 0 |]) warm
  | Remove_job v ->
      Option.map
        (fun a -> Array.init (Array.length a - 1) (fun i -> if i < v then a.(i) else a.(i + 1)))
        warm
  | Add_edge _ | Set_duration _ | Set_budget _ | Set_alpha _ -> warm

let mutate t op =
  match apply t.state op with
  | Error _ as e -> e
  | Ok st' -> (
      match validate st' with
      | Error _ as e -> e
      | Ok problem ->
          (* durability before acknowledgement: journal first (fsync'd),
             then apply in memory — a crash between the two replays the
             mutation on reopen *)
          Wal.append t.wal (record_of_op op);
          t.state <- st';
          t.problem <- problem;
          t.warm <- remap_warm t.warm op;
          t.revision <- t.revision + 1;
          Ok t.revision)

(* ------------------------------------------------------------------ *)
(* solving                                                             *)

(* The canonical answer text: what the session serves and what a cold
   solve of the same instance renders — deliberately without the fuel
   line ([Engine.pp_success] prints one), because fuel is exactly what
   a warm re-solve changes. *)
let cold_render p (s : Engine.success) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "rung:     %s\n" (Policy.rung_name s.Engine.rung));
  Buffer.add_string buf (Printf.sprintf "makespan: %d\n" s.Engine.makespan);
  Buffer.add_string buf (Printf.sprintf "budget:   %d\n" s.Engine.budget_used);
  (match s.Engine.lp_makespan with
  | Some lp -> Buffer.add_string buf (Printf.sprintf "LP bound: %s\n" (Rat.to_string lp))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "allocation: %s\n" (Engine.render_allocation p s.Engine.allocation));
  Buffer.contents buf

type solved = { success : Engine.success; rendered : string; warm : bool }

let solve ?fuel ?policy ?max_states t =
  match t.problem with
  | None -> Error (Error.Invalid_request "empty session: seed it or add a job first")
  | Some p ->
      let warm = t.warm in
      let basis_before = Rtt_lp.Simplex.last_basis () in
      Option.iter Rtt_lp.Simplex.set_basis_hint t.basis;
      let result =
        Fun.protect
          ~finally:Rtt_lp.Simplex.clear_basis_hint
          (fun () ->
            Engine.solve ?fuel ?policy ?max_states ~alpha:t.state.alpha ?warm_hint:warm p
              ~budget:t.state.budget)
      in
      (match result with
      | Ok s ->
          t.warm <- Some (Array.copy s.Engine.allocation);
          (* keep the previous basis unless this solve actually ran an
             LP — [last_basis] is process-global, and adopting another
             solve's basis would just waste crash pivots next time *)
          let basis_after = Rtt_lp.Simplex.last_basis () in
          if not (basis_after == basis_before) then t.basis <- basis_after;
          Ok { success = s; rendered = cold_render p s; warm = Option.is_some warm }
      | Error _ as e -> e)

let close store t =
  Hashtbl.remove store.sessions t.sid;
  (try Wal.close t.wal with Unix.Unix_error _ -> ());
  (try Sys.remove (Filename.concat t.dir "journal.log") with Sys_error _ -> ());
  try Unix.rmdir t.dir with Unix.Unix_error _ -> ()

let list_sids ~spool =
  match Sys.readdir (sessions_root spool) with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter (fun sid ->
             Sys.file_exists (Filename.concat (Filename.concat (sessions_root spool) sid) "journal.log"))
      |> List.sort compare
