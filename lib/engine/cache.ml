open Rtt_num

let path ~dir ~key = Filename.concat dir (key ^ ".rttc")

let opt_rat_to_string = function None -> "-" | Some r -> Rat.to_string r

let opt_rat_of_string = function
  | "-" -> Some None
  | s -> ( match Rat.of_string s with r -> Some (Some r) | exception _ -> None)

let payload_of (s : Engine.success) =
  let alloc =
    if Array.length s.Engine.allocation = 0 then "-"
    else String.concat "," (Array.to_list (Array.map string_of_int s.Engine.allocation))
  in
  Printf.sprintf "rttc1 %s %d %d %s %s %s"
    (Policy.rung_name s.Engine.rung)
    s.Engine.makespan s.Engine.budget_used
    (opt_rat_to_string s.Engine.lp_makespan)
    (opt_rat_to_string s.Engine.lp_budget)
    alloc

let success_of_payload payload =
  match String.split_on_char ' ' payload with
  | [ "rttc1"; rung; ms; bu; lp_ms; lp_b; alloc ] -> (
      let ints l = List.map int_of_string_opt l in
      let alloc =
        if alloc = "-" then Some [||]
        else
          match ints (String.split_on_char ',' alloc) with
          | parts when List.for_all Option.is_some parts ->
              Some (Array.of_list (List.map Option.get parts))
          | _ -> None
      in
      match
        ( Policy.rung_of_string rung,
          int_of_string_opt ms,
          int_of_string_opt bu,
          opt_rat_of_string lp_ms,
          opt_rat_of_string lp_b,
          alloc )
      with
      | Some rung, Some makespan, Some budget_used, Some lp_makespan, Some lp_budget, Some allocation
        ->
          Some
            {
              Engine.rung;
              allocation;
              makespan;
              budget_used;
              lp_makespan;
              lp_budget;
              degraded = [];
              fuel_spent = 0;
            }
      | _ -> None)
  | _ -> None

(* tmp + fsync + rename, like every other durable artifact in the
   system: a crashed or concurrent writer can never leave a torn entry
   behind, and two workers racing to store the same digest both rename
   identical bytes, so last-writer-wins is harmless. *)
let store ~dir ~key (s : Engine.success) =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let payload = payload_of s in
  let line = Printf.sprintf "%s %s" (Stdlib.Digest.to_hex (Stdlib.Digest.string payload)) payload in
  Rtt_diskio.Diskio.atomic_write ~path:(path ~dir ~key) line

(* Raw entry transport for replication: followers warm their cache by
   copying the entry bytes verbatim. Reconstructing a success from a
   result file would lose the LP bounds (result files don't carry
   them), so shipping the checksummed line is both simpler and safer —
   a hit is still re-validated against the instance on lookup. *)
let read_raw ~dir ~key = Rtt_diskio.Diskio.read_file (path ~dir ~key)

let store_raw ~dir ~key bytes =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  Rtt_diskio.Diskio.atomic_write ~path:(path ~dir ~key) bytes

let keys ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name ".rttc" then Some (Filename.chop_suffix name ".rttc")
             else None)
      |> List.sort compare

let entries ~dir = List.length (keys ~dir)

(* One read path for hits and for the audit: the error names the
   reason an entry reads as a miss — what fsck reports (and deletes
   under --repair), since a silently ignored corrupt entry is litter
   that hides real damage. *)
let read_entry ~dir ~key =
  match Rtt_diskio.Diskio.read_file (path ~dir ~key) with
  | None -> Error "unreadable"
  | Some line ->
      let len = String.length line in
      if len < 33 then Error (Printf.sprintf "truncated (%d bytes)" len)
      else if line.[32] <> ' ' then Error "malformed checksum line"
      else
        let payload = String.sub line 33 (len - 33) in
        if Stdlib.Digest.to_hex (Stdlib.Digest.string payload) <> String.sub line 0 32 then
          Error "checksum mismatch"
        else
          match success_of_payload payload with
          | Some s -> Ok s
          | None -> Error "unparseable payload"

let lookup ~dir ~key = Result.to_option (read_entry ~dir ~key)
let audit ~dir ~key = Result.map ignore (read_entry ~dir ~key)
