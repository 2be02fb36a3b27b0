(* Peak resident memory, read from /proc/<pid>/status (VmHWM). *)

let status_field pid field =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            let k = String.length field in
            if String.length line > k && String.sub line 0 k = field then
              Scanf.sscanf_opt (String.sub line k (String.length line - k)) " %d" Fun.id
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* Peak RSS of one process in MB; 0 when it is not readable. *)
let peak_mb pid =
  match status_field pid "VmHWM:" with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

let self_peak_mb () = peak_mb (Unix.getpid ())

(* The live children of [pid], from each process's parent field. *)
let children pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             match int_of_string_opt e with
             | None -> None
             | Some c -> (
                 match status_field c "PPid:" with Some pp when pp = pid -> Some c | _ -> None))

(* Peak RSS of [pid] plus all its children. *)
let tree_peak_mb pid = List.fold_left (fun acc c -> acc +. peak_mb c) (peak_mb pid) (children pid)
