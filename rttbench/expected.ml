(* Answers committed with the benchmark, in rttbench/expected/. They
   come from the program at the commit that wrote them (see
   mkexpected.ml) and are checked on every run, so a later commit that
   returns a different optimum is caught even when it agrees with
   itself. Each file holds one record a line; lines starting with #
   are comments. *)

let dir = Filename.concat "rttbench" "expected"

let records name =
  let path = Filename.concat dir name in
  let ic = try open_in path with Sys_error e -> failwith ("rttbench: cannot read expected answers: " ^ e) in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.length line = 0 || line.[0] = '#' -> go acc
    | line -> go (List.filter (( <> ) "") (String.split_on_char ' ' line) :: acc)
  in
  go []

let write name ~comment lines =
  let oc = open_out (Filename.concat dir name) in
  List.iter (fun c -> output_string oc ("# " ^ c ^ "\n")) comment;
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc
