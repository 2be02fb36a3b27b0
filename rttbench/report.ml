(* The run's result: human-readable metric lines on stdout, then one
   JSON object as the last line. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let line ~workload ~tag ?alias (x : metric) =
  Printf.printf "%-14s %-7s %-28s %14.6f %s%s\n" workload tag x.name x.value x.unit_
    (match alias with Some a -> "  (" ^ a ^ ")" | None -> "")

let emit ~correct ~attempted ~failed metrics =
  let body =
    metrics
    |> List.map (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_number x.value) x.unit_)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body
