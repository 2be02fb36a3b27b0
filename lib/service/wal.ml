type 'a scan = {
  records : 'a list;
  lines : string list;
  committed : int;
  size : int;
  tail : string;
}

let scan ~decode path =
  match Rtt_diskio.Diskio.read_file path with
  | None -> { records = []; lines = []; committed = 0; size = 0; tail = "" }
  | Some s ->
      let n = String.length s in
      let records = ref [] and lines = ref [] in
      let start = ref 0 in
      let stop = ref false in
      while (not !stop) && !start < n do
        match String.index_from_opt s !start '\n' with
        | None -> stop := true
        | Some nl -> (
            let line = String.sub s !start (nl - !start) in
            match decode line with
            | Some r ->
                records := r :: !records;
                lines := line :: !lines;
                start := nl + 1
            | None -> stop := true)
      done;
      {
        records = List.rev !records;
        lines = List.rev !lines;
        committed = !start;
        size = n;
        tail = String.sub s !start (n - !start);
      }

let truncate path bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Rtt_diskio.Diskio.ftruncate fd bytes;
      Rtt_diskio.Diskio.fsync fd)

let seal ~decode path =
  let s = scan ~decode path in
  if s.size > s.committed then truncate path s.committed;
  s

type t = { fd : Unix.file_descr }

let open_ ~decode path =
  let s = seal ~decode path in
  ({ fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 }, s)

let append t line =
  let bytes = Bytes.of_string (line ^ "\n") in
  Rtt_diskio.Diskio.write_all t.fd bytes 0 (Bytes.length bytes);
  Rtt_diskio.Diskio.fsync t.fd

let close t = Unix.close t.fd
let fd t = t.fd
