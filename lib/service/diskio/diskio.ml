open Rtt_budget

let fsync_fail_site = "disk.fsync-fail"
let short_write_site = "disk.short-write"
let enospc_site = "disk.enospc"
let eio_site = "disk.eio"
let rename_fail_site = "disk.rename-fail"
let sites = [ fsync_fail_site; short_write_site; enospc_site; eio_site; rename_fail_site ]

let fail err fn = raise (Unix.Unix_error (err, fn, "injected"))

let rec plain_write_all fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> plain_write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> plain_write_all fd bytes off len

let write_all fd bytes off len =
  if Budget.probe ~site:enospc_site then fail Unix.ENOSPC "write";
  if Budget.probe ~site:eio_site then fail Unix.EIO "write";
  if Budget.probe ~site:short_write_site then begin
    (* land a strict prefix, then fail: the torn write the journal's
       seal-on-open and fsck's tail audit must be able to absorb *)
    plain_write_all fd bytes off (len / 2);
    fail Unix.EIO "write"
  end;
  plain_write_all fd bytes off len

let fsync fd =
  if Budget.probe ~site:fsync_fail_site then fail Unix.EIO "fsync";
  Unix.fsync fd

let rename src dst =
  if Budget.probe ~site:rename_fail_site then fail Unix.EIO "rename";
  Unix.rename src dst

let ftruncate fd len =
  if Budget.probe ~site:eio_site then fail Unix.EIO "ftruncate";
  Unix.ftruncate fd len

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let atomic_write ~path body =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.of_string body in
      write_all fd b 0 (Bytes.length b);
      fsync fd);
  rename tmp path
