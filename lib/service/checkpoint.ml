let path ~spool ~job = Filename.concat spool (job ^ ".ckpt")

let store ~spool ~job snapshot =
  Rtt_diskio.Diskio.atomic_write ~path:(path ~spool ~job) (Frame.frame snapshot)

let load ~spool ~job = Option.bind (Rtt_diskio.Diskio.read_file (path ~spool ~job)) Frame.unframe

let clear ~spool ~job = try Sys.remove (path ~spool ~job) with Sys_error _ -> ()
