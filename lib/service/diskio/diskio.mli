(** The single chokepoint for durable storage syscalls.

    Every byte the system promises to keep — journal appends and
    seals, cache entries, checkpoint sidecars, result files,
    replicated blobs — goes through the four operations below instead
    of calling [Unix] directly. That buys two things: the EINTR
    discipline lives in one place, and each operation carries a
    {!Rtt_budget.Budget} fault site, so the chaos harness can make the
    disk fail deterministically — at the Nth write, fsync, or rename —
    without patching storage code.

    Injected failures surface as ordinary [Unix.Unix_error]s
    ([ENOSPC]/[EIO]), indistinguishable from the real thing to the
    caller; the short-write fault additionally leaves a genuinely torn
    file behind (a prefix of the bytes landed), which is the on-disk
    state the journal's seal and [rtt fsck] exist to clean up.

    This library sits below [rtt_engine] so the content-addressed
    cache shares the shim with the service layer's journal and
    checkpoints. *)

val fsync_fail_site : string
(** ["disk.fsync-fail"] — the triggering {!fsync} raises [EIO] after
    the preceding writes may or may not have reached the platter. *)

val short_write_site : string
(** ["disk.short-write"] — the triggering {!write_all} writes only a
    prefix of its bytes, then raises [EIO]: a torn write. *)

val enospc_site : string
(** ["disk.enospc"] — the triggering {!write_all} raises [ENOSPC]
    before writing anything. *)

val eio_site : string
(** ["disk.eio"] — the triggering {!write_all} or {!ftruncate} raises
    [EIO] before touching the file. *)

val rename_fail_site : string
(** ["disk.rename-fail"] — the triggering {!rename} raises [EIO]
    without renaming; the temp file stays behind as litter. *)

val sites : string list
(** All five site strings, for registries and docs. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** Write the whole range, restarting on [EINTR]. Probes
    {!enospc_site}, {!eio_site} and {!short_write_site}. *)

val fsync : Unix.file_descr -> unit
(** [Unix.fsync]; probes {!fsync_fail_site}. *)

val rename : string -> string -> unit
(** [Unix.rename]; probes {!rename_fail_site}. *)

val ftruncate : Unix.file_descr -> int -> unit
(** [Unix.ftruncate]; probes {!eio_site}. *)

val read_file : string -> string option
(** The whole file, or [None] when it cannot be opened (missing,
    unreadable). Reads are not fault sites: the chaos harness breaks
    writes, and every reader already treats damage as a short file. *)

val atomic_write : path:string -> string -> unit
(** The tmp + write + fsync + rename idiom every durable artifact
    uses: write [body] to [path ^ ".<pid>.tmp"], fsync, rename over
    [path]. A crash or injected failure at any point leaves either the
    old file or tmp litter, never a torn [path]. The tmp file is
    deliberately {e not} cleaned up on failure — it is exactly the
    litter [rtt fsck] audits. *)
