(** The write-ahead log format shared by every durable log in the
    system: the job journal ({!Journal}), the per-session mutation
    journals ([Rtt_session.Session]) and the offline audit ({!Fsck}).

    A log is a sequence of lines, each a self-checking record (the
    {!Frame} CRC framing, in practice) terminated by ['\n'] and fsync'd
    before {!append} returns. What a line means is the caller's
    business: every function here takes a line decoder, and a line is
    a record exactly when the decoder accepts it.

    The {e committed prefix} is the longest run of lines from the start
    of the file that both decode and carry their terminating newline.
    A final line that decodes but lost its newline is a torn write, not
    a record: counting it would let the next append glue a new record
    onto it, corrupting both. Everything past the prefix — a torn tail,
    a corrupt record and whatever follows it — is uncommitted, and
    {!seal} truncates it away. Readers, sealers and auditors all use
    {!scan}, so they agree on the prefix byte for byte. *)

type 'a scan = {
  records : 'a list;  (** The decoded committed records, in append order. *)
  lines : string list;  (** The same records as raw lines, without their newlines. *)
  committed : int;  (** Byte length of the committed prefix, newlines included. *)
  size : int;  (** Byte length of the file; [0] when it is missing. *)
  tail : string;  (** The [size - committed] uncommitted bytes. *)
}

val scan : decode:(string -> 'a option) -> string -> 'a scan
(** Read the log at this path once and split it at its committed
    prefix. A missing log is an empty one. *)

val truncate : string -> int -> unit
(** Truncate the file to this many bytes, then fsync, through
    {!Rtt_diskio.Diskio} (so both are fault sites). *)

val seal : decode:(string -> 'a option) -> string -> 'a scan
(** {!scan}, then {!truncate} to the committed prefix if anything lies
    past it. Returns the scan taken before the truncation. A missing
    log stays missing. *)

type t
(** An open log (append mode). *)

val open_ : decode:(string -> 'a option) -> string -> t * 'a scan
(** {!seal}, then open for appending (creating the file if absent), so
    the first append starts on a newline boundary. The scan is the
    seal's: callers replay [records] without reading the file again. *)

val append : t -> string -> unit
(** Append one line (given without its newline) and fsync: one write,
    one fsync. When [append] returns, the line survives a crash. The
    line is not checked against any decoder. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The underlying descriptor, so a forked child can close its
    inherited copy. *)
