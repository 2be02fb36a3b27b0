(** Offline storage scrubber behind [rtt fsck]: audit a spool (and its
    cache directory) for every kind of damage a crash — or an injected
    disk fault — can leave behind, and optionally repair it.

    The audit covers the whole durability surface:

    - {b journal}: CRC/torn-tail audit at the byte level (trailing
      bytes beyond the committed prefix, decodable records stranded
      after a mid-file corruption), plus a state-machine coherence
      pass over the committed records (a [done] with no [started], a
      duplicate [done], in-flight attempts at crash time);
    - {b spool files}: result files whose journal record is missing
      (the signature of a truncated journal), journaled jobs whose
      instance or result file is gone, orphan [*.tmp] litter from
      interrupted atomic writes;
    - {b checkpoints}: [*.ckpt] sidecars that fail the frame CRC, and
      stale sidecars for jobs already terminal;
    - {b session journals}: each
      [sessions/<sid>/journal.log] ({!Rtt_session.Session}) is scanned
      through the same {!Wal} as the main journal, decoding only the
      frame, for bytes past its committed mutation prefix — the same
      torn-tail class, repaired by truncating that journal alone;
    - {b cache}: checksum audit of every entry
      ({!Rtt_engine.Cache.audit}), and — when a budget is supplied — a
      fingerprint audit that re-validates each entry reachable from a
      spool instance against that instance ({!Rtt_engine.Validate}),
      so a forged or stale entry is flagged, not just a torn one.

    {!repair} fixes everything fixable locally: seals the journal
    tail and deletes corrupt cache entries, bad checkpoints, and tmp
    litter. Findings marked {!Backfill} — journal records or spool
    files that exist only on a peer — are left for the caller, which
    can pull them from a reachable primary or replica over the
    [repl.*] catch-up protocol and then {!scan} again. *)

type action =
  | Seal  (** Repairable locally by truncating the journal to its committed prefix. *)
  | Truncate of { path : string; bytes : int }
      (** Repairable locally by truncating this file (a session
          journal) to [bytes] — the per-journal generalization of
          {!Seal}. *)
  | Delete of string  (** Repairable locally by deleting this path. *)
  | Backfill  (** Needs records or files from a reachable primary/replica. *)
  | Note  (** Informational; never makes the spool dirty. *)

type finding = {
  code : string;  (** Stable kebab-case class, e.g. ["journal-torn-tail"]. *)
  file : string;  (** The file concerned (relative to the spool where sensible). *)
  detail : string;
  action : action;
}

type report = {
  findings : finding list;
  records : int;  (** Committed journal records. *)
  journal_bytes : int;  (** Journal size on disk. *)
  committed_bytes : int;  (** Byte length of the committed prefix. *)
  cache_entries : int;  (** Entries seen in the cache directory. *)
}

val scan :
  spool:string ->
  ?cache_dir:string ->
  ?budget:int ->
  ?policy:Rtt_engine.Policy.t ->
  unit ->
  report
(** Audit without mutating anything. The fingerprint audit of cache
    entries runs only when [budget] is supplied (the digest depends on
    it); [policy] defaults to {!Rtt_engine.Policy.default}. *)

val dirty : report -> bool
(** Whether any finding demands action ({!Note}s alone are clean). *)

val needs_backfill : report -> bool

val offer_zero : report -> bool
(** Whether a catch-up pull repairing this spool should offer
    watermark 0 rather than its committed record count: true when an
    attachment of an {e already-committed} record is missing (instance
    or result file), which only a full re-ship can restore. *)

val repair : spool:string -> report -> finding list * finding list
(** Apply every local repair in [report]: one journal seal if any
    finding asks for it, then the deletions. Returns
    [(performed, remaining)] — [remaining] is the {!Backfill} set.
    {!Note}s are neither performed nor remaining. *)

val render : report -> string
(** Human-readable multi-line rendering (one line per finding plus a
    summary); ends with a newline. *)

val clean_exit_code : int  (** 0 — nothing wrong. *)

val dirty_exit_code : int
(** 50 — damage found and (some of it) not repaired. *)

val repaired_exit_code : int
(** 51 — damage was found and fully repaired; the spool is clean now. *)
