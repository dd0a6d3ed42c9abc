(** Append-only, CRC-guarded campaign journal.

    The durability layer of the campaign engine: one line per record,
    each record a [crc32(payload)] in hex, a space, and the payload
    (which must not contain newlines).  Every append is a single
    [write(2)] followed by [fsync(2)], so after a crash the file is a
    valid record sequence plus at most one torn tail line.

    {!load} accepts exactly that: it returns the longest valid prefix of
    records and ignores anything after the first malformed or
    CRC-mismatching line.  {!replay} additionally classifies {e why} the
    prefix ended ({!recovery}), which is what lets the engine tell a
    crash artifact (torn tail — resumable) from storage corruption
    (a complete line with a bad CRC — rejected loudly rather than
    silently skewing weighted tallies).  {!open_resume} truncates the
    file back to the valid prefix so that subsequent appends never merge
    into a torn tail.

    The journal is format-agnostic — payload syntax belongs to the
    caller: {!Engine} stores one header record and one record per
    completed shard, and {!Worker}s stream the same shard records as
    single journal lines over their connections. *)

type writer

val create : string -> header:string -> writer
(** [create path ~header] truncates/creates [path] and appends the
    [header] payload as the first record (fsync'd, like every record). *)

val append : writer -> string -> unit
(** Append one record and fsync.
    @raise Invalid_argument if the payload contains a newline. *)

val close : writer -> unit

val encode_line : string -> string
(** Render one payload as a journal line (CRC hex, space, payload; no
    trailing newline) — the inverse of {!decode_line}.  Exposed for the
    worker protocol, whose workers stream each shard record as one
    journal line in a {!Frame.Seg} frame.
    @raise Invalid_argument if the payload contains a newline. *)

val decode_line : string -> string option
(** Decode one journal line (without its newline) to its payload; [None]
    if the line is malformed or its CRC does not match.  Exposed for
    the engine, which checks each worker's [Seg] line before merging
    it. *)

type recovery =
  | Clean  (** Every byte of the file is a valid record. *)
  | Torn_tail of int
      (** The last line has no terminating newline ([n] bytes dropped) —
          the expected artifact of a crashed append; safe to resume. *)
  | Corrupt_record of { line : int }
      (** A {e complete} line (1-based [line]) fails its CRC.  A single
          sequential writer cannot produce this by crashing — the
          storage lied.  The engine refuses to resume such a journal. *)

val load : string -> (string * string list) option
(** [load path] is [Some (header, records)] — the first record and the
    remaining valid prefix — or [None] if the file is missing, empty or
    its header record is torn. *)

val replay : string -> (string * string list * recovery) option
(** Like {!load}, read-only, but also reports how the valid prefix
    ended.  This is the engine's resume gate: [Corrupt_record] makes it
    reject the journal instead of silently dropping the suffix. *)

val open_resume : string -> (writer * string * string list) option
(** Like {!load}, but also truncates the file to the valid prefix and
    returns a writer positioned there, ready to append the remaining
    records.  Callers that must distinguish corruption from a torn tail
    check {!replay} first — truncation destroys the evidence. *)
