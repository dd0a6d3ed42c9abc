(** The campaign worker: one job format, one conductor, one torture hook,
    and the fork/exec spawn of the {!Pool.Processes} backend.

    Both worker backends speak one framed protocol ({!Frame}) over a
    {!Transport.conn}.  The conductor sends one [Job] frame carrying a
    {!wire_job}; the worker re-analyses the cell, refuses if its own
    fingerprint disagrees with the conductor's, conducts its shards in
    order and answers with [Seg] frames (one CRC-guarded journal-format
    record line per completed shard) and [Door] frames (doorbell lines:
    [h] heartbeats while a shard is conducted, [s <id>] per completed
    shard, [end] on clean completion).  A failure goes back as one [Err]
    frame before the worker exits 3.  EOF on the connection is the
    conductor's death notice, whatever the cause.

    The two backends differ only in the transport:
    - a {e local} worker ({!spawn}) is this very executable re-exec'd
      with [FI_ENGINE_WORKER=1] in its environment; its connection is a
      private socketpair on the child's stdin, and the first thing every
      engine-hosting binary does is call {!guard}, which diverts such a
      process into {!conduct_frame} before any other code runs.  Its
      stdout goes to the parent's stderr, so stray output cannot
      corrupt frames;
    - a {e remote} worker ({!Remote}) is a daemon's forked child on a TCP
      connection, reached after a version + binary-digest handshake.

    Nothing is written to disk on the worker side: the parent merges
    each record into the campaign journal (fsync'd there) as its frame
    arrives, so a worker killed mid-shard costs only its unfinished
    shards, which the supervisor retries or [--resume] replays. *)

val torture_var : string
(** ["FI_ENGINE_TORTURE"] — fault-injection hook for the engine's own
    torture tests, honoured by local and remote workers alike: ["MODE:N"]
    or ["MODE:N:WORKER"] makes a worker (the [WORKER]-indexed one, or
    all) misbehave once it has completed [N] shards.  [MODE] is [exit]
    (exit code 7), [raise] (uncaught exception: an [Err] frame, exit 3),
    [sigkill] (SIGKILL itself between shards), [torn] (send a
    CRC-invalid record line, then SIGKILL — a crash mid-record), [hang]
    (sleep forever: no heartbeat, no progress — only a supervision
    deadline ends it) or [stall] (livelock: heartbeats keep flowing but
    shard progress stops).  [poison:S[:W]] is different: [S] is a {e
    plan shard id}, and the worker SIGKILLs itself immediately before
    conducting that shard — the deterministic poison coordinate that
    exercises shard quarantine, since it follows the shard through every
    retry.  Unset, empty or unparseable values inject nothing. *)

(** {1 The job} *)

type wire_job = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  limit : int option;
  shard_size : int option;
  weighted : bool;
  stride : int option;
      (** The conductor's checkpoint stride, honoured by the worker so
          both ends accelerate identically.  A pure perf knob — not part
          of the fingerprint the worker verifies (outcomes are
          bit-identical at any stride). *)
  program : Program.t;  (** The assembled image — plain data. *)
  fingerprint : int;  (** Conductor's campaign fingerprint; verified. *)
  shard_ids : int array;  (** Plan shard ids to conduct, in order. *)
  index : int;
      (** Spawn ordinal within the cell (retry workers get fresh
          indices), for diagnostics and [torture] targeting. *)
}
(** The Runcell-level cell description: the program image plus the
    policy fields that shape the shard plan.  It captures no code, so
    the same job crosses a socketpair or a machine boundary. *)

val encode_job : wire_job -> string
(** Versioned wire format: a [fi-wire v1] magic then [Marshal] {e
    without} [Closures] — sound because both ends run the same
    executable (by construction for local workers, pinned by the
    handshake's binary digest for remote ones). *)

val decode_job : string -> wire_job option

val wire_of_spec :
  Spec.t ->
  program:Program.t ->
  fingerprint:int ->
  shard_ids:int array ->
  index:int ->
  wire_job

val spec_of_wire : wire_job -> Spec.t
(** Rebuild a [Spec.Build] spec around the shipped image.  Only the
    plan-shaping policy fields (and the checkpoint stride) cross the
    wire; journalling, resume and supervision stay with the conducting
    parent. *)

val program_of_spec : Spec.t -> Program.t
(** Extract the program image a spec describes (building it if the
    source is a thunk). *)

(** {1 The worker side} *)

val conduct_frame : Transport.conn -> Frame.kind * string -> unit
(** The one conductor of a job's shards, given the frame that should
    carry the job: decode it, re-analyse the cell, verify the
    fingerprint and shard-id range, then per shard apply the torture
    hook, conduct it ([Door "h"] heartbeats, throttled), and send its
    record ([Seg]) and doorbell ([Door "s <id>"]); finally [Door "end"].
    Raises on a non-[Job] or undecodable frame, fingerprint disagreement
    or an out-of-range shard id. *)

val exit_reporting : Transport.conn -> (unit -> unit) -> 'a
(** [exit_reporting conn f] runs [f ()], then closes [conn] and exits 0;
    if [f] raises, the exception goes back as an [Err] frame (and to
    stderr) and the process exits 3.  The tail of every worker process,
    local or remote. *)

val guard : unit -> unit
(** Call first in every [main] of a binary that runs campaigns (the CLI,
    the test runners).  If [FI_ENGINE_WORKER=1] is set, reads one [Job]
    frame from the socketpair on stdin, conducts it ({!conduct_frame})
    and exits (0 on success, 3 on failure) — otherwise returns
    immediately. *)

(** {1 The parent side} *)

type child = {
  pid : int;
  conn : Transport.conn;  (** The parent's end of the socketpair. *)
  index : int;
  assigned : int array;
}
(** A spawned local worker. *)

val spawn : wire_job -> child
(** Fork/exec [Sys.executable_name] with [FI_ENGINE_WORKER=1] set, its
    stdin one end of a fresh close-on-exec socketpair (so a sibling
    worker never holds another worker's socket open and EOF stays the
    death notice) and its stdout the parent's stderr, then send the
    [Job] frame.  The caller must be ignoring [SIGPIPE] (the engine's
    worker scheduler is): a child that dies before reading its job
    surfaces as a supervision event, not a parent crash. *)

val wait : child -> Unix.process_status
(** [waitpid] (blocking; call after EOF on [conn] — or after
    {!kill}). *)

val kill : child -> unit
(** SIGKILL the worker (no-op if it is already gone).  The supervisor's
    answer to a blown deadline; EOF on [conn] follows. *)
