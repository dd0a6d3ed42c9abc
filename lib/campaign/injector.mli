(** Single-experiment execution.

    One FI experiment: run the benchmark from reset until just before the
    injection cycle, flip one bit, resume to completion (or watchdog),
    and classify the outcome against the golden run — the procedure of
    Section III-B of the paper.

    Experiments are conducted through a {e session provider}: the
    per-campaign object that owns whatever acceleration state the
    experiments share, and hands out independent {!session}s.  Serial
    scans, samplers and every engine backend consume the same provider
    abstraction, so they all share one conduction code path.

    Two providers exist.  {!replay} re-executes from reset for every
    session (the textbook procedure; the reference semantics).  {!plan}
    replays the golden execution once, capturing a {!Machine.Snapshot}
    ladder every [stride] cycles, and then

    - starts each session's pristine machine from the nearest checkpoint
      at or below its first injection cycle instead of from reset, and
    - classifies a faulty run as soon as it provably re-converges with
      the golden execution — at a checkpoint (pc, cycle and every
      still-live RAM byte and register agree — liveness comes from the
      golden def/use trace) or at a cycle-shifted checkpoint — or
      reaches an exact state an earlier run of the same provider
      already reached (see {!section-memo}), or is proven never to stop
      before the watchdog, instead of simulating the remaining cycles.
      The non-termination proof ({!Loopproof}) is attempted at most
      once per faulty run, when a pc-recurrence probe first finds the
      run looping; if it fails, the run is simulated to its end.

    All shortcuts are exact on the deterministic machine — outcomes are
    bit-identical to {!replay} (property-tested differentially) — so the
    checkpoint stride is a pure performance knob: it is deliberately
    excluded from campaign fingerprints and result-cache keys.

    {1:memo The memo splice}

    Each {!plan} provider keeps one memo, shared by every session
    opened on it (from any domain; it is guarded by a mutex).  When the
    live-masked convergence check fails at ladder rung [i] and [i] is a
    multiple of an internal constant K, the run computes its exact
    state key against rung [i] ({!Machine.state_key}: pc, every
    register and RAM word that differs from the rung with its value,
    the serial length, whether the serial output so far is a golden
    prefix, and the detection-event count; the cycle is the rung's).
    If an earlier run published the same key — the key bytes are
    compared exactly on every hash match; a hash match alone never
    counts — the run ends with that run's outcome.  Otherwise the key
    is kept, and when the run ends, by whichever path, it publishes
    all of its keys with its outcome.

    Why this is exact: MMIO loads read 0 and ROM is immutable, so a
    running machine's future depends only on its pc, registers, RAM
    and cycle — two runs with equal keys at the same rung execute
    identically to the end.  {!Outcome.classify} reads only the stop
    reason, whether the whole output equals or is a proper prefix of
    the golden output, and whether the event count exceeds golden's.
    Output and events so far are the key's serial length, prefix flag
    and event count, followed by the shared future's output and
    events, so both runs classify alike.

    The memo's memory is bounded per provider: keys live off the OCaml
    heap in a fixed number of fixed-size generations, and a full
    generation retires the oldest one.  K, the bound and the eviction
    are internal constants, not options.  A provider reused for a
    second scan starts with the first scan's memo warm. *)

type provider
(** A session provider for one golden run. *)

val replay : Golden.t -> provider
(** The restart-from-reset reference provider. *)

val plan : ?stride:int -> Golden.t -> provider
(** Checkpoint-plan provider with a ladder every [stride] cycles
    (default {!default_stride}).  Costs one extra golden-speed replay
    plus [cycles/stride] machine snapshots up front, and a memo of at
    most 1.25 MiB outside the OCaml heap, allocated as runs publish to
    it.  [stride <= 0] degrades to {!replay}. *)

val default_stride : int
(** 128 — around a hundred checkpoints for the bundled kernels; memory
    cost is [cycles/stride] RAM images. *)

val provider_golden : provider -> Golden.t
(** The golden run the provider was built over. *)

type session
(** An injection session over monotonically non-decreasing injection
    cycles: one pristine machine rolled forward (or hopped forward along
    the provider's checkpoint ladder) between experiments.  A session
    also owns its loop prover's {!Loopproof.scratch}, its memo key
    buffers and its exit-path counters, so it is plain mutable state:
    conduct on it from one domain at a time (the engine opens one per
    shard).  Sessions of one provider may run in different domains at
    once; they share only the provider's memo, under its lock. *)

val session : provider -> session
(** Fresh session positioned at reset. *)

val session_run_at : session -> Coordspace.coord -> Outcome.t
(** Conduct one experiment at a fault-space coordinate on the session's
    pristine machine.  Injection cycles must be presented in
    non-decreasing order.

    @raise Invalid_argument if the coordinate lies outside the fault
    space, or on a decreasing injection cycle. *)

val session_run_flip :
  session -> cycle:int -> flip:(Machine.t -> unit) -> Outcome.t
(** Generalised injection: advance to [cycle − 1], fork, apply [flip]
    (any state mutation — e.g. a register bit flip for the Section-VI-B
    extension) and classify the resumed run.  Same monotonicity
    requirement as {!session_run_at}.

    @raise Invalid_argument on a decreasing injection cycle. *)

(** {2 Exit-path counters}

    Every experiment a session conducts ends on exactly one exit path;
    the session counts runs and simulated cycles (from the fault to
    the exit, proof steps included) per path.  Outcomes never depend on
    the path.  The counters of one session on a fresh provider are
    deterministic: they depend only on the experiments conducted.
    Sessions sharing a provider share its memo, so when several
    conduct concurrently, how runs split between the memo splice and
    the other paths depends on scheduling; and a provider that already
    conducted experiments starts the next session with its memo warm. *)

type path_stats = { runs : int; cycles : int }

type session_stats = {
  natural_stop : path_stats;
      (** The run halted, trapped or panicked on its own.  Under
          {!replay}, every run that beats the watchdog. *)
  ladder_splice : path_stats;
      (** Converged with a golden checkpoint at its own cycle. *)
  shifted_splice : path_stats;
      (** Converged with a golden checkpoint at a shifted cycle. *)
  loop_proof : path_stats;
      (** Proven never to stop before the watchdog (a [Timeout]). *)
  watchdog : path_stats;
      (** Simulated up to the watchdog limit (a [Timeout]). *)
  memo_splice : path_stats;
      (** Reached a state an earlier run of the provider reached, and
          took its outcome (see {!section-memo}). *)
  memo_timeouts : int;  (** Memo-splice runs whose outcome is [Timeout]. *)
  proof_attempts : int;  (** Non-termination proofs attempted. *)
  failed_proofs : int;  (** … of which failed. *)
  failed_proof_cycles : int;
      (** Cycles stepped inside the failed proofs. *)
}

val session_stats : session -> session_stats
(** The session's counters so far.  The [runs] of all six paths sum to
    the experiments conducted; [loop_proof] plus [watchdog] runs plus
    [memo_timeouts] are exactly the [Timeout] outcomes. *)

val exit_paths : session_stats -> (string * path_stats) list
(** The six paths in declaration order, named for tables. *)

val check_accounting : session_stats -> Outcome.t array -> (unit, string) result
(** [check_accounting st outcomes] checks that [st] accounts for the
    experiments whose outcomes are [outcomes]: the runs of all six paths
    sum to the experiments, and the [Timeout] outcomes are exactly the
    [loop_proof] plus [watchdog] runs plus [memo_timeouts].  [Error]
    names both sides of the identity that failed. *)

val run_at : Golden.t -> Coordspace.coord -> Outcome.t
(** One-shot experiment at an arbitrary coordinate: a plan-of-one,
    conducted on a throwaway {!replay} session (building a checkpoint
    ladder for a single experiment would cost more than the experiment).

    @raise Invalid_argument if [coord] lies outside the fault space. *)
