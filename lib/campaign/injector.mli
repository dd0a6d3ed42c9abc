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
      golden def/use trace) or at a cycle-shifted checkpoint — or is
      proven never to stop before the watchdog, instead of simulating the remaining cycles.  The
      non-termination proof ({!Loopproof}) is attempted at most once
      per faulty run, when a pc-recurrence probe first finds the run
      looping; if it fails, the run is simulated to its end.

    Both shortcuts are exact on the deterministic machine — outcomes are
    bit-identical to {!replay} (property-tested differentially) — so the
    checkpoint stride is a pure performance knob: it is deliberately
    excluded from campaign fingerprints and result-cache keys. *)

type provider
(** A session provider for one golden run. *)

val replay : Golden.t -> provider
(** The restart-from-reset reference provider. *)

val plan : ?stride:int -> Golden.t -> provider
(** Checkpoint-plan provider with a ladder every [stride] cycles
    (default {!default_stride}).  Costs one extra golden-speed replay
    plus [cycles/stride] machine snapshots up front.  [stride <= 0]
    degrades to {!replay}. *)

val default_stride : int
(** 128 — around a hundred checkpoints for the bundled kernels; memory
    cost is [cycles/stride] RAM images. *)

val provider_golden : provider -> Golden.t
(** The golden run the provider was built over. *)

type session
(** An injection session over monotonically non-decreasing injection
    cycles: one pristine machine rolled forward (or hopped forward along
    the provider's checkpoint ladder) between experiments.  A session
    also owns its loop prover's {!Loopproof.scratch} and its exit-path
    counters, so it is plain mutable state: conduct on it from one
    domain at a time (the engine opens one per shard). *)

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
    the exit, proof steps included) per path.  The counters are
    deterministic: they depend only on the provider and the
    experiments conducted, never on timing. *)

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
  proof_attempts : int;  (** Non-termination proofs attempted. *)
  failed_proofs : int;  (** … of which failed. *)
  failed_proof_cycles : int;
      (** Cycles stepped inside the failed proofs. *)
}

val session_stats : session -> session_stats
(** The session's counters so far.  The [runs] of all five paths sum to
    the experiments conducted; [loop_proof] plus [watchdog] runs are
    exactly the [Timeout] outcomes. *)

val exit_paths : session_stats -> (string * path_stats) list
(** The five paths in declaration order, named for tables. *)

val run_at : Golden.t -> Coordspace.coord -> Outcome.t
(** One-shot experiment at an arbitrary coordinate: a plan-of-one,
    conducted on a throwaway {!replay} session (building a checkpoint
    ladder for a single experiment would cost more than the experiment).

    @raise Invalid_argument if [coord] lies outside the fault space. *)
