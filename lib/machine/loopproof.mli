(** Sound non-termination proofs for loop-bound faulty runs.

    Exact state-recurrence detection would only catch loops whose
    machine state repeats verbatim.  Most watchdog-bound faulty runs
    are not like that: a corrupted loop bound leaves the program iterating with a counter (and often a
    chaotically drifting accumulator) that never revisits a state.
    This module proves non-termination for exactly that shape of loop
    by abstract interpretation of a single recorded period: each
    register and touched RAM cell is modelled as constant, exactly
    affine in the period index, or opaque, and the proof succeeds only
    if every branch in the period is decided the same way for every
    period up to the cycle limit, no instruction can trap, and the
    period's end state provably reproduces the model advanced by one
    period.  By induction, the machine then repeats the same pc
    sequence until the limit.

    The proof deliberately ignores serial output and detection events
    emitted inside the loop: its only legitimate use is classifying
    the run as {!Machine.Cycle_limit}, an outcome that depends on
    neither (see {!Fi_campaign.Outcome.classify}). *)

type scratch
(** Reusable working buffers for {!prove_no_halt}: the period scan
    window, three pc-occurrence tables sized to the program's code,
    and the recorded period.  They grow once, on first use, to fit the
    program; each attempt resets only the table entries its own scan
    touched, so a failed proof allocates nothing on the major heap.
    A scratch is plain mutable state: use one per domain (an injection
    session owns one), never share it between concurrent provers. *)

val scratch : unit -> scratch
(** An empty scratch; it sizes itself on first use. *)

val prove_no_halt : scratch -> Machine.t -> limit:int -> bool
(** [prove_no_halt sc m ~limit] — can machine [m] (running, typically
    parked at a loop head by {!Machine.probe_pc_recurrence}) be proven
    never to stop before having executed [limit] total cycles?

    [true] is a proof: the caller may classify the run as the watchdog
    would at [limit] without simulating it.  [false] is merely "could
    not prove it" — the run may or may not halt.  The answer depends
    only on [m] and [limit], never on what [sc] was used for before.

    The machine is advanced a bounded number of cycles (at most a few
    loop periods, capped well below typical watchdog budgets) while
    the proof anchors and records a period; these are real, faithful
    execution steps, so the caller can simply resume simulating from
    wherever the machine ends up — including re-checking
    [Machine.stopped], since an analysis attempt may legitimately step
    the machine to a stop.  Stopped machines return [false]. *)
