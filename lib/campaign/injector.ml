let check_coord golden coord =
  let total_cycles = golden.Golden.cycles in
  let ram_size = golden.Golden.program.Program.ram_size in
  if not (Coordspace.contains ~total_cycles ~ram_size coord) then
    invalid_arg
      (Format.asprintf "Injector: coordinate %a outside fault space"
         Coordspace.pp_coord coord)

let classify_stopped golden machine stop =
  Outcome.classify ~golden_output:golden.Golden.output
    ~golden_event_count:golden.Golden.event_count ~stop
    ~output:(Machine.serial_output machine)
    ~event_count:(Machine.event_count machine)

(* ------------------------------------------------------------------ *)
(* Checkpoint plans                                                   *)
(* ------------------------------------------------------------------ *)

let default_stride = 128

(* A checkpoint ladder over the golden execution, plus per-checkpoint
   live-in masks that make convergence comparisons sound: a faulty run
   that agrees with a golden checkpoint on pc, cycle count and every RAM
   byte / register the golden tail still reads before overwriting
   provably replays that tail, so its outcome is computable without
   simulating it. *)
type plan = {
  stride : int;
  ladder : Machine.Snapshot.t array; (* ascending cycles, running states *)
  ladder_cycles : int array;
  ram_live : int array array; (* per ladder entry: live-in RAM bytes *)
  reg_mask : int array; (* per ladder entry: live-in register bitmask *)
  shift_index : (int, int) Hashtbl.t;
      (* golden {!Machine.state_hash} at every cycle -> that cycle, for
         guessing the offset of cycle-shifted re-convergence *)
  memo : memo; (* exact states earlier runs reached, with their outcomes *)
}

(* The memo of one plan provider, shared by all of its sessions (and
   so by every domain conducting on it), guarded by [lock].  It maps
   exact state keys ({!Machine.state_key} against the rung the run was
   keyed at) to the outcome of a run that reached that state.  Keys
   live off the OCaml heap — a heap table costs its GC slack on top of
   its data — in at most [memo_generations] generations of
   [memo_gen_bytes] each.  When the newest is full, the oldest is
   emptied and becomes the newest, so the memo's memory is bounded and
   recent keys survive.  Generations are allocated on first use. *)
and memo = { lock : Mutex.t; mutable gens : gen list (* newest first *) }

and gen = {
  arena :
    (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* entries: outcome index, 2-byte key length, key bytes *)
  index : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* open addressing: 0 empty, else [tag lsl off_bits lor (entry + 1)] *)
  mutable used : int; (* arena bytes *)
  mutable entries : int;
}

(* Walk one location's chronological access list ([(cycle, is_read)],
   reads before writes within a cycle) against the ascending ladder
   cycles: the location is live-in at checkpoint [c] iff its first
   access after [c] is a read. *)
let fold_live_in ~ladder_cycles accesses ~live =
  let nl = Array.length ladder_cycles in
  let rec fill i accesses =
    if i < nl then
      match accesses with
      | [] -> () (* never accessed again: dead for every later entry *)
      | (a, is_read) :: rest ->
          if a <= ladder_cycles.(i) then fill i rest
          else begin
            if is_read then live i;
            fill (i + 1) accesses
          end
  in
  fill 0 accesses

(* Replay the golden execution once more (plain compiled machine, no
   tracer), indexing the golden {!Machine.state_hash} of every cycle
   for shift guessing. *)
let shift_index golden =
  let index = Hashtbl.create (2 * golden.Golden.cycles) in
  let machine = Machine.create golden.Golden.program in
  while Machine.stopped machine = None do
    Machine.step machine;
    if Machine.stopped machine = None then
      Hashtbl.add index (Machine.state_hash machine) (Machine.cycle machine)
  done;
  index

let build_plan golden ~stride =
  (* Replay the golden execution once, tracing register accesses for
     the register live-in masks and capturing the checkpoint ladder. *)
  let reg_acc = Array.make 16 [] in
  let exec_tracer ~cycle instr =
    let writes, reads = Isa.defs_uses instr in
    List.iter
      (fun r ->
        let i = Isa.reg_index r in
        reg_acc.(i) <- (cycle, true) :: reg_acc.(i))
      reads;
    List.iter
      (fun r ->
        let i = Isa.reg_index r in
        reg_acc.(i) <- (cycle, false) :: reg_acc.(i))
      writes
  in
  let machine = Machine.create ~exec_tracer golden.Golden.program in
  let stop, ladder =
    Machine.run_checkpointed machine ~stride
      ~limit:(golden.Golden.cycles + 1)
  in
  (match stop with
  | Machine.Halted -> ()
  | reason ->
      (* The machine is deterministic; a divergence here is a bug. *)
      invalid_arg
        (Format.asprintf "Injector: checkpoint replay stopped with %a"
           Machine.pp_stop_reason reason));
  let ladder_cycles = Array.map Machine.Snapshot.cycle ladder in
  let nl = Array.length ladder_cycles in
  let ram_size = golden.Golden.program.Program.ram_size in
  let ram_acc = Array.make ram_size [] in
  Trace.iter_byte_accesses golden.Golden.trace (fun ~byte ~cycle ~kind ->
      ram_acc.(byte) <- (cycle, kind = Trace.Read) :: ram_acc.(byte));
  let live_lists = Array.make nl [] in
  for b = ram_size - 1 downto 0 do
    let accesses =
      List.sort
        (fun (c1, r1) (c2, r2) ->
          if c1 <> c2 then compare c1 c2 else compare r2 r1 (* reads first *))
        (List.rev ram_acc.(b))
    in
    fold_live_in ~ladder_cycles accesses ~live:(fun i ->
        live_lists.(i) <- b :: live_lists.(i))
  done;
  let reg_mask = Array.make nl 0 in
  for r = 1 to 15 do
    let accesses = List.rev reg_acc.(r) in
    fold_live_in ~ladder_cycles accesses ~live:(fun i ->
        reg_mask.(i) <- reg_mask.(i) lor (1 lsl r))
  done;
  {
    stride;
    ladder;
    ladder_cycles;
    ram_live = Array.map Array.of_list live_lists;
    reg_mask;
    shift_index = shift_index golden;
    memo = { lock = Mutex.create (); gens = [] };
  }

(* ------------------------------------------------------------------ *)
(* The memo                                                           *)
(* ------------------------------------------------------------------ *)

(* A run keys its state at every [memo_every]-th ladder rung where the
   live-masked convergence check failed — keying costs a pass over
   RAM, so not at every rung.  Keys longer than [memo_key_max] bytes
   (widely divergent states, rarely met twice) are not kept. *)
let memo_every = 16
let memo_key_max = 1024

(* Four generations of 256 KiB of keys plus a 64 KiB index each: at
   most 1.25 MiB per provider.  Serial scans of the four paper cells
   took 539.9 M cycles with it, against 564.2 M with one 1 MiB table
   cleared when full; eight generations of 128 KiB gained nothing. *)
let memo_generations = 4
let memo_gen_bytes = 1 lsl 18
let memo_slots = memo_gen_bytes / 32 (* a power of two *)
let off_bits = 22 (* entry offsets + 1 fit: [memo_gen_bytes < 1 lsl 22] *)
let tag_mask = (1 lsl 40) - 1

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let rec hash_from buf i e h =
  if i + 8 <= e then
    hash_from buf (i + 8) e
      ((h lxor Int64.to_int (get64u buf i)) * 0x100000001b3)
  else if i < e then
    hash_from buf (i + 1) e
      ((h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3)
  else
    let h = h * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

let key_hash buf off len = hash_from buf off (off + len) (len + 0xcbf29ce484222)

let gen_create () =
  let open Bigarray in
  let index = Array1.create int c_layout memo_slots in
  Array1.fill index 0;
  {
    arena = Array1.create int8_unsigned c_layout memo_gen_bytes;
    index;
    used = 0;
    entries = 0;
  }

let gen_clear g =
  Bigarray.Array1.fill g.index 0;
  g.used <- 0;
  g.entries <- 0

let rec entry_matches arena e buf off len i =
  i >= len
  || Bigarray.Array1.unsafe_get arena (e + 3 + i)
     = Char.code (Bytes.unsafe_get buf (off + i))
     && entry_matches arena e buf off len (i + 1)

(* The outcome index stored under the key [buf.[off, off+len)] with
   hash [h] in [g], or [-1]. *)
let rec gen_find g h buf off len slot =
  let v = Bigarray.Array1.unsafe_get g.index slot in
  if v = 0 then -1
  else
    let e = (v land ((1 lsl off_bits) - 1)) - 1 in
    let a = g.arena in
    if
      v lsr off_bits = (h lsr 20) land tag_mask
      && Bigarray.Array1.unsafe_get a (e + 1)
         lor (Bigarray.Array1.unsafe_get a (e + 2) lsl 8)
         = len
      && entry_matches a e buf off len 0
    then Bigarray.Array1.unsafe_get a e
    else gen_find g h buf off len ((slot + 1) land (memo_slots - 1))

let rec memo_find gens h buf off len =
  match gens with
  | [] -> -1
  | g :: older ->
      let o = gen_find g h buf off len (h land (memo_slots - 1)) in
      if o >= 0 then o else memo_find older h buf off len

let gen_full g len =
  g.used + 3 + len > memo_gen_bytes || 4 * g.entries >= 3 * memo_slots

(* The generation to add a [len]-byte key to, retiring the oldest
   generation when the newest is full.  Under the lock. *)
let memo_room memo len =
  match memo.gens with
  | g :: _ when not (gen_full g len) -> g
  | gens ->
      let g =
        if List.length gens < memo_generations then gen_create ()
        else begin
          let oldest = List.nth gens (memo_generations - 1) in
          gen_clear oldest;
          oldest
        end
      in
      memo.gens <- g :: List.filteri (fun i _ -> i < memo_generations - 1) gens;
      g

let rec gen_place index v slot =
  if Bigarray.Array1.unsafe_get index slot = 0 then
    Bigarray.Array1.unsafe_set index slot v
  else gen_place index v ((slot + 1) land (memo_slots - 1))

let gen_add g h buf off len outcome =
  let a = g.arena and e = g.used in
  Bigarray.Array1.unsafe_set a e outcome;
  Bigarray.Array1.unsafe_set a (e + 1) (len land 0xFF);
  Bigarray.Array1.unsafe_set a (e + 2) (len lsr 8);
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set a (e + 3 + i)
      (Char.code (Bytes.unsafe_get buf (off + i)))
  done;
  g.used <- e + 3 + len;
  g.entries <- g.entries + 1;
  gen_place g.index
    ((((h lsr 20) land tag_mask) lsl off_bits) lor (e + 1))
    (h land (memo_slots - 1))

(* Outcome of a run that provably re-converged with the golden
   execution at ladder checkpoint [snap], at its own or a shifted
   cycle: the tail replays golden, so splice the golden tail onto
   what the faulty run emitted so far.  Serial output and events are
   execution history, not machine state, so the splice is sound even
   when the prefixes disagree — the run just carries its corrupted
   prefix under the golden tail. *)
let spliced_outcome golden machine (snap : Machine.Snapshot.t) =
  let mark = Machine.Snapshot.serial_length snap in
  let event_count =
    Machine.event_count machine
    + (golden.Golden.event_count - Machine.Snapshot.event_count snap)
  in
  let golden_output = golden.Golden.output in
  let output =
    if Machine.serial_agrees machine ~prefix:golden_output ~len:mark then
      golden_output (* tail splice yields exactly the golden output *)
    else
      Machine.serial_output machine
      ^ String.sub golden_output mark (String.length golden_output - mark)
  in
  Outcome.classify ~golden_output ~golden_event_count:golden.Golden.event_count
    ~stop:Machine.Halted ~output ~event_count

(* A run proven never to stop before the watchdog (by {!Loopproof}),
   or simulated up to it: classify as the watchdog would. *)
let timeout_outcome golden machine =
  classify_stopped golden machine Machine.Cycle_limit

(* ------------------------------------------------------------------ *)
(* Sessions and their exit-path counters                              *)
(* ------------------------------------------------------------------ *)

type impl = Replay | Planned of plan
type provider = { p_golden : Golden.t; impl : impl }

type exit_path =
  | Natural_stop
  | Ladder_splice
  | Shifted_splice
  | Loop_proof
  | Watchdog
  | Memo_splice

let path_slot = function
  | Natural_stop -> 0
  | Ladder_splice -> 1
  | Shifted_splice -> 2
  | Loop_proof -> 3
  | Watchdog -> 4
  | Memo_splice -> 5

let all_paths =
  [
    Natural_stop; Ladder_splice; Shifted_splice; Loop_proof; Watchdog;
    Memo_splice;
  ]

type session = {
  provider : provider;
  mutable pristine : Machine.t;
  mutable at : int; (* cycles executed on the pristine machine *)
  scratch : Loopproof.scratch; (* this session's prover buffers *)
  exits : int array; (* per exit path slot: runs at 2i, cycles at 2i+1 *)
  mutable failed_proofs : int;
  mutable failed_proof_cycles : int;
  mutable memo_timeouts : int; (* memo-splice runs that timed out *)
  key : Bytes.t; (* the state key under construction *)
  mutable pending : Bytes.t; (* this run's keys: 2-byte length, bytes *)
  mutable pending_len : int;
}

(* Count one finished run: [cycles] simulated after the fault. *)
let exit_run s path ~cycles outcome =
  let i = 2 * path_slot path in
  s.exits.(i) <- s.exits.(i) + 1;
  s.exits.(i + 1) <- s.exits.(i + 1) + cycles;
  if path = Memo_splice && outcome = Outcome.Timeout then
    s.memo_timeouts <- s.memo_timeouts + 1;
  outcome

(* Key the run's state at rung [snap].  A key an earlier run published
   yields its outcome index; otherwise the key joins the run's pending
   keys and the result is [-1]. *)
let memo_consult s memo snap golden machine =
  let len =
    Machine.state_key machine snap ~golden_output:golden.Golden.output s.key
  in
  if len < 0 then -1
  else begin
    let h = key_hash s.key 0 len in
    Mutex.lock memo.lock;
    let o = memo_find memo.gens h s.key 0 len in
    Mutex.unlock memo.lock;
    if o < 0 then begin
      let need = s.pending_len + 2 + len in
      if need > Bytes.length s.pending then begin
        let p = Bytes.create (max need (2 * Bytes.length s.pending)) in
        Bytes.blit s.pending 0 p 0 s.pending_len;
        s.pending <- p
      end;
      Bytes.set_uint16_le s.pending s.pending_len len;
      Bytes.blit s.key 0 s.pending (s.pending_len + 2) len;
      s.pending_len <- need
    end;
    o
  end

let rec publish_from memo pending ~until off o =
  if off < until then begin
    let len = Bytes.get_uint16_le pending off in
    let h = key_hash pending (off + 2) len in
    gen_add (memo_room memo len) h pending (off + 2) len o;
    publish_from memo pending ~until (off + 2 + len) o
  end

(* Publish the run's pending keys under its [outcome]: every state the
   run keyed leads to it. *)
let memo_publish s memo outcome =
  if s.pending_len > 0 then begin
    Mutex.lock memo.lock;
    publish_from memo s.pending ~until:s.pending_len 0 (Outcome.index outcome);
    Mutex.unlock memo.lock;
    s.pending_len <- 0
  end

(* A run that outlives the whole golden ladder can never converge any
   more — it is either going to stop on its own or spin to the
   watchdog.  Past that point, arm a cheap pc-recurrence probe; when it
   first fires (the run revisits an instruction — it is looping),
   attempt a {!Loopproof} non-termination proof.  Success classifies
   the run as the watchdog would.  Failure spends the run's one
   attempt: almost every provable loop is proven at its first trigger,
   so the probe is disarmed and the rest of the run is simulated in
   the probe-free loop, so the probe is armed at most once per run.

   [probe_miss_arm] consecutive failed ladder-boundary convergence
   checks (with no live shift hypothesis) arm the probe early: a run that has been divergent for this many strides is usually either
   about to stop on its own or stuck in a loop, and the probe makes the
   latter cheap to prove long before the ladder runs out. *)
let probe_miss_arm = 6

let finish_planned s plan golden machine ~c0 =
  let limit = Golden.timeout_limit golden in
  s.pending_len <- 0;
  let finish path outcome =
    memo_publish s plan.memo outcome;
    exit_run s path ~cycles:(Machine.cycle machine - c0) outcome
  in
  let nl = Array.length plan.ladder in
  (* First ladder entry strictly ahead of the machine. *)
  let start =
    let cyc = Machine.cycle machine in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if plan.ladder_cycles.(mid) <= cyc then search (mid + 1) hi
        else search lo mid
    in
    search 0 nl
  in
  let armed = ref false in
  let delta = ref 0 in
  let dj = ref nl in (* next shifted ladder entry to test; [nl] = none *)
  let dfail = ref 0 in (* consecutive failed rendezvous tests *)
  let misses = ref 0 in
  let rec go i =
    (* Never arm while a shift hypothesis is live: a failed proof
       attempt steps the machine thousands of cycles past the shifted
       boundaries the hypothesis needs to test at.  Hypotheses are
       short-lived (see [dfail]), so loop-bound runs still get the
       probe promptly. *)
    if
      (i >= nl || !misses >= probe_miss_arm) && !dj >= nl && not !armed
    then begin
      Machine.probe_pc_recurrence machine;
      armed := true
    end;
    let target =
      let ntarget =
        if i < nl then plan.ladder_cycles.(i)
        else min (Machine.cycle machine + plan.stride) limit
      in
      if !dj < nl then min ntarget (plan.ladder_cycles.(!dj) + !delta)
      else ntarget
    in
    Machine.run_until machine ~cycle:target;
    match Machine.stopped machine with
    | Some stop -> finish Natural_stop (classify_stopped golden machine stop)
    | None ->
        if Machine.pc_recurrence machine <> None then begin
          let c = Machine.cycle machine in
          if Loopproof.prove_no_halt s.scratch machine ~limit then
            finish Loop_proof (timeout_outcome golden machine)
          else begin
            (* Unprovable loop (or a false alarm): the run's one attempt
               is spent.  Resume simulating without the probe — the
               attempt's steps were real execution, so the machine is
               simply further along. *)
            s.failed_proofs <- s.failed_proofs + 1;
            s.failed_proof_cycles <-
              s.failed_proof_cycles + (Machine.cycle machine - c);
            Machine.disarm_pc_recurrence machine;
            go i
          end
        end
        else begin
          let cyc = Machine.cycle machine in
          if !dj < nl && cyc >= plan.ladder_cycles.(!dj) + !delta then begin
            (* A shifted ladder boundary: test the shift hypothesis.
               [rendezvous_with] is sound at any cycle, so a hit proves
               the run replays golden's tail shifted by [delta]. *)
            let j = !dj in
            dj := j + 1;
            if
              Machine.rendezvous_with machine plan.ladder.(j)
                ~ram_live:plan.ram_live.(j) ~reg_mask:plan.reg_mask.(j)
              && cyc + (golden.Golden.cycles - plan.ladder_cycles.(j))
                 <= limit
            then
              finish Shifted_splice
                (spliced_outcome golden machine plan.ladder.(j))
            else begin
              incr dfail;
              if !dfail >= 24 then dj := nl (* hypothesis refuted *);
              go i
            end
          end
          else if i < nl && cyc = plan.ladder_cycles.(i) then
            if
              Machine.converges_with machine plan.ladder.(i)
                ~ram_live:plan.ram_live.(i) ~reg_mask:plan.reg_mask.(i)
            then
              finish Ladder_splice
                (spliced_outcome golden machine plan.ladder.(i))
            else begin
              (* Missed.  A state an earlier run reached at this rung
                 has that run's outcome (keyed every [memo_every]-th
                 rung). *)
              let hit =
                if i mod memo_every = 0 then
                  memo_consult s plan.memo plan.ladder.(i) golden machine
                else -1
              in
              if hit >= 0 then finish Memo_splice (Outcome.of_index hit)
              else begin
                (* Maybe the run re-converged with a cycle
                   shift: a golden state-hash hit at another cycle names
                   the candidate offset, and the rendezvous tests above
                   verify or refute it soundly at shifted boundaries. *)
                (match
                   Hashtbl.find_opt plan.shift_index
                     (Machine.state_hash machine)
                 with
                | Some g when g <> cyc ->
                    let d = cyc - g in
                    if d <> !delta || !dj >= nl then begin
                      dfail := 0;
                      delta := d;
                      (* First ladder entry whose shifted cycle is ahead. *)
                      let rec search lo hi =
                        if lo >= hi then lo
                        else
                          let mid = (lo + hi) / 2 in
                          if plan.ladder_cycles.(mid) + d <= cyc then
                            search (mid + 1) hi
                          else search lo mid
                      in
                      dj := search 0 nl
                    end
                | Some _ | None -> incr misses);
                go (i + 1)
              end
            end
          else if cyc >= limit then
            finish Watchdog (timeout_outcome golden machine)
          else go (if i < nl && cyc >= plan.ladder_cycles.(i) then i + 1 else i)
        end
  in
  go start

(* ------------------------------------------------------------------ *)
(* Session providers                                                  *)
(* ------------------------------------------------------------------ *)

let provider_golden p = p.p_golden
let replay golden = { p_golden = golden; impl = Replay }

let plan ?(stride = default_stride) golden =
  if stride <= 0 then replay golden
  else { p_golden = golden; impl = Planned (build_plan golden ~stride) }

let session provider =
  {
    provider;
    pristine = Machine.create provider.p_golden.Golden.program;
    at = 0;
    scratch = Loopproof.scratch ();
    exits = Array.make (2 * List.length all_paths) 0;
    failed_proofs = 0;
    failed_proof_cycles = 0;
    memo_timeouts = 0;
    key = Bytes.create memo_key_max;
    pending = Bytes.create 4096;
    pending_len = 0;
  }

type path_stats = { runs : int; cycles : int }

type session_stats = {
  natural_stop : path_stats;
  ladder_splice : path_stats;
  shifted_splice : path_stats;
  loop_proof : path_stats;
  watchdog : path_stats;
  memo_splice : path_stats;
  memo_timeouts : int;
  proof_attempts : int;
  failed_proofs : int;
  failed_proof_cycles : int;
}

let session_stats (s : session) =
  let path p =
    let i = 2 * path_slot p in
    { runs = s.exits.(i); cycles = s.exits.(i + 1) }
  in
  let loop_proof = path Loop_proof in
  {
    natural_stop = path Natural_stop;
    ladder_splice = path Ladder_splice;
    shifted_splice = path Shifted_splice;
    loop_proof;
    watchdog = path Watchdog;
    memo_splice = path Memo_splice;
    memo_timeouts = s.memo_timeouts;
    (* every attempt either proves its run or fails *)
    proof_attempts = loop_proof.runs + s.failed_proofs;
    failed_proofs = s.failed_proofs;
    failed_proof_cycles = s.failed_proof_cycles;
  }

let exit_paths st =
  [
    ("natural stop", st.natural_stop);
    ("ladder splice", st.ladder_splice);
    ("shifted splice", st.shifted_splice);
    ("loop proof", st.loop_proof);
    ("watchdog", st.watchdog);
    ("memo splice", st.memo_splice);
  ]

let check_accounting st outcomes =
  let runs = List.fold_left (fun n (_, p) -> n + p.runs) 0 (exit_paths st) in
  let timeouts =
    Array.fold_left
      (fun n o -> if o = Outcome.Timeout then n + 1 else n)
      0 outcomes
  in
  let experiments = Array.length outcomes in
  if runs = experiments
     && timeouts = st.loop_proof.runs + st.watchdog.runs + st.memo_timeouts
  then Ok ()
  else
    Error
      (Printf.sprintf
         "exit-path counters do not account for the campaign (%d runs for \
          %d experiments; %d timeouts vs %d proven + %d watchdog + %d \
          memo-spliced)"
         runs experiments timeouts st.loop_proof.runs st.watchdog.runs
         st.memo_timeouts)

(* Rolling [hop_min] cycles costs about as much as one checkpoint
   restore; hop only when the restore actually skips work. *)
let hop_min = 64

let advance s target =
  if target < s.at then
    invalid_arg "Injector.session_run_at: injection cycles must not decrease";
  (match s.provider.impl with
  | Planned plan when target > s.at ->
      (* Greatest ladder entry at or below [target]. *)
      let cycles = plan.ladder_cycles in
      let n = Array.length cycles in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cycles.(mid) <= target then search (mid + 1) hi
          else search lo mid
      in
      let i = search 0 n - 1 in
      if i >= 0 && cycles.(i) >= s.at + hop_min then begin
        s.pristine <- Machine.Snapshot.restore plan.ladder.(i) ~tracer:None;
        s.at <- cycles.(i)
      end
  | Planned _ | Replay -> ());
  if target > s.at then begin
    Machine.run_until s.pristine ~cycle:target;
    s.at <- target
  end

let session_run_flip s ~cycle ~flip =
  advance s (cycle - 1);
  let machine = Machine.fork s.pristine in
  let c0 = Machine.cycle machine in
  flip machine;
  let golden = s.provider.p_golden in
  match s.provider.impl with
  | Replay ->
      let stop = Machine.run machine ~limit:(Golden.timeout_limit golden) in
      exit_run s
        (if stop = Machine.Cycle_limit then Watchdog else Natural_stop)
        ~cycles:(Machine.cycle machine - c0)
        (classify_stopped golden machine stop)
  | Planned plan -> finish_planned s plan golden machine ~c0

let session_run_at s coord =
  check_coord s.provider.p_golden coord;
  session_run_flip s ~cycle:coord.Coordspace.cycle ~flip:(fun machine ->
      Machine.flip_bit machine coord.Coordspace.bit)

let run_at golden coord =
  (* Plan-of-one: a throwaway replay session.  Building a ladder for a
     single experiment would cost more than the experiment. *)
  session_run_at (session (replay golden)) coord
