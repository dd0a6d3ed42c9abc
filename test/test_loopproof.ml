(* Unit tests for Loopproof: it proves a hand-built non-terminating
   counter loop, refuses a loop that exits (leaving the machine exactly
   where plain stepping would have), and answers the same with a
   scratch reused across many attempts as with a fresh one. *)

let r = Isa.reg

(* A counter loop that exits after [bound] iterations, storing the
   counter to RAM every period so the proof tracks a memory cell too,
   behind [prologue] straight-line instructions and padded with [body]
   more in the loop (period [body + 4]):

     0 .. p-1:      addi r3, r3, 1       (prologue, p = [prologue])
     p:             li   r1, 0
     p+1:           li   r2, bound
     p+2:           addi r1, r1, 1       (loop head)
     p+3:           sw   r1, 8(r0)
     p+4 .. :       addi r3, r3, 1       ([body] times)
     p+body+4:      beq  r1, r2 -> halt
     p+body+5:      jmp  p+2
     p+body+6:      halt *)
let loop_prog ?(prologue = 0) ?(body = 0) bound =
  let p = prologue in
  let bump = Isa.Alui (Isa.Add, r 3, r 3, 1l) in
  Program.make ~name:(Printf.sprintf "loop(%d,%d,%d)" p body bound)
    ~ram_size:64
    ~code:
      (Array.concat
         [
           Array.make p bump;
           [|
             Isa.Li (r 1, 0l);
             Isa.Li (r 2, Int32.of_int bound);
             Isa.Alui (Isa.Add, r 1, r 1, 1l);
             Isa.Sw (r 1, r 0, 8l);
           |];
           Array.make body bump;
           [|
             Isa.Beq (r 1, r 2, p + body + 6, Isa.Eq);
             Isa.Jmp (p + 2);
             Isa.Halt;
           |];
         ])
    ()

let counter_loop bound = loop_prog bound

let parked ?(at = 40) prog =
  let m = Machine.create prog in
  Machine.run_until m ~cycle:at;
  m

(* Everything that determines the machine's future. *)
let state m =
  let prog = Machine.program m in
  ( Machine.pc m,
    Machine.cycle m,
    Machine.stopped m,
    List.init 16 (fun i -> Machine.reg m (Isa.reg i)),
    String.init prog.Program.ram_size (fun a ->
        Char.chr (Machine.read_ram_byte m a)) )

let test_proves_counter_loop () =
  let limit = 20_000 in
  (* 1_000_000 iterations take ~4M cycles: far past the limit *)
  let prog = counter_loop 1_000_000 in
  let m = parked prog in
  Alcotest.(check bool)
    "non-terminating loop proven" true
    (Loopproof.prove_no_halt (Loopproof.scratch ()) m ~limit);
  (* the proof is sound: plain simulation reaches the watchdog *)
  let fresh = Machine.create prog in
  Alcotest.(check bool)
    "simulation agrees" true
    (Machine.run fresh ~limit = Machine.Cycle_limit)

let check_refused ~bound ~limit =
  let prog = counter_loop bound in
  let m = parked prog in
  Alcotest.(check bool)
    (Printf.sprintf "bound %d: exiting loop not proven" bound)
    false
    (Loopproof.prove_no_halt (Loopproof.scratch ()) m ~limit);
  (* the attempt's steps were plain execution *)
  let fresh = Machine.create prog in
  Machine.run_until fresh ~cycle:(Machine.cycle m);
  Alcotest.(check bool)
    (Printf.sprintf "bound %d: state equals plain stepping" bound)
    true
    (state m = state fresh);
  m

let test_refuses_exiting_loop () =
  (* exits within the prover's fuel: the attempt runs it to [Halted] *)
  let m = check_refused ~bound:300 ~limit:100_000 in
  Alcotest.(check bool)
    "ran to its halt" true
    (Machine.stopped m = Some Machine.Halted);
  (* exits past the prover's fuel: the machine is left running *)
  let m = check_refused ~bound:5_000 ~limit:100_000 in
  Alcotest.(check bool) "left running" true (Machine.stopped m = None);
  Alcotest.(check bool) "advanced" true (Machine.cycle m > 40)

let test_never_passes_limit () =
  (* a limit a few cycles ahead leaves nothing to prove, and the
     prover must not step the machine beyond it *)
  let m = parked (counter_loop 1_000_000) in
  Alcotest.(check bool)
    "nothing to prove" false
    (Loopproof.prove_no_halt (Loopproof.scratch ()) m ~limit:50);
  Alcotest.(check bool) "stayed within the limit" true (Machine.cycle m <= 50)

(* Attempts over programs of different code lengths, parked at varied
   cycles, with proofs that succeed, fail mid-scan and fail to halts.
   The last two are a trap for stale occurrence entries: the first
   leaves pcs 200..401 in the tables with visit indices [pc - 200];
   the second's short scan then visits pcs 0..255 once each, so no
   anchor exists, unless leftovers make pcs 200..255 look like a
   period-200 loop — and the attempt would then spend cycles chasing
   that phantom. *)
let attempts () =
  let mbox = Mbox1.baseline ~items:3 () in
  List.concat_map
    (fun (prog, ats) ->
      List.concat_map
        (fun at -> List.map (fun limit -> (prog, at, limit)) [ 3_000; 60_000 ])
        ats)
    [
      (counter_loop 1_000_000, [ 7; 40; 101 ]);
      (mbox, [ 50; 400; 1_000; 2_500 ]);
      (counter_loop 300, [ 12; 500 ]);
      (loop_prog ~body:150 1_000_000, [ 20; 97; 260 ]);
      (counter_loop 5_000, [ 33 ]);
      (mbox, [ 3_000 ]);
      (loop_prog ~prologue:400 1_000_000, [ 200 ]);
      (loop_prog ~prologue:200 ~body:150 1_000_000, [ 0 ]);
    ]

let test_scratch_reuse () =
  let shared = Loopproof.scratch () in
  let proven = ref 0 in
  List.iter
    (fun (prog, at, limit) ->
      let run sc =
        let m = parked ~at prog in
        let ok = Loopproof.prove_no_halt sc m ~limit in
        (ok, state m)
      in
      let reused = run shared and fresh = run (Loopproof.scratch ()) in
      if fst fresh then incr proven;
      Alcotest.(check bool)
        (Printf.sprintf "%s at %d, limit %d" prog.Program.name at limit)
        true (reused = fresh))
    (attempts ());
  (* the sweep exercises both answers *)
  Alcotest.(check bool) "some proven" true (!proven > 0);
  Alcotest.(check bool)
    "some refused" true
    (!proven < List.length (attempts ()))

let suite =
  ( "loopproof",
    [
      Alcotest.test_case "proves a non-terminating counter loop" `Quick
        test_proves_counter_loop;
      Alcotest.test_case "refuses an exiting loop, state intact" `Quick
        test_refuses_exiting_loop;
      Alcotest.test_case "never steps past the limit" `Quick
        test_never_passes_limit;
      Alcotest.test_case "reused scratch = fresh scratch" `Quick
        test_scratch_reuse;
    ] )
