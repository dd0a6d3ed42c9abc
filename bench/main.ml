(* The paper harness: regenerates every table and figure of the paper
   (see EXPERIMENTS.md and DESIGN.md's experiment index), plus the
   checkpoint-plan differential gate [engine-checkpoint].

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 figure3

   Campaign-backed artifacts run on the engine's default domains backend
   and publish their cells to the result store under _artifacts/, so
   re-running reports is cheap; delete the directory to force fresh
   campaigns.  [FI_BENCH_SMOKE=1 ... engine-checkpoint] checks plan =
   replay on a small kernel and exits 1 unless both fault spaces are
   bit-identical and the exit-path counters account for every
   experiment. *)

let cache_dir = "_artifacts"

let progress label ~done_ ~total ~tally =
  if done_ = total || done_ mod 500 = 0 then begin
    Printf.eprintf "\r[campaign %s] %d/%d classes (%d failures)" label done_
      total
      (Outcome.tally_failures tally);
    if done_ = total then Printf.eprintf "\n";
    flush stderr
  end

let section title =
  Printf.printf "\n%s\n%s\n" (String.make 72 '=') title;
  Printf.printf "%s\n" (String.make 72 '=')

(* [f ()] and its wall-clock seconds. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Campaign-backed data (cached)                                      *)
(* ------------------------------------------------------------------ *)

(* Campaign-backed artifacts conduct their cells through one engine
   matrix journaled and published under _artifacts/: a repeat run
   replays every finished cell from the result store, whose key digests
   the program image, so a changed kernel is a miss and never a stale
   hit; an interrupted regeneration resumes shard-exact. *)
let stored_scans specs =
  let policy =
    Spec.make_policy ~resume:true ~catalogue:cache_dir ~cache:cache_dir ()
  in
  List.map Engine.scan_exn
    (Engine.run_matrix_results ~jobs:(Pool.default_jobs ())
       ~progress:(fun spec -> progress (Spec.label spec))
       (List.map (fun (s : Spec.t) -> { s with Spec.policy }) specs))

(* The Figure-2 pairs as [(name, baseline scan, SUM+DMR scan)]. *)
let paper_scans =
  lazy
    (let rec pair_up = function
       | (name, _, _) :: pairs, sb :: sh :: scans ->
           (name, sb, sh) :: pair_up (pairs, scans)
       | _ -> []
     in
     pair_up (Suite.paper_pairs, stored_scans (Suite.paper_specs ())))

(* ------------------------------------------------------------------ *)
(* Artifacts                                                          *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "T1 | Table I";
  print_string (Figures.table1 ())

let run_figure1 () =
  section "F1 | Figure 1: def/use pruning";
  print_string (Figures.figure1 ())

let run_figure3 () =
  section "F3 | Figure 3 / Section IV: the dilution delusion";
  print_string (Figures.figure3 ())

let run_figure2 () =
  section "F2 | Figure 2: bin_sem2 and sync2, baseline vs SUM+DMR";
  print_string (Figures.figure2 (Lazy.force paper_scans))

let run_pruning () =
  section "S3C | Section III-C: pruning effectiveness";
  let goldens =
    List.map
      (fun (e : Suite.entry) ->
        ( Printf.sprintf "%s/%s" e.Suite.benchmark
            (Suite.variant_name e.Suite.variant),
          Golden.run (e.Suite.build ()) ))
      (List.filter (fun e -> e.Suite.variant <> Suite.Tmr) Suite.all)
  in
  print_string (Figures.pruning_stats (("hi", Golden.run (Hi.program ())) :: goldens))

let run_pitfall2 () =
  section "P2 | Pitfall 2: biased sampling";
  (* Ground truth from the cached bin_sem2 baseline campaign. *)
  let scans = Lazy.force paper_scans in
  let _, sb, _ = List.hd scans in
  let golden = Golden.run (Bin_sem2.baseline ()) in
  print_string (Figures.pitfall2 sb golden);
  print_string "\nAnd maximally on the Hi program (every def/use class fails):\n";
  let hi_g = Golden.run (Hi.program ()) in
  print_string (Figures.pitfall2 ~samples:1024 (Scan.pruned hi_g) hi_g)

let run_pitfall3 () =
  section "P3 | Pitfall 3 (corollary 2): extrapolation";
  let scans = Lazy.force paper_scans in
  let entries =
    List.concat_map
      (fun (name, sb, sh) ->
        let baseline_golden, hardened_golden =
          match name with
          | "bin_sem2" ->
              (Golden.run (Bin_sem2.baseline ()), Golden.run (Bin_sem2.sum_dmr ()))
          | _ -> (Golden.run (Sync2.baseline ()), Golden.run (Sync2.sum_dmr ()))
        in
        [
          (name ^ "/baseline", sb, baseline_golden);
          (name ^ "/sum+dmr", sh, hardened_golden);
        ])
      scans
  in
  print_string (Figures.pitfall3_extrapolation entries)

let run_figure2_sampled () =
  section "F2s | Figure 2(e) via sampling (common practice, done right)";
  print_string (Figures.figure2_sampled (Lazy.force paper_scans))

let run_ratios () =
  section "R | Comparison ratios (Section V)";
  List.iter
    (fun (name, sb, sh) ->
      let p3 = Pitfalls.analyze_pitfall3 ~baseline:sb ~hardened:sh in
      Format.printf "%-10s %a@." name Pitfalls.pp_pitfall3 p3;
      Format.printf "%-10s MWTF ratio (hardened/baseline): %.3f@." ""
        (Mwtf.relative ~baseline:sb ~hardened:sh ()))
    (Lazy.force paper_scans)

let run_ablation () =
  section "X2 | Hardening ablation: baseline vs SUM+DMR vs TMR";
  let specs =
    List.concat_map
      (fun benchmark ->
        List.filter_map
          (fun variant ->
            Option.map Suite.spec_of (Suite.find ~benchmark ~variant))
          [ Suite.Baseline; Suite.Sum_dmr; Suite.Tmr ])
      [ "bin_sem2"; "mutex1"; "mbox1"; "flag1" ]
  in
  let entries =
    List.combine (List.map Spec.label specs) (stored_scans specs)
  in
  print_string (Figures.ablation entries);
  (* The objective verdict per benchmark and mechanism. *)
  let find name = List.assoc name entries in
  List.iter
    (fun benchmark ->
      let base = find (benchmark ^ "/baseline") in
      List.iter
        (fun variant ->
          let hardened = find (Printf.sprintf "%s/%s" benchmark variant) in
          let p3 = Pitfalls.analyze_pitfall3 ~baseline:base ~hardened in
          Format.printf "%-10s %-8s %a@." benchmark variant
            Pitfalls.pp_pitfall3 p3)
        [ "sum+dmr"; "tmr" ])
    [ "bin_sem2"; "mutex1"; "mbox1"; "flag1" ]

let run_optimization () =
  section "X4 | Compilation ablation: optimisation changes the fault space";
  (* A naively-written filter kernel, as a source-to-source generator
     would emit it: constant expressions spelled out, helper temporaries
     kept alive "for debugging".  const-fold + DSE removes the dead
     stores and resolves the constant branches. *)
  let source =
    let open Builder in
    prog ~name:"filter" ~stack:128
      [ array "samples" 12 ~init:[ 9; 2; 14; 7; 31; 4; 18; 25; 6; 11; 3; 28 ];
        array "out" 12; global "count" ]
      ([
         func "main" ~locals:[ "k"; "v"; "dbg"; "threshold" ]
           ([
              set "threshold" (i 2 *: i 5 +: i 2) (* constant: 12 *);
            ]
           @ for_ "k" ~from:(i 0) ~below:(i 12)
               [
                 set "v" (elem "samples" (l "k"));
                 set "dbg" (l "v" *: i 1000 +: l "k") (* dead *);
                 Mir.If
                   ( Mir.Cmp (Mir.Ltu, l "threshold", l "v"),
                     [
                       set_elem "out" (g "count") (l "v");
                       setg "count" (g "count" +: i 1);
                       set "dbg" (l "dbg" +: i 1) (* dead *);
                     ],
                     [] );
               ]
           @ [ out_str "kept "; call_ out_dec [ g "count" ];
               out_str "\n"; ret_unit ]);
       ]
      @ stdlib)
  in
  let entries =
    [
      ("filter -O0", Scan.pruned (Golden.run (Codegen.compile source)));
      ( "filter -O1",
        Scan.pruned ~variant:"optimized"
          (Golden.run (Codegen.compile (Optimize.optimize source))) );
    ]
  in
  print_string (Figures.ablation entries);
  print_string
    "\nThe compiler changes runtime and data lifetimes, so susceptibility\n\
     is a property of the binary, not the source (compare the F column);\n\
     any FI comparison must therefore fix the toolchain.\n"

let run_registers () =
  section "X3 | Register fault space (Sections VI-B/VI-C extension)";
  print_string
    (Figures.cross_layer
       [
         ("hi", Regspace.analyze (Hi.program ()));
         ("mbox1", Regspace.analyze (Mbox1.baseline ()));
         ("mutex1", Regspace.analyze (Mutex1.baseline ()));
       ])

(* [Faultspace.scan] of [cell] on a checkpoint plan, with the exit-path
   counters of the session it conducted on. *)
let plan_scan (cell : Faultspace.cell) =
  let provider = Injector.plan cell.Faultspace.golden in
  let session = ref (Injector.session provider) in
  let conduct s c ~bit_in_byte =
    session := s;
    cell.Faultspace.conduct s c ~bit_in_byte
  in
  let scan = Faultspace.scan ~provider { cell with Faultspace.conduct } in
  (scan, Injector.session_stats !session)

(* Print a plan scan's exit-path counters.  Returns [false] unless they
   account for every experiment of [scan] ({!Injector.check_accounting}). *)
let print_exit_paths label (scan : Scan.t) (st : Injector.session_stats) =
  Printf.printf "%s exit paths   :       runs        cycles  cycles/run\n"
    label;
  List.iter
    (fun (name, (p : Injector.path_stats)) ->
      Printf.printf "  %-24s: %10d %13d %11.0f\n" name p.runs p.cycles
        (if p.runs = 0 then 0. else float p.cycles /. float p.runs))
    (Injector.exit_paths st);
  Printf.printf "  %-24s: %10d failed %d (%d cycles)\n" "proof attempts"
    st.proof_attempts st.failed_proofs st.failed_proof_cycles;
  Printf.printf "  %-24s: %10d\n" "memo-splice timeouts" st.memo_timeouts;
  match
    Injector.check_accounting st
      (Array.map (fun e -> e.Scan.outcome) scan.Scan.experiments)
  with
  | Ok () -> true
  | Error msg ->
      Printf.eprintf "engine-checkpoint: %s %s\n" label msg;
      false

let run_engine_checkpoint () =
  section
    "ENGK | Checkpoint-plan hot path: snapshot sessions vs replay-from-reset \
     on both fault spaces";
  let smoke = Sys.getenv_opt "FI_BENCH_SMOKE" <> None in
  (* Smoke mode (CI): same differential check on a smaller kernel. *)
  let program =
    if smoke then Mbox1.baseline () else Bin_sem2.baseline ()
  in
  let golden = Golden.run program in
  let replay_mem, t_mr =
    time (fun () -> Scan.pruned ~provider:(Injector.replay golden) golden)
  in
  let mem = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let (plan_mem, mem_stats), t_mp = time (fun () -> plan_scan mem) in
  let mem_identical = plan_mem = replay_mem in
  let reg = Faultspace.analyse Faultspace.Bitflip_reg program in
  let rgolden = reg.Faultspace.golden in
  let replay_reg, t_rr =
    time (fun () -> Faultspace.scan ~provider:(Injector.replay rgolden) reg)
  in
  let (plan_reg, reg_stats), t_rp = time (fun () -> plan_scan reg) in
  let reg_identical = plan_reg = replay_reg in
  Printf.printf "stride                    : %d cycles\n"
    Injector.default_stride;
  Printf.printf
    "memory space   replay    : %6.2f s   checkpoint: %6.2f s  (speedup \
     %.2fx, bit-identical %b)\n"
    t_mr t_mp (t_mr /. t_mp) mem_identical;
  Printf.printf
    "register space replay    : %6.2f s   checkpoint: %6.2f s  (speedup \
     %.2fx, bit-identical %b)\n"
    t_rr t_rp (t_rr /. t_rp) reg_identical;
  let mem_counted = print_exit_paths "memory  " plan_mem mem_stats in
  let reg_counted = print_exit_paths "register" plan_reg reg_stats in
  if not (mem_identical && reg_identical) then begin
    Printf.eprintf
      "engine-checkpoint: plan outcomes are NOT bit-identical to replay \
       (memory %b, registers %b)\n"
      mem_identical reg_identical;
    exit 1
  end;
  if not (mem_counted && reg_counted) then exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", run_table1);
    ("figure1", run_figure1);
    ("figure3", run_figure3);
    ("figure2", run_figure2);
    ("pruning", run_pruning);
    ("pitfall2", run_pitfall2);
    ("pitfall3", run_pitfall3);
    ("figure2-sampled", run_figure2_sampled);
    ("ratios", run_ratios);
    ("ablation", run_ablation);
    ("registers", run_registers);
    ("engine-checkpoint", run_engine_checkpoint);
    ("optimization", run_optimization);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst artifacts
  in
  List.iter
    (fun name ->
      match List.assoc_opt name artifacts with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown artifact %S; available: %s\n" name
            (String.concat ", " (List.map fst artifacts));
          exit 1)
    requested
