(* fibench — one seeded benchmark for campaign throughput and service
   latency.

     main.exe --workload paper-pairs|service-mix --seed N
              --seconds S --trace 0|1
     main.exe --self-test
     main.exe --record-reference      (regenerates fibench/reference.txt)

   Run from the repository root (fibench/run.sh builds and does that);
   metric names and units come from BENCHMARK.json there.  With
   --trace 0 the workload runs a fixed number of measured rounds, about
   S seconds of timed phases (see [rounds_for]), and reports the
   end-to-end metrics (medians over rounds); with --trace 1 it runs one
   untraced and one traced round of the same inputs, then the serial
   conduction breakdown and layer probes, and reports the per-layer
   metrics.  Human-readable lines come first; the last line of stdout is
   one JSON object.  Any reference, audit or cache-consistency mismatch
   makes the run exit 1. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-pairs|service-mix --seed N \
     --seconds S --trace 0|1 | --self-test | --record-reference";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mode : [ `Run | `Self_test | `Record ];
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--self-test" :: rest -> go { a with mode = `Self_test } rest
    | "--record-reference" :: rest -> go { a with mode = `Record } rest
    | _ -> usage ()
  in
  match
    go { workload = ""; seed = 0; seconds = 10.; trace = false; mode = `Run }
      (List.tl (Array.to_list argv))
  with
  | a -> a
  | exception Failure _ -> usage ()

let workloads = [ "paper-pairs"; "service-mix" ]

(* A run measures a fixed number of rounds, so both sides of a
   comparison do the same work: --seconds divided by the workload's
   round time as measured when the benchmark was added, on a 2-vCPU
   x86-64 VM (paper-pairs 17 s, service-mix 3.3 s), rounded, and at
   least two.  At 40 s that is 2 and 12 rounds. *)
let typical_round_s = function "paper-pairs" -> 17. | _ -> 3.3

let rounds_for args =
  max 2 (int_of_float (Float.round (args.seconds /. typical_round_s args.workload)))

(* Unmeasured rounds first: a service-mix run's first round reads about
   a fifth slower than the rest (heap growth, cold page cache for the
   daemon's image).  Their results are still checked. *)
let warmup_rounds = function "service-mix" -> 1 | _ -> 0

(* Slots re-conducted per cell by the replay audit. *)
let audit_k = function "paper-pairs" -> 16 | _ -> 8

let round_fn args =
  let seed = Int64.of_int args.seed in
  let master = Prng.create ~seed in
  let audit_rng = Prng.split master in
  let k = audit_k args.workload in
  match args.workload with
  | "paper-pairs" ->
      let refs = Check.load_reference Paper.reference_file in
      fun _ -> Paper.round ~refs ~rng:audit_rng ~audit_k:k ()
  | "service-mix" ->
      let seq_rng = Prng.split master in
      fun _ -> Svcmix.round ~seq_rng ~rng:audit_rng ~audit_k:k ()
  | _ -> usage ()

let ms x = x *. 1000.
let fmt v = Printf.sprintf "%.17g" v

let line name value unit extra =
  Printf.printf "metric %-24s %14.6g %-6s %s\n" name value unit extra

let tail_text xs =
  match Stats.tail xs with
  | Some (p, v, n) -> Printf.sprintf "%s=%.3f (n=%d)" (Stats.percentile_label p) v n
  | None -> Printf.sprintf "n/a (n=%d: no percentile has 10 samples beyond it)" (List.length xs)

(* End-to-end metrics over the measured rounds. *)
let end_to_end args (rounds : round list) =
  let per f = List.map f rounds in
  let ops = List.concat_map (fun r -> r.ops) rounds in
  let op_ms kind = List.filter_map (fun (k, t) -> if kind = "" || k = kind then Some (ms t) else None) ops in
  let setups = List.concat_map (fun r -> r.setups) rounds in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 rounds in
  let service_rss = Sysmon.children_peak_rss_mb () in
  let values =
    [
      ("wall_s", Stats.median (per (fun r -> r.wall)));
      ("exp_per_s", Stats.median (per (fun r -> float_of_int r.experiments /. r.wall)));
      ("ops_per_s", Stats.median (per (fun r -> float_of_int (List.length r.ops) /. r.wall)));
      ("op_p50_ms", Stats.median (op_ms ""));
      ("cpu_s", Stats.median (per (fun r -> r.cpu)));
      ("peak_rss_mb", Stats.median (per (fun r -> r.rss_mb)) +. service_rss);
      ("setup_s", Stats.median setups);
    ]
  in
  let n_rounds = List.length rounds in
  let exps = List.fold_left (fun a r -> a + r.experiments) 0 rounds in
  List.iter
    (fun (n, v) ->
      let extra =
        match n with
        | "cpu_s" when args.workload = "service-mix" ->
            Printf.sprintf "median of %d rounds; client during submissions + daemon and runners"
              n_rounds
        | "wall_s" | "cpu_s" -> Printf.sprintf "median of %d rounds" n_rounds
        | "exp_per_s" -> Printf.sprintf "%d experiments in %d rounds" exps n_rounds
        | "ops_per_s" -> Printf.sprintf "%d ops in %d rounds" (List.length ops) n_rounds
        | "op_p50_ms" -> Printf.sprintf "n=%d, tail %s" (List.length ops) (tail_text (op_ms ""))
        | "setup_s" -> Printf.sprintf "median of %d set-ups" (List.length setups)
        | "peak_rss_mb" ->
            Printf.sprintf
              "median of %d rounds' benchmark VmHWM + largest reaped child (service daemon or runner) %.1f"
              n_rounds service_rss
        | _ -> ""
      in
      line n v (Metrics_decl.unit_of n) extra)
    values;
  (* The workload's own names for the same figures. *)
  let ops_per_s = List.assoc "ops_per_s" values in
  let p50 kind =
    match op_ms kind with [] -> "n/a (n=0)" | xs -> Printf.sprintf "%.3f (n=%d)" (Stats.median xs) (List.length xs)
  in
  if args.workload = "service-mix" then begin
    line "submits_per_s" ops_per_s "1/s" "";
    Printf.printf "metric hit_p50_ms = %s ms; hit_tail_ms = %s ms; miss_p50_ms = %s ms\n"
      (p50 "hit") (tail_text (op_ms "hit")) (p50 "miss")
  end;
  line "error_rate" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio"
    (Printf.sprintf "%d failed of %d attempted" failed attempted);
  (values, attempted, failed)

(* Per-layer metrics from the traced run. *)
let per_layer ~untraced ~traced ~(bd : Layers.breakdown) =
  let spans name = List.map (fun s -> ms (Tracer.duration s)) (Tracer.named name) in
  let med name =
    match spans name with
    | [] ->
        mismatch ("traced run recorded no " ^ name ^ " span");
        0.
    | xs -> Stats.median xs
  in
  let calls = traced.calls in
  let engine_wall = List.fold_left (fun a c -> a +. (c.return -. c.call)) 0. calls in
  let exp = Array.length bd.Layers.per_exp in
  let us = Array.to_list (Array.map (fun t -> t *. 1e6) bd.Layers.per_exp) in
  let journal_bytes =
    List.fold_left
      (fun acc (e : Tracer.event) ->
        if e.Tracer.e_name = "journal.bytes" then float_of_string e.Tracer.e_detail else acc)
      0.
      (Tracer.locked (fun () -> !Tracer.events))
  in
  let buckets =
    List.concat_map
      (fun (b, (s, n)) -> [ ("conduct." ^ b ^ "_s", s); ("conduct." ^ b ^ "_n", float_of_int n) ])
      bd.Layers.by_bucket
  in
  let med_of xs = if xs = [] then 0. else Stats.median xs in
  [
    ("mir.compile_ms", med "mir.compile");
    ("golden.run_ms", med "golden.run");
    ("machine.run_ms", med "machine.run");
    ("golden.trace_ratio", med_of bd.Layers.trace_ratio);
    ("faultspace.analyse_ms", med "faultspace.analyse");
    ("injector.plan_ms", med "injector.plan");
    ("injector.plan_alloc_mb", med_of bd.Layers.plan_alloc_mb);
    ("conduct.exp", float_of_int exp);
    ("conduct.us_per_exp", bd.Layers.serial_s *. 1e6 /. float_of_int (max 1 exp));
    ("conduct.p50_us", med_of us);
    ("conduct.tail_us", match Stats.tail us with Some (_, v, _) -> v | None -> med_of us);
  ]
  @ buckets
  @ [
      ("engine.prefix_ms", med_of (List.map (fun c -> ms (c.first -. c.call)) calls));
      ("engine.tail_ms", med_of (List.map (fun c -> ms (c.return -. c.tail_start)) calls));
      ("engine.busy_frac", bd.Layers.serial_s /. (float_of_int jobs *. engine_wall));
      ("journal.append_ms", med "journal.append");
      ("journal.bytes", journal_bytes);
      ("journal.replay_ms", med "journal.replay");
      ("cache.lookup_ms", med "cache.lookup");
      ("cache.hit_ms", med "cache.hit");
      ("service.status_ms", med "service.status");
      ("service.encode_ms", med "service.encode");
      ("service.spawn_ms", med "service.spawn");
      ("fuzz.gen_ms", med "fuzz.gen");
      ("fuzz.hunt_ms", med "fuzz.hunt");
      ("fuzz.verify_ms", med "fuzz.verify");
      ("core.metrics_ms", med "core.metrics");
      ("trace.overhead_pct", (traced.wall -. untraced.wall) /. untraced.wall *. 100.);
    ]

(* The traced run: same workload and seed, so the traced and untraced
   rounds see identical inputs; the probes fill in the layers this
   workload does not exercise itself. *)
let traced_run args =
  (* A discarded warm-up round first: a process's first round pays for
     heap growth, which would otherwise show as negative overhead.  The
     untraced comparison round follows the traced one. *)
  ignore (round_fn args 0);
  Tracer.enabled := true;
  let traced = round_fn args 0 in
  Tracer.enabled := false;
  let untraced = round_fn args 0 in
  Tracer.enabled := true;
  let seed = Int64.of_int args.seed in
  (* Engine timeline and store for service-mix: the pool conducted
     locally, as the daemon's engine call would. *)
  let traced, store =
    match traced.store with
    | Some s -> (traced, s)
    | None ->
        let dir = fresh_dir "probe-pool" in
        let specs = Svcmix.pool_specs ~policy:(cli_policy dir) () in
        let traces = List.map (fun s -> (Spec.label s, Tracer.fresh_id ())) specs in
        let _, call = run_matrix ~backend:Pool.Domains ~traces specs in
        ({ traced with calls = [ call ] }, (dir, specs))
  in
  let bd = Layers.breakdown traced.cells in
  let dir, specs = store in
  Layers.store_probes ~dir (List.hd specs);
  if args.workload <> "service-mix" then Layers.service_probe (List.hd specs);
  Layers.fuzz_probe ~seed;
  (untraced, traced, bd)

let trace_path args =
  let d = Filename.concat root "traces" in
  mkdir_p d;
  Filename.concat d (Printf.sprintf "%s-seed%d.jsonl" args.workload args.seed)

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun ((m : Metrics_decl.decl), v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Metrics_decl.name
              (if Float.is_finite v then fmt v else "0") m.Metrics_decl.unit)
          metrics))

let run args =
  if not (List.mem args.workload workloads) then usage ();
  let refs = Check.load_reference Paper.reference_file in
  (match Selftest.run ~refs with
  | [] -> ()
  | failed ->
      List.iter (fun f -> Printf.eprintf "fibench: self-test failed: %s\n" f) failed;
      exit 1);
  let t0 = now () in
  Printf.printf "fibench workload=%s seed=%d seconds=%g trace=%d jobs=%d\n%!" args.workload
    args.seed args.seconds (if args.trace then 1 else 0) jobs;
  let metrics, attempted, failed, rounds =
    if not args.trace then begin
      let next = round_fn args in
      let warm = List.init (warmup_rounds args.workload) next in
      let rounds =
        List.init (rounds_for args) (fun i ->
            let r = next i in
            Printf.printf "round %d wall=%.3fs cpu=%.3fs setup=%.4fs\n%!" i r.wall r.cpu
              (Stats.median r.setups);
            r)
      in
      let values, attempted, failed = end_to_end args rounds in
      let sum f = List.fold_left (fun a r -> a + f r) 0 warm in
      let attempted = attempted + sum (fun r -> r.attempted)
      and failed = failed + sum (fun r -> r.failed) in
      (Metrics_decl.in_declared_order (Metrics_decl.end_to_end ()) values, attempted, failed, rounds)
    end
    else begin
      let untraced, traced, bd = traced_run args in
      ignore (end_to_end args [ untraced ]);
      let values =
        Metrics_decl.in_declared_order (Metrics_decl.per_layer ()) (per_layer ~untraced ~traced ~bd)
      in
      List.iter (fun ((m : Metrics_decl.decl), v) -> line m.Metrics_decl.name v m.Metrics_decl.unit "") values;
      List.iter
        (fun c ->
          Printf.printf "timeline call=0 first=%.1fms tail_start=%.1fms return=%.1fms\n"
            (ms (c.first -. c.call)) (ms (c.tail_start -. c.call)) (ms (c.return -. c.call)))
        traced.calls;
      let path = trace_path args in
      Tracer.write path ~t0;
      Printf.printf "trace written to %s\n" path;
      (values, untraced.attempted + traced.attempted, untraced.failed + traced.failed,
       [ untraced; traced ])
    end
  in
  let cached = List.fold_left (fun a r -> a + r.cached) 0 rounds in
  let conducted = List.fold_left (fun a r -> a + r.conducted) 0 rounds in
  Printf.printf "cells cached=%d conducted=%d mismatches=%d elapsed=%.1fs\n" cached conducted
    !mismatches (now () -. t0);
  let correct = !mismatches = 0 in
  print_endline (json ~correct ~attempted ~failed metrics);
  cleanup ();
  if not correct then exit 1

let () =
  Worker.guard ();
  Remote.guard ();
  Service.guard ();
  let args = parse Sys.argv in
  match args.mode with
  | `Record -> Paper.record_reference ()
  | `Self_test -> (
      match Selftest.run ~refs:(Check.load_reference Paper.reference_file) with
      | [] -> print_endline "fibench self-test: ok"
      | failed ->
          List.iter (fun f -> Printf.printf "FAIL %s\n" f) failed;
          exit 1)
  | `Run -> (
      try run args
      with e ->
        cleanup ();
        Printf.eprintf "fibench: %s\n" (Printexc.to_string e);
        exit 2)
