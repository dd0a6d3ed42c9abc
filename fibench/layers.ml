(* The traced run's per-layer view: a serial conduction breakdown of every
   cell the traced round produced, and probes for the layers a workload
   does not itself exercise (journal, cache, service, fuzz).  All timing
   is done here, around calls into each layer's public functions. *)

open Common

let bucket = function
  | Outcome.No_effect -> "no_effect"
  | Outcome.Corrected -> "corrected"
  | Outcome.Sdc -> "sdc"
  | Outcome.Timeout -> "timeout"
  | Outcome.Trap_memory | Outcome.Trap_cpu -> "trap"
  | Outcome.Output_truncated | Outcome.Detected_fail_stop -> "other"

type breakdown = {
  serial_s : float;  (** Serial conduction seconds over all cells. *)
  per_exp : float array;  (** Seconds of every conducted experiment. *)
  by_bucket : (string * (float * int)) list;
  plan_alloc_mb : float list;
  trace_ratio : float list;
}

let timed f =
  let t = now () in
  let r = f () in
  (r, (now () -. t) *. 1000.)

(* One cell's serial pass: the loop the engine runs per shard — slots in
   [Shard.plan] order, one [Injector.session] per shard, [conduct] per
   slot — timing and bucketing every experiment, and requiring each
   outcome to equal the campaign's. *)
let conduct_cell (c : cell) ~sink =
  let trace = c.trace in
  let prog = Tracer.span ~trace "mir.compile" (fun _ -> c.build ()) in
  let golden, golden_ms =
    timed (fun () -> Tracer.span ~trace "golden.run" (fun _ -> Golden.run prog))
  in
  let fs =
    Tracer.span ~trace "faultspace.analyse" (fun _ ->
        match c.model with
        | Faultspace.Bitflip_reg ->
            (* the register analysis needs its own traced golden run *)
            Faultspace.analyse c.model prog
        | model -> Faultspace.of_golden model golden)
  in
  let (), machine_ms =
    timed (fun () ->
        Tracer.span ~trace "machine.run" (fun _ ->
            let m = Machine.create prog in
            ignore (Machine.run m ~limit:50_000_000)))
  in
  let a0 = Gc.allocated_bytes () in
  let provider =
    Tracer.span ~trace "injector.plan" (fun _ -> Injector.plan fs.Faultspace.golden)
  in
  let alloc_mb = (Gc.allocated_bytes () -. a0) /. 1048576. in
  let classes = fs.Faultspace.classes in
  let plan = Shard.plan classes in
  let times = Array.make (8 * Array.length classes) 0. in
  let serial = ref 0. in
  let t_cell = now () in
  Array.iter
    (fun (sh : Shard.t) ->
      let session = Injector.session provider in
      for rank = sh.Shard.lo to sh.Shard.hi - 1 do
        let ci = plan.Shard.order.(rank) in
        let cls = classes.(ci) in
        for bit = 0 to 7 do
          let t = now () in
          let o = fs.Faultspace.conduct session cls ~bit_in_byte:bit in
          let dt = now () -. t in
          times.((ci * 8) + bit) <- dt;
          serial := !serial +. dt;
          sink (bucket o) dt;
          let want = c.scan.Scan.experiments.((ci * 8) + bit).Scan.outcome in
          if o <> want then
            mismatch
              (Printf.sprintf "%s: serial slot (class %d, bit %d) %s, campaign %s"
                 c.label ci bit (Outcome.to_string o) (Outcome.to_string want))
        done
      done)
    plan.Shard.shards;
  Tracer.add ~trace "conduct.serial" ~start:t_cell ~stop:(now ());
  Tracer.span ~trace "core.metrics" (fun _ ->
      ignore (Metrics.failure_count c.scan);
      ignore (Metrics.coverage c.scan);
      ignore (Metrics.outcome_histogram c.scan));
  (times, !serial, alloc_mb, golden_ms /. machine_ms)

let breakdown cells =
  let seen = Hashtbl.create 16 in
  let cells =
    List.filter
      (fun c ->
        if Hashtbl.mem seen c.label then false
        else (Hashtbl.replace seen c.label (); true))
      cells
  in
  let acc = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace acc b (0., 0)) Metrics_decl.conduct_buckets;
  let sink b dt =
    let s, n = Hashtbl.find acc b in
    Hashtbl.replace acc b (s +. dt, n + 1)
  in
  let parts = List.map (conduct_cell ~sink) cells in
  {
    serial_s = List.fold_left (fun a (_, s, _, _) -> a +. s) 0. parts;
    per_exp = Array.concat (List.map (fun (t, _, _, _) -> t) parts);
    by_bucket = List.map (fun b -> (b, Hashtbl.find acc b)) Metrics_decl.conduct_buckets;
    plan_alloc_mb = List.map (fun (_, _, a, _) -> a) parts;
    trace_ratio = List.map (fun (_, _, _, r) -> r) parts;
  }

(* Journal and cache probes against a store holding [spec]'s finished,
   published journal. *)
let store_probes ~dir (spec : Spec.t) =
  let fp = Engine.fingerprint_spec spec in
  match Catalog.lookup ~dir ~fingerprint:fp with
  | None -> mismatch (Spec.label spec ^ ": no catalogued journal to probe")
  | Some path -> (
      let replayed = ref None in
      for _ = 1 to 5 do
        replayed := Tracer.span ~trace:0 "journal.replay" (fun _ -> Journal.replay path)
      done;
      (match !replayed with
      | Some (header, records, Journal.Clean) ->
          let copy = Filename.concat dir "probe-copy.journal" in
          Tracer.span ~trace:0 "journal.append" (fun _ ->
              let w = Journal.create copy ~header in
              List.iter (Journal.append w) records;
              Journal.close w);
          Tracer.event ~trace:0 "journal.bytes"
            ~detail:(string_of_int (Unix.stat copy).Unix.st_size) (now ())
      | _ -> mismatch (path ^ ": published journal does not replay clean"));
      match List.find_opt (fun e -> e.Cache.path = path) (Cache.entries ~dir) with
      | None -> mismatch (Spec.label spec ^ ": journal not published in the store")
      | Some e ->
          for _ = 1 to 5 do
            ignore (Tracer.span ~trace:0 "cache.lookup" (fun _ -> Cache.lookup ~dir e.Cache.key))
          done;
          for _ = 1 to 3 do
            let r =
              Tracer.span ~trace:0 "cache.hit" (fun _ -> Engine.run_spec_result ~jobs spec)
            in
            if not r.Engine.cached then mismatch (Spec.label spec ^ ": warm run missed the store")
          done)

(* Spawn, status and encode against a throwaway daemon. *)
let service_probe (spec : Spec.t) =
  let dir = fresh_dir "probe-svc" in
  let key = Filename.concat dir "svc.key" in
  Out_channel.with_open_text key (fun oc -> output_string oc Svcmix.secret_text);
  let config =
    { Service.default_config with Service.jobs; artifacts = dir; secret_file = Some key }
  in
  match Tracer.span ~trace:0 "service.spawn" (fun _ -> Service.spawn_daemon ~config ()) with
  | Error msg -> mismatch ("service probe: " ^ msg)
  | Ok (pid, addr) ->
      Fun.protect
        ~finally:(fun () -> kill_daemon pid)
        (fun () ->
          for _ = 1 to 5 do
            match
              Tracer.span ~trace:0 "service.status" (fun _ ->
                  Service.status ~secret:Svcmix.secret_text ~addr ())
            with
            | Ok _ -> ()
            | Error msg -> mismatch ("service probe: status: " ^ msg)
          done;
          for _ = 1 to 3 do
            Tracer.span ~trace:0 "service.encode" (fun _ ->
                ignore (Service.encode_submission [ Service.cell_of_spec spec ]))
          done)

(* [Delta.verify] on a program's SUM+DMR pair.  A cell pair that is no
   dilution instance still verifies its tallies first, so the only
   acceptable error is the predicate's. *)
let verify_probe ~seed prog =
  match Delta.evaluate ~variant:Delta.Sum_dmr prog with
  | None -> mismatch "fuzz probe: generated program did not evaluate"
  | Some (baseline, hardened) -> (
      let f =
        {
          Delta.program = prog;
          seed;
          variant = Delta.Sum_dmr;
          baseline;
          hardened;
          sampled_failure_ratio = None;
        }
      in
      match
        Tracer.span ~trace:0 "fuzz.verify" (fun _ ->
            Delta.verify ~backend:Pool.Processes ~jobs f)
      with
      | Ok () | Error "dilution predicate no longer holds" -> ()
      | Error msg -> mismatch ("fuzz probe: verify: " ^ msg))

(* The fuzz probe's programs: [Gen.program] drawn from the seed, named
   as [Delta.run] names them.  Programs whose baseline cell has more
   than [max_experiments] experiments are skipped (deterministically:
   the skip depends only on the program), so the probe stays a small
   cell rather than a conduction-bound one. *)
let max_experiments = 8_000

let rec next_program master =
  let pseed = Prng.next_int64 master in
  let prog =
    Tracer.span ~trace:0 "fuzz.gen" (fun _ ->
        Gen.rename
          (Printf.sprintf "fz%Lx" (Int64.logand pseed 0xFFFFFFFFL))
          (Gen.program (Prng.create ~seed:pseed)))
  in
  let golden = Golden.run (Delta.compile_baseline prog) in
  if Defuse.experiment_count golden.Golden.defuse > max_experiments then next_program master
  else (pseed, prog)

(* [Delta.hunt_program] of one program against SUM+DMR and DFT:16 on the
   processes backend (the worker-process path: fork/exec, marshalled
   jobs, segment merge), then [Delta.verify] of every finding. *)
let fuzz_probe ~seed =
  let master = Prng.create ~seed in
  let pseed, prog = next_program master in
  let found =
    Tracer.span ~trace:0 "fuzz.hunt" (fun _ ->
        Delta.hunt_program ~backend:Pool.Processes ~jobs ~variants:[ Delta.Sum_dmr; Delta.Dft 16 ]
          ~seed:pseed prog)
  in
  List.iter
    (fun f ->
      Tracer.span ~trace:0 "fuzz.verify" (fun _ ->
          require (Delta.verify ~backend:Pool.Processes ~jobs f)))
    found;
  verify_probe ~seed:pseed prog
