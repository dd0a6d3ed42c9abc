(* paper-pairs: the paper's Figure 2 matrix — bin_sem2 and sync2, each as
   baseline and SUM+DMR, under the memory bit-flip model — run cold on
   the domains backend with the CLI's default policy.  The cells are
   fixed; the seed only picks the audit slots. *)

open Common

let reference_file = "fibench/reference.txt"

(* Set-up: the fresh store, the specs, and a build of each spec's
   program, so a cell that does not compile fails before the timed
   phase.  The engine builds its own copy inside the timed phase. *)
let setup () =
  let t0 = now () in
  let dir = fresh_dir "paper" in
  Catalog.ensure_dir dir;
  let specs = Suite.paper_specs ~policy:(cli_policy dir) () in
  List.iter (fun s -> ignore (spec_build s ())) specs;
  (dir, specs, now () -. t0)

(* Set-up takes a few milliseconds, so a round sets up this many times
   and reports each; it runs on the last. *)
let setups_per_round = 3

let round ~refs ~rng ~audit_k () =
  let setups = List.init setups_per_round (fun _ -> setup ()) in
  let dir, specs, _ = List.nth setups (setups_per_round - 1) in
  List.iter (fun (d, _, _) -> if d <> dir then rm_rf d) setups;
  let traces = List.map (fun s -> (Spec.label s, Tracer.fresh_id ())) specs in
  let specs =
    if !Tracer.enabled then
      List.map (fun s -> traced_build ~trace:(List.assoc (Spec.label s) traces) s) specs
    else specs
  in
  Sysmon.reset_peak_rss ();
  let cpu0 = Sysmon.self_cpu () in
  let t0 = now () in
  let results, call =
    Tracer.span ~trace:0 "engine.matrix" (fun _ ->
        run_matrix ~backend:Pool.Domains ~traces specs)
  in
  let scans = List.map (fun (r : Engine.result) -> r.Engine.scan) results in
  let report =
    Tracer.span ~trace:0 "report.figure2" (fun _ ->
        match scans with
        | [ b1; h1; b2; h2 ] -> Figures.figure2 [ ("bin_sem2", b1, h1); ("sync2", b2, h2) ]
        | _ -> failwith "paper-pairs: expected four cells")
  in
  let wall = now () -. t0 in
  let cpu = Sysmon.self_cpu () -. cpu0 in
  let rss_mb = Sysmon.peak_rss_mb 0 in
  if String.length report = 0 then mismatch "paper-pairs: empty Figure 2 report";
  let cells =
    List.map2
      (fun (s : Spec.t) (r : Engine.result) ->
        let label = Spec.label s in
        let scan = r.Engine.scan in
        require (Check.against_reference refs ~label (Delta.tally_of_scan scan));
        let build = spec_build s in
        let fs = analyse ~label s.Spec.model build in
        require (Check.audit ~rng ~k:audit_k ~label fs scan);
        { label; model = s.Spec.model; build; scan; trace = List.assoc label traces })
      specs results
  in
  let cached = List.length (List.filter (fun (r : Engine.result) -> r.Engine.cached) results) in
  if cached <> 0 then mismatch (Printf.sprintf "paper-pairs: %d cells cached in a fresh store" cached);
  List.iter
    (fun (label, t) -> Printf.printf "paper-pairs: %s done %.1f ms after the call\n" label (1000. *. (t -. call.call)))
    (List.sort (fun (_, a) (_, b) -> compare a b) call.done_at);
  {
    wall;
    cpu;
    rss_mb;
    setups = List.map (fun (_, _, t) -> t) setups;
    experiments = List.fold_left (fun a (s : Scan.t) -> a + experiments_of s) 0 scans;
    ops = [ ("matrix", wall) ];
    attempted = List.length results;
    failed = failed_cells results;
    cells = (if !Tracer.enabled then cells else []);
    cached;
    conducted = List.length results - cached;
    calls = [ call ];
    store = Some (dir, specs);
  }

(* Regenerate [reference_file] on restart-from-reset sessions. *)
let record_reference () =
  List.iter
    (fun (s : Spec.t) ->
      let golden = Golden.run (spec_build s ()) in
      print_endline (Check.render_tally (Spec.label s) (Check.replay_tally golden)))
    (Suite.paper_specs ())
