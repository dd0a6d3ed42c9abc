(* service-mix: a loopback campaign-service daemon (local domains
   backend, -j 2, shared-secret auth) and one closed-loop client sending
   single-cell submissions drawn by the seed, with repeats, from a fixed
   pool of small suite cells under four fault models.  The first
   submission of a cell misses the result store (conducted, then
   published); every repeat is a hit (lookup, journal replay, frames,
   HMAC).  Each round has a fresh daemon and store, so a round's misses
   are exactly its distinct cells. *)

open Common

let pool =
  [
    ("crc", Suite.Baseline, "mem");
    ("crc", Suite.Sum_dmr, "mem");
    ("sort", Suite.Baseline, "burst3r2");
    ("mutex1", Suite.Baseline, "burst3r2");
    ("flag1", Suite.Baseline, "skip");
    ("sync2", Suite.Baseline, "skip");
    ("sort", Suite.Baseline, "reg");
    ("crc", Suite.Baseline, "reg");
  ]

(* Submissions per round: every pool cell [repeats] times. *)
let repeats = 4

let pool_specs ?policy () =
  List.map
    (fun (benchmark, variant, tag) ->
      match (Suite.find ~benchmark ~variant, Faultspace.of_tag tag) with
      | Some entry, Ok model -> Suite.spec_of ~model ?policy entry
      | _ -> failwith (Printf.sprintf "service-mix: no cell %s@%s" benchmark tag))
    pool

(* The round's submission order: a seeded shuffle in which every pool
   cell appears [repeats] times, so each round has the same misses (the
   pool) and the same hits, and the seed decides only their order. *)
let sequence rng =
  let n = List.length pool in
  let seq = Array.init (n * repeats) (fun i -> i mod n) in
  Prng.shuffle rng seq;
  Array.to_list seq

let secret_text = "fibench loopback secret"

let setup () =
  let t0 = now () in
  let dir = fresh_dir "svc" in
  let secret_file = Filename.concat dir "svc.key" in
  Out_channel.with_open_text secret_file (fun oc -> output_string oc secret_text);
  let specs = Array.of_list (pool_specs ()) in
  let config =
    {
      Service.default_config with
      Service.local_backend = "domains";
      jobs;
      artifacts = dir;
      secret_file = Some secret_file;
    }
  in
  let daemon =
    Tracer.span ~trace:0 "service.spawn" (fun _ -> Service.spawn_daemon ~config ())
  in
  match daemon with
  | Error msg -> failwith ("service-mix: daemon: " ^ msg)
  | Ok (pid, addr) -> (dir, specs, pid, addr, now () -. t0)

(* Wait until the daemon has reaped every runner it forked, so its
   /proc times cover them; status round trips wake its loop, which
   reaps at the top of each turn. *)
let await_reaped ~addr pid =
  let deadline = now () +. 10. in
  let rec go () =
    match Sysmon.children pid with
    | [] -> ()
    | _ when now () > deadline -> failwith "service-mix: the daemon left runners unreaped"
    | _ ->
        ignore (Service.status ~secret:secret_text ~addr ());
        Unix.sleepf 0.005;
        go ()
  in
  go ()

(* The closed-loop client.  Each answer is checked as it arrives — a
   miss is audited and kept as the cell's cold result, a hit must equal
   it — and only the submissions themselves are timed, so the round's
   wall and client CPU exclude the client's checking.  The service's
   CPU is the daemon's over the round, read once its runners (which do
   all the conducting and serving) have been reaped; its peak resident
   set reaches this process when the daemon itself is reaped. *)
let round ~seq_rng ~rng ~audit_k () =
  let _dir, specs, pid, addr, setup_s = setup () in
  let killed = ref false in
  let kill () = if not !killed then (killed := true; kill_daemon pid) in
  Fun.protect ~finally:kill @@ fun () ->
  let seq = sequence seq_rng in
  let secret = secret_text in
  Sysmon.reset_peak_rss ();
  let daemon_cpu0 = Sysmon.pid_cpu pid in
  let cold = Hashtbl.create 8 in
  let wall = ref 0. and cpu = ref 0. in
  let failed = ref 0 and experiments = ref 0 and ops = ref [] in
  let hits = ref 0 and misses = ref 0 and cells = ref [] in
  List.iter
    (fun i ->
      let spec = specs.(i) in
      let label = Spec.label spec in
      let trace = Tracer.fresh_id () in
      let cpu0 = Sysmon.self_cpu () in
      let start = now () in
      let cell =
        Tracer.span ~trace "service.encode" (fun _ ->
            let c = Service.cell_of_spec spec in
            if !Tracer.enabled then ignore (Service.encode_submission [ c ]);
            c)
      in
      let r =
        Tracer.span ~trace "service.submit" (fun _ -> Service.submit ~secret ~addr [ cell ])
      in
      let latency = now () -. start in
      wall := !wall +. latency;
      cpu := !cpu +. (Sysmon.self_cpu () -. cpu0);
      match r with
      | Error msg ->
          incr failed;
          Printf.printf "service-mix: %s: submit failed: %s\n%!" label msg
      | Ok [ w ] -> (
          if w.Service.r_quarantined <> [] then incr failed;
          ops := ((if w.Service.r_cached then "hit" else "miss"), latency) :: !ops;
          match Hashtbl.find_opt cold i with
          | None ->
              if w.Service.r_cached then
                mismatch (label ^ ": first submission served from a fresh store");
              incr misses;
              experiments := !experiments + experiments_of w.Service.r_scan;
              Hashtbl.replace cold i w.Service.r_scan;
              let build = spec_build spec in
              let fs = analyse ~label spec.Spec.model build in
              require (Check.audit ~rng ~k:audit_k ~label fs w.Service.r_scan);
              cells :=
                { label; model = spec.Spec.model; build; scan = w.Service.r_scan; trace }
                :: !cells
          | Some scan ->
              incr hits;
              if not w.Service.r_cached then mismatch (label ^ ": repeat submission missed");
              if w.Service.r_scan <> scan then
                mismatch (label ^ ": cache hit differs from the cold result"))
      | Ok rs ->
          incr failed;
          Printf.printf "service-mix: %s: %d results for one cell\n%!" label (List.length rs))
    seq;
  if !Tracer.enabled then
    for _ = 1 to 5 do
      ignore
        (Tracer.span ~trace:0 "service.status" (fun _ -> Service.status ~secret ~addr ()))
    done;
  let rss_mb = Sysmon.peak_rss_mb 0 in
  await_reaped ~addr pid;
  cpu := !cpu +. (Sysmon.pid_cpu pid -. daemon_cpu0);
  kill ();
  let distinct = List.length (List.sort_uniq compare seq) in
  if !misses <> distinct then
    mismatch (Printf.sprintf "service-mix: %d misses for %d distinct cells" !misses distinct);
  {
    wall = !wall;
    cpu = !cpu;
    rss_mb;
    setups = [ setup_s ];
    experiments = !experiments;
    ops = List.rev !ops;
    attempted = List.length seq;
    failed = !failed;
    cells = (if !Tracer.enabled then List.rev !cells else []);
    cached = !hits;
    conducted = !misses;
    calls = [];
    store = None;
  }
