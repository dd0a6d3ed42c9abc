(* What every workload shares: fresh directories, the engine call with
   its per-cell timeline, and the shape of one measured round. *)

let jobs = 2
let now = Unix.gettimeofday

(* Every run works under [.fibench/] of the current directory. *)
let root = ".fibench"
let counter = ref 0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let created = ref []

let cleanup () =
  List.iter rm_rf !created;
  created := []

let fresh_dir tag =
  incr counter;
  let d =
    Filename.concat root
      (Printf.sprintf "run/%d-%s-%d" (Unix.getpid ()) tag !counter)
  in
  rm_rf d;
  mkdir_p d;
  created := d :: !created;
  d

(* The CLI's default engine policy: journal catalogue and result store
   in [dir], two retries, quarantine on. *)
let cli_policy dir =
  Spec.make_policy ~catalogue:dir ~cache:dir ~max_retries:2 ~quarantine:true ()

(* A campaign cell as the checks and the traced breakdown see it. *)
type cell = {
  label : string;
  model : Faultspace.model;
  build : unit -> Program.t;
  scan : Scan.t;
  trace : int;
}

(* One engine call: when it was made, when its first progress callback
   arrived, when the tail started (fewer classes left than one shard per
   worker), when it returned, and the span of every cell in it. *)
type engine_call = {
  call : float;
  first : float;
  tail_start : float;
  return : float;
  done_at : (string * float) list;  (** Each cell's last progress. *)
}

type round = {
  wall : float;  (** Timed phase, seconds. *)
  cpu : float;  (** CPU seconds of everything the timed phase ran. *)
  rss_mb : float;  (** This process's peak resident set over the round. *)
  setups : float list;  (** Set-up durations, seconds. *)
  experiments : int;  (** Experiments conducted in the timed phase. *)
  ops : (string * float) list;  (** (kind, latency in seconds). *)
  attempted : int;
  failed : int;
  cells : cell list;  (** Distinct cells the round's campaigns produced. *)
  cached : int;  (** Cells served from the result store. *)
  conducted : int;  (** Cells conducted. *)
  calls : engine_call list;
  store : (string * Spec.t list) option;
      (** A result store holding this round's cells under the CLI
          policy, for the traced journal and cache probes. *)
}

let spec_build (s : Spec.t) =
  match s.Spec.source with
  | Spec.Build f -> f
  | Spec.Analysed_memory g -> fun () -> g.Golden.program
  | Spec.Analysed_registers _ -> invalid_arg "spec_build: register analysis"

(* Wrap a spec's build thunk in a [mir.compile] span. *)
let traced_build ~trace (s : Spec.t) =
  let f = spec_build s in
  { s with Spec.source = Spec.Build (fun () -> Tracer.span ~trace "mir.compile" (fun _ -> f ())) }

(* [Engine.run_matrix_results] with a progress factory that stamps each
   cell's first and last progress; [traces] gives each spec's trace id. *)
let run_matrix ~backend ~traces specs =
  let lock = Mutex.create () in
  let call = now () in
  let first = ref infinity and tail_start = ref infinity in
  let n_cells = List.length specs in
  let totals = Hashtbl.create 8 and dones = Hashtbl.create 8 in
  let remaining = ref 0 and done_at = Hashtbl.create 8 in
  let traced = !Tracer.enabled in
  let progress (s : Spec.t) =
    let label = Spec.label s in
    let trace = List.assoc label traces in
    fun ~done_ ~total ~tally:_ ->
      if traced || done_ = total then
        Mutex.protect lock (fun () ->
            let t = now () in
            if not (Hashtbl.mem totals label) then begin
              Hashtbl.replace totals label total;
              remaining := !remaining + total;
              Tracer.event ~trace "cell.first_progress" ~detail:label t;
              if t < !first then first := t
            end;
            let prev = Option.value ~default:0 (Hashtbl.find_opt dones label) in
            Hashtbl.replace dones label done_;
            remaining := !remaining - (done_ - prev);
            if done_ = total then begin
              Hashtbl.replace done_at label t;
              Tracer.event ~trace "cell.last_progress" ~detail:label t
            end;
            let threshold =
              Hashtbl.fold
                (fun _ tot acc -> max acc (jobs * Shard.default_shard_size ~classes:tot))
                totals 0
            in
            if Hashtbl.length totals = n_cells && !remaining < threshold
               && !tail_start = infinity
            then tail_start := t)
  in
  List.iter (fun (label, trace) -> Tracer.event ~trace "cell.call" ~detail:label call) traces;
  let results = Engine.run_matrix_results ~backend ~jobs ~progress specs in
  let return = now () in
  List.iter (fun (label, trace) -> Tracer.event ~trace "cell.return" ~detail:label return) traces;
  let fix x = if x = infinity then return else x in
  (* The whole call's timeline, for telling a serial prefix from a
     straggler tail in the trace file alone. *)
  Tracer.event ~trace:0 "engine.call" call;
  Tracer.event ~trace:0 "engine.first_progress" (fix !first);
  Tracer.event ~trace:0 "engine.tail_start" (fix !tail_start);
  Tracer.event ~trace:0 "engine.return" return;
  ( results,
    {
      call;
      first = fix !first;
      tail_start = fix !tail_start;
      return;
      done_at = List.of_seq (Hashtbl.to_seq done_at);
    } )

let failed_cells results =
  List.length
    (List.filter (fun (r : Engine.result) -> r.Engine.quarantined <> []) results)

let experiments_of (s : Scan.t) = Array.length s.Scan.experiments

(* Per-workload failures are correctness failures: print and remember. *)
let mismatches = ref 0

let mismatch msg =
  incr mismatches;
  Printf.printf "MISMATCH %s\n%!" msg

let require = function Ok () -> () | Error msg -> mismatch msg

(* Fault-space analyses for the audit, memoised by cell label: service-mix
   and paper-pairs audit the same cells every round. *)
let analyses : (string, Faultspace.cell) Hashtbl.t = Hashtbl.create 16

let analyse ~label model build =
  match Hashtbl.find_opt analyses label with
  | Some c -> c
  | None ->
      let c = Faultspace.analyse model (build ()) in
      Hashtbl.replace analyses label c;
      c

(* [Service.kill_daemon] SIGKILLs the daemon's process group and reaps
   the daemon; its forked helpers are not our children, so wait (up to
   5 s) until the group is empty. *)
let kill_daemon pid =
  Service.kill_daemon pid;
  let deadline = now () +. 5. in
  let rec wait () =
    match Unix.kill (-pid) 0 with
    | () when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()
