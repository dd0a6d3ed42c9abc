let env_var = "FI_ENGINE_WORKER"
let torture_var = "FI_ENGINE_TORTURE"

(* ------------------------------------------------------------------ *)
(* Torture hook (crash injection for the engine's own tests)          *)
(* ------------------------------------------------------------------ *)

type torture_mode = Exit | Raise | Sigkill | Torn | Hang | Stall | Poison

type torture = { mode : torture_mode; after : int; only : int option }

let parse_torture = function
  | None | Some "" -> None
  | Some s -> (
      let mode_of = function
        | "exit" -> Some Exit
        | "raise" -> Some Raise
        | "sigkill" -> Some Sigkill
        | "torn" -> Some Torn
        | "hang" -> Some Hang
        | "stall" -> Some Stall
        | "poison" -> Some Poison
        | _ -> None
      in
      match String.split_on_char ':' s with
      | [ m; n ] -> (
          match (mode_of m, int_of_string_opt n) with
          | Some mode, Some after -> Some { mode; after; only = None }
          | _ -> None)
      | [ m; n; w ] -> (
          match (mode_of m, int_of_string_opt n, int_of_string_opt w) with
          | Some mode, Some after, Some only ->
              Some { mode; after; only = Some only }
          | _ -> None)
      | _ -> None)

(* Called before each shard ([next] = its plan id) and once after the
   last ([next] = None).  Poison is keyed by {e plan shard id}, not
   completed-shard count, so the fault deterministically follows one
   coordinate range through any re-dispatch — the shard kills every
   worker it is ever assigned to, which is exactly what quarantine
   exists for.  Every other mode fires once [after] shards are done. *)
let inflict torture conn ~index ~completed ~next =
  let suicide () = Unix.kill (Unix.getpid ()) Sys.sigkill in
  match torture with
  | Some t when t.only = None || t.only = Some index -> (
      match t.mode with
      | Poison -> if next = Some t.after then suicide ()
      | _ when completed <> t.after -> ()
      | Exit -> exit 7
      | Raise -> failwith "torture: injected worker fault"
      | Sigkill -> suicide ()
      | Torn ->
          (* A crash mid-record: a CRC-invalid record line, then death
             without cleanup. *)
          Transport.send conn Frame.Seg "deadbeef torn-rec";
          suicide ()
      | Hang ->
          (* Silent wedge: no heartbeat, no progress, never exits.  Only
             the parent's deadline can end this worker. *)
          while true do
            Unix.sleep 3600
          done
      | Stall ->
          (* Livelock: the worker stays chatty — heartbeats keep
             flowing — but shard progress stops forever. *)
          while true do
            Transport.send conn Frame.Door "h";
            Unix.sleepf 0.02
          done)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The job                                                            *)
(* ------------------------------------------------------------------ *)

(* Nothing here may capture code: a remote worker is another machine,
   so [Spec.Build] closures cannot cross.  The job is the Runcell-level
   cell description — the assembled program image plus the policy
   fields that shape the shard plan — and the worker re-derives
   everything else (golden run, fault-space classes, fingerprint) on its
   own silicon, refusing on disagreement. *)
type wire_job = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  limit : int option;
  shard_size : int option;
  weighted : bool;
  stride : int option;
      (* checkpoint stride — a pure perf knob the worker honours
         locally; deliberately absent from the fingerprint it
         verifies. *)
  program : Program.t;
  fingerprint : int;
  shard_ids : int array;
  index : int;
}

let wire_magic = "fi-wire v1\n"

let encode_job (job : wire_job) = wire_magic ^ Marshal.to_string job []

let decode_job s =
  let mlen = String.length wire_magic in
  if String.length s <= mlen || String.sub s 0 mlen <> wire_magic then None
  else
    match (Marshal.from_string s mlen : wire_job) with
    | job -> Some job
    | exception _ -> None

let wire_of_spec (spec : Spec.t) ~program ~fingerprint ~shard_ids ~index =
  {
    benchmark = spec.Spec.benchmark;
    variant = spec.Spec.variant;
    model = spec.Spec.model;
    limit = spec.Spec.limit;
    shard_size = spec.Spec.policy.Spec.sharding.Spec.shard_size;
    weighted = spec.Spec.policy.Spec.sharding.Spec.weighted;
    stride = spec.Spec.policy.Spec.acceleration.Spec.checkpoint_stride;
    program;
    fingerprint;
    shard_ids;
    index;
  }

let spec_of_wire (job : wire_job) =
  {
    Spec.benchmark = job.benchmark;
    variant = job.variant;
    model = job.model;
    source = Spec.Build (fun () -> job.program);
    limit = job.limit;
    policy =
      Spec.make_policy ?shard_size:job.shard_size ~weighted:job.weighted
        ?checkpoint_stride:job.stride ();
  }

let program_of_spec (spec : Spec.t) =
  match spec.Spec.source with
  | Spec.Analysed_memory g -> g.Golden.program
  | Spec.Analysed_registers r -> r.Regspace.golden.Golden.program
  | Spec.Build build -> build ()

(* ------------------------------------------------------------------ *)
(* The worker side                                                    *)
(* ------------------------------------------------------------------ *)

let conduct_frame conn frame =
  let job =
    match frame with
    | Frame.Job, payload -> (
        match decode_job payload with
        | Some job -> job
        | None -> failwith "undecodable job payload")
    | kind, _ ->
        failwith
          (Printf.sprintf "expected a job frame, got %s" (Frame.kind_tag kind))
  in
  let spec = spec_of_wire job in
  let cell = Runcell.analyse spec in
  let classes = cell.Runcell.space.Faultspace.classes in
  let plan = Runcell.plan_of_policy spec.Spec.policy classes in
  let fp = Runcell.fingerprint_cell cell ~plan in
  if fp <> job.fingerprint then
    failwith
      (Printf.sprintf
         "re-analysed cell fingerprint %s disagrees with the conductor's %s \
          (mismatched build or nondeterministic analysis?)"
         (Crc32.to_hex fp)
         (Crc32.to_hex job.fingerprint));
  let shards_total = Array.length plan.Shard.shards in
  Array.iter
    (fun id ->
      if id < 0 || id >= shards_total then
        failwith (Printf.sprintf "shard id %d out of range" id))
    job.shard_ids;
  let torture = parse_torture (Sys.getenv_opt torture_var) in
  (* Heartbeats: one [h] per conducted class, throttled, so the parent
     can tell a slow shard from a hung worker.  Lost beats are harmless
     — the deadline just bites a little earlier. *)
  let last_beat = ref 0. in
  let heartbeat ~class_index:_ _ =
    let now = Unix.gettimeofday () in
    if now -. !last_beat >= 0.01 then begin
      last_beat := now;
      Transport.send conn Frame.Door "h"
    end
  in
  Array.iteri
    (fun completed id ->
      inflict torture conn ~index:job.index ~completed ~next:(Some id);
      let shard = plan.Shard.shards.(id) in
      let buf = Runcell.conduct_shard ~on_class:heartbeat cell ~plan shard in
      Transport.send conn Frame.Seg
        (Journal.encode_line (Runcell.record_payload shard buf));
      Transport.send conn Frame.Door (Printf.sprintf "s %d" id))
    job.shard_ids;
  inflict torture conn ~index:job.index
    ~completed:(Array.length job.shard_ids) ~next:None;
  Transport.send conn Frame.Door "end"

let exit_reporting conn f =
  match f () with
  | () ->
      Transport.close conn;
      exit 0
  | exception exn ->
      let msg = Printexc.to_string exn in
      (try
         Transport.send conn Frame.Err msg;
         Transport.close conn
       with _ -> ());
      Printf.eprintf "fi worker (pid %d): %s\n%!" (Unix.getpid ()) msg;
      exit 3

let guard () =
  match Sys.getenv_opt env_var with
  | Some "1" ->
      (* The channel is private and the parent is this executable, so
         there is no handshake: the first frame is the job. *)
      let conn = Transport.of_fd ~peer:"parent" Unix.stdin in
      exit_reporting conn (fun () ->
          match Transport.recv conn with
          | Some frame -> conduct_frame conn frame
          | None -> failwith "parent closed the connection before the job")
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The parent side                                                    *)
(* ------------------------------------------------------------------ *)

type child = {
  pid : int;
  conn : Transport.conn;
  index : int;
  assigned : int array;
}

let spawn (job : wire_job) =
  let mine, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let env =
    Array.append (Unix.environment ()) [| Printf.sprintf "%s=1" env_var |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env theirs Unix.stderr Unix.stderr
  in
  Unix.close theirs;
  let conn = Transport.of_fd ~peer:(Printf.sprintf "pid %d" pid) mine in
  (* The child may already be dead (torture, OOM): a broken socket here
     is a supervision event, not a parent crash — the caller must have
     SIGPIPE ignored, which turns it into EPIPE.  EOF follows. *)
  (try Transport.send conn Frame.Job (encode_job job)
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  { pid; conn; index = job.index; assigned = job.shard_ids }

let wait child = snd (Unix.waitpid [] child.pid)

let kill child =
  try Unix.kill child.pid Sys.sigkill
  with Unix.Unix_error _ -> () (* already reaped / gone *)
