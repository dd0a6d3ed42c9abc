let serve_var = "FI_ENGINE_SVC_SERVE"

(* Handshake patience, mutable for the same reason as {!Remote}'s: the
   torture suite makes half-open peers cheap. *)
let handshake_timeout = ref 10.

(* ------------------------------------------------------------------ *)
(* Wire formats                                                       *)
(* ------------------------------------------------------------------ *)

(* Like {!Worker.wire_job}, a submission carries cell DESCRIPTIONS —
   assembled images plus plan-shaping policy fields — never closures.
   Marshal without [Closures] is sound because the handshake's binary
   digest already pinned both ends to the same executable. *)
type wire_cell = {
  c_benchmark : string;
  c_variant : string;
  c_model : Faultspace.model;
  c_limit : int option;
  c_shard_size : int option;
  c_weighted : bool;
  c_program : Program.t;
}

type wire_quarantined = {
  wq_shard : int;
  wq_classes : int;
  wq_attempts : int;
  wq_cause : string;
}

type wire_result = {
  r_label : string;
  r_scan : Scan.t;
  r_cached : bool;  (** Served from the result store — zero shards run. *)
  r_quarantined : wire_quarantined list;
}

let submit_magic = "fi-svc v1\n"
let result_magic = "fi-res v1\n"

let with_magic magic v = magic ^ Marshal.to_string v []

let of_magic : 'a. string -> string -> 'a option =
 fun magic s ->
  let mlen = String.length magic in
  if String.length s <= mlen || String.sub s 0 mlen <> magic then None
  else match Marshal.from_string s mlen with
    | v -> Some v
    | exception _ -> None

let encode_submission (cells : wire_cell list) = with_magic submit_magic cells

let decode_submission s : wire_cell list option = of_magic submit_magic s

let encode_results (rs : wire_result list) = with_magic result_magic rs

let decode_results s : wire_result list option = of_magic result_magic s

let cell_of_spec (spec : Spec.t) =
  {
    c_benchmark = spec.Spec.benchmark;
    c_variant = spec.Spec.variant;
    c_model = spec.Spec.model;
    c_limit = spec.Spec.limit;
    c_shard_size = spec.Spec.policy.Spec.sharding.Spec.shard_size;
    c_weighted = spec.Spec.policy.Spec.sharding.Spec.weighted;
    c_program = Worker.program_of_spec spec;
  }

(* The daemon-side spec: the service's own policy (journalling into its
   artifact directory, caching, supervision) around the client's cell. *)
let spec_of_cell ~policy (c : wire_cell) =
  {
    Spec.benchmark = c.c_benchmark;
    variant = c.c_variant;
    model = c.c_model;
    source = Spec.Build (fun () -> c.c_program);
    limit = c.c_limit;
    policy =
      {
        policy with
        Spec.sharding =
          { Spec.shard_size = c.c_shard_size; weighted = c.c_weighted };
      };
  }

(* The same key the engine will derive in [setup] — consulted by the
   daemon up front so a fully cached submission is served immediately,
   bypassing both the admission queue and the worker fleet. *)
let cell_key ~dir:_ (c : wire_cell) =
  let image = Digest.to_hex (Digest.string (Marshal.to_string c.c_program [])) in
  Cache.cell_key ~image
    ~space:(Faultspace.tag c.c_model)
    ~limit:c.c_limit ~shard_size:c.c_shard_size ~weighted:c.c_weighted

let fully_cached ~dir cells =
  cells <> []
  && List.for_all
       (fun c -> Cache.lookup ~dir (cell_key ~dir c) <> None)
       cells

(* ------------------------------------------------------------------ *)
(* Daemon configuration                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  listen : string;  (** HOST:PORT, port 0 = kernel-assigned. *)
  workers : string list;  (** Remote fleet; [[]] = run locally. *)
  local_backend : string;  (** {!Pool.backend_tag} used when no fleet. *)
  jobs : int;
  window : int;  (** {!Fairq} admission window, per client host. *)
  artifacts : string;  (** Catalogue + result-store directory. *)
  secret_file : string option;
}

let default_config =
  {
    listen = "127.0.0.1:0";
    workers = [];
    local_backend = "domains";
    jobs = 0;
    window = 4;
    artifacts = Catalog.default_dir;
    secret_file = None;
  }

let backend_of_config cfg =
  match cfg.workers with
  | [] -> (
      match Pool.backend_of_string cfg.local_backend with
      | Some b -> b
      | None ->
          failwith
            (Printf.sprintf "unknown service backend %S" cfg.local_backend))
  | hosts -> Pool.Sockets hosts

let announce_line addr =
  Printf.sprintf "fi-svc listening %s digest=%s" (Addr.to_string addr)
    (Handshake.self_digest ())

let parse_announce line =
  match String.split_on_char ' ' line with
  | "fi-svc" :: "listening" :: addr :: _ -> (
      match Addr.parse addr with Ok a -> Some a | Error _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The runner child                                                   *)
(* ------------------------------------------------------------------ *)

(* One forked child per admitted job.  It inherits the client's
   connection and streams progress and the final result straight to the
   submitter; the parent loop never blocks on a campaign.  A client that
   disconnects mid-run turns the child's sends into EPIPE — swallowed
   (SIGPIPE is ignored daemon-wide), so the campaign still finishes and
   its cells are still published to the result store for the next
   submitter. *)
let run_job ~cfg ~secret conn cells =
  let policy =
    Spec.make_policy ~catalogue:cfg.artifacts ~cache:cfg.artifacts
      ~max_retries:2 ~quarantine:true ()
  in
  let specs = List.map (spec_of_cell ~policy) cells in
  let lost = ref false in
  let say kind payload =
    if not !lost then
      try Transport.send conn kind payload
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      -> lost := true
  in
  (* A fully cached submission never touches the fleet: the engine's
     consult runs under a local backend, so a busy (or absent) fleet
     cannot delay a hit.  [serve_loop] only routes here when every cell
     is already published. *)
  let backend =
    if fully_cached ~dir:cfg.artifacts cells then Pool.Domains
    else backend_of_config cfg
  in
  match
    Engine.run_matrix_results ~backend ~jobs:cfg.jobs
      ~observe:
        (Progress.throttled (fun snap -> say Frame.Prog (Progress.render snap)))
      ~on_event:(fun msg -> say Frame.Stat (Printf.sprintf "supervision %s" msg))
      ?secret specs
  with
  | results ->
      let wired =
        List.map2
          (fun spec (r : Engine.result) ->
            {
              r_label = Spec.label spec;
              r_scan = r.Engine.scan;
              r_cached = r.Engine.cached;
              r_quarantined =
                List.map
                  (fun (q : Engine.quarantined) ->
                    {
                      wq_shard = q.Engine.q_shard;
                      wq_classes = q.Engine.q_classes;
                      wq_attempts = q.Engine.q_attempts;
                      wq_cause = q.Engine.q_cause;
                    })
                  r.Engine.quarantined;
            })
          specs results
      in
      say Frame.Res (encode_results wired)
  | exception exn -> say Frame.Err (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

(* Parent-side state for one connected client. *)
type session = {
  s_conn : Transport.conn;
  s_host : string;  (** Fairness key: the peer's host part. *)
  mutable s_submitted : bool;  (** One job per connection. *)
  mutable s_running : bool;  (** A runner child owns the reply stream. *)
}

let host_of_peer peer =
  match String.rindex_opt peer ':' with
  | Some i -> String.sub peer 0 i
  | None -> peer

let serve ?(config = default_config) ?(announce = fun _ -> ()) () =
  let cfg = config in
  let secret =
    match cfg.secret_file with
    | None -> None
    | Some file -> (
        match Hmac.load_secret file with
        | Ok s -> Some s
        | Error msg -> failwith msg)
  in
  let listen_addr = Addr.parse_exn cfg.listen in
  match Transport.listen listen_addr with
  | Error msg -> failwith msg
  | Ok (lfd, addr) ->
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      Catalog.ensure_dir cfg.artifacts;
      announce (announce_line addr);
      let sessions : (Unix.file_descr, session) Hashtbl.t = Hashtbl.create 8 in
      let queue : (session * wire_cell list) Fairq.t =
        Fairq.create ~window:cfg.window
      in
      (* The fleet (or the local pool) conducts one campaign at a time:
         queued jobs wait their fair turn.  Cache-hit jobs fork
         immediately and don't occupy the seat. *)
      let fleet_pid = ref None in
      let hit_pids = ref [] in
      let drop s =
        Hashtbl.remove sessions (Transport.fd s.s_conn);
        Transport.close s.s_conn
      in
      (* After forking a runner the parent parks the session: the child
         owns the reply stream; the parent only watches for EOF so a
         vanished client is cleaned up promptly. *)
      let reap () =
        let finish pid =
          if !fleet_pid = Some pid then fleet_pid := None;
          hit_pids := List.filter (fun p -> p <> pid) !hit_pids
        in
        let rec go () =
          match Unix.waitpid [ Unix.WNOHANG ] (-1) with
          | 0, _ -> ()
          | pid, _ ->
              finish pid;
              go ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ()
      in
      let fork_runner s cells =
        match Unix.fork () with
        | 0 ->
            Sysio.close_quietly lfd;
            Hashtbl.iter
              (fun fd _ ->
                if fd <> Transport.fd s.s_conn then Sysio.close_quietly fd)
              sessions;
            (try run_job ~cfg ~secret s.s_conn cells
             with exn ->
               Printf.eprintf "fi-svc runner (pid %d): %s\n%!" (Unix.getpid ())
                 (Printexc.to_string exn));
            exit 0
        | pid ->
            s.s_running <- true;
            pid
      in
      let status_line () =
        Printf.sprintf
          "fi-svc status clients=%d queued=%d busy=%b cached-cells=%d window=%d"
          (Hashtbl.length sessions) (Fairq.pending queue)
          (!fleet_pid <> None)
          (List.length (Cache.entries ~dir:cfg.artifacts))
          cfg.window
      in
      let handle_submit s payload =
        match decode_submission payload with
        | None ->
            Transport.send s.s_conn Frame.Err "undecodable submission payload";
            drop s
        | Some [] ->
            Transport.send s.s_conn Frame.Err "empty submission";
            drop s
        | Some _ when s.s_submitted ->
            Transport.send s.s_conn Frame.Err
              "one submission per connection — reconnect for the next job"
        | Some cells ->
            s.s_submitted <- true;
            if fully_cached ~dir:cfg.artifacts cells then begin
              (* Cache hit: serve instantly, off-queue, fleet untouched. *)
              Transport.send s.s_conn Frame.Stat "cache-hit serving";
              hit_pids := fork_runner s cells :: !hit_pids
            end
            else (
              match Fairq.admit queue ~client:s.s_host (s, cells) with
              | Ok depth ->
                  Transport.send s.s_conn Frame.Stat
                    (Printf.sprintf "queued depth=%d" depth)
              | Error msg ->
                  Transport.send s.s_conn Frame.Err msg;
                  drop s)
      in
      let handle_frame s (kind, payload) =
        match kind with
        | Frame.Submit -> handle_submit s payload
        | Frame.Stat -> Transport.send s.s_conn Frame.Stat (status_line ())
        | Frame.Hello -> () (* tolerated: re-hello is a no-op *)
        | Frame.Job | Frame.Door | Frame.Seg | Frame.Err | Frame.Prog
        | Frame.Res ->
            Transport.send s.s_conn Frame.Err
              (Printf.sprintf "unexpected %s frame" (Frame.kind_tag kind));
            drop s
      in
      let accept_one () =
        let conn = Transport.accept lfd in
        match Transport.recv ~timeout:!handshake_timeout conn with
        | Some (Frame.Hello, payload) -> (
            let mine = Handshake.hello ?secret () in
            match Handshake.decode payload with
            | None -> Transport.close conn
            | Some theirs -> (
                match Handshake.check ?secret ~mine ~theirs () with
                | Error msg ->
                    (try Transport.send conn Frame.Err msg
                     with Unix.Unix_error _ -> ());
                    Transport.close conn
                | Ok () ->
                    Transport.send conn Frame.Hello (Handshake.encode mine);
                    Hashtbl.replace sessions (Transport.fd conn)
                      {
                        s_conn = conn;
                        s_host = host_of_peer (Transport.peer conn);
                        s_submitted = false;
                        s_running = false;
                      }))
        | Some _ | None -> Transport.close conn
        | exception Frame.Corrupt _ -> Transport.close conn
        | exception Unix.Unix_error _ -> Transport.close conn
      in
      while true do
        reap ();
        (* One fleet campaign at a time; pop the next fair job. *)
        (if !fleet_pid = None then
           match Fairq.take queue with
           | Some (_, (s, cells)) -> fleet_pid := Some (fork_runner s cells)
           | None -> ());
        let fds =
          lfd
          :: Hashtbl.fold
               (fun fd s acc -> if s.s_running then acc else fd :: acc)
               sessions []
        in
        let ready = Sysio.select_read fds 0.2 in
        List.iter
          (fun fd ->
            if fd = lfd then accept_one ()
            else
              match Hashtbl.find_opt sessions fd with
              | None -> ()
              | Some s -> (
                  match Transport.pump s.s_conn with
                  | `Eof | `Corrupt _ -> drop s
                  | `Frames frames -> (
                      try List.iter (handle_frame s) frames
                      with Unix.Unix_error _ -> drop s)))
          ready;
        (* Sessions whose runner finished linger only until EOF; poll
           them cheaply so a completed client that closed its end is
           released. *)
        Hashtbl.iter
          (fun fd s ->
            if s.s_running then
              match Sysio.select_read [ fd ] 0. with
              | [ _ ] -> (
                  match Transport.pump s.s_conn with
                  | `Eof | `Corrupt _ -> drop s
                  | `Frames _ -> ())
              | _ -> ())
          (Hashtbl.copy sessions)
      done

(* ------------------------------------------------------------------ *)
(* Re-exec entry point and test/bench harness                         *)
(* ------------------------------------------------------------------ *)

let hex_encode s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length s) (fun i -> Char.code s.[i])))

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    match
      String.init (n / 2) (fun i ->
          Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
    with
    | v -> Some v
    | exception _ -> None

let guard () =
  match Sys.getenv_opt serve_var with
  | None | Some "" -> ()
  | Some value ->
      (try
         (match Option.bind (hex_decode value) (of_magic submit_magic) with
         | None -> failwith (Printf.sprintf "bad %s value" serve_var)
         | Some (config : config) ->
             (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
             serve ~config
               ~announce:(fun line ->
                 print_endline line;
                 flush stdout)
               ());
         exit 0
       with exn ->
         Printf.eprintf "fi-svc daemon (pid %d): %s\n%!" (Unix.getpid ())
           (Printexc.to_string exn);
         exit 3)

let spawn_daemon ?(config = default_config) () =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let env =
    Array.append (Unix.environment ())
      [|
        Printf.sprintf "%s=%s" serve_var
          (hex_encode (with_magic submit_magic config));
      |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec await budget last =
    if budget = 0 then
      Error (Printf.sprintf "daemon announced %S instead of an address" last)
    else
      match input_line ic with
      | line -> (
          match parse_announce line with
          | Some addr -> Ok (pid, addr)
          | None -> await (budget - 1) line)
      | exception End_of_file ->
          ignore (Unix.waitpid [] pid);
          Error "daemon exited before announcing its address"
  in
  await 64 "<nothing>"

let kill_daemon pid =
  (try Unix.kill (-pid) Sys.sigkill
   with Unix.Unix_error _ -> (
     try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Thin clients (fi-cli submit / status)                              *)
(* ------------------------------------------------------------------ *)

let with_service ?secret addr f =
  match Transport.connect addr with
  | Error _ as e -> e
  | Ok conn ->
      let tidy r =
        Transport.close conn;
        r
      in
      (match Remote.shake ?secret conn ~fingerprint:"" with
      | Error msg -> tidy (Error msg)
      | Ok _ -> (
          match f conn with
          | r -> tidy r
          | exception Frame.Corrupt msg -> tidy (Error msg)
          | exception Unix.Unix_error (err, _, _) ->
              tidy (Error (Unix.error_message err))))

let submit ?secret ?(on_progress = fun _ -> ()) ~addr cells =
  with_service ?secret addr (fun conn ->
      Transport.send conn Frame.Submit (encode_submission cells);
      let rec await () =
        match Transport.recv conn with
        | None -> Error "service closed the connection before a result"
        | Some (Frame.Stat, line) | Some (Frame.Prog, line) ->
            on_progress line;
            await ()
        | Some (Frame.Res, payload) -> (
            match decode_results payload with
            | Some rs -> Ok rs
            | None -> Error "undecodable result payload")
        | Some (Frame.Err, msg) -> Error (Printf.sprintf "service refused: %s" msg)
        | Some (kind, _) ->
            Error
              (Printf.sprintf "service sent an unexpected %s frame"
                 (Frame.kind_tag kind))
      in
      await ())

let status ?secret ~addr () =
  with_service ?secret addr (fun conn ->
      Transport.send conn Frame.Stat "";
      match Transport.recv ~timeout:!handshake_timeout conn with
      | Some (Frame.Stat, line) -> Ok line
      | Some (Frame.Err, msg) -> Error (Printf.sprintf "service refused: %s" msg)
      | Some (kind, _) ->
          Error
            (Printf.sprintf "service sent an unexpected %s frame"
               (Frame.kind_tag kind))
      | None -> Error "service closed the connection")
