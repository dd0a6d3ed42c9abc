let serve_var = "FI_ENGINE_NET_SERVE"

(* Supervision-loop patience for peers that connect but never speak:
   mutable so the torture suite can shrink them (a half-open peer then
   costs half a second, not the production ten). *)
let connect_timeout = ref 10.
let handshake_timeout = ref 10.

(* ------------------------------------------------------------------ *)
(* Client side (the conducting engine)                                *)
(* ------------------------------------------------------------------ *)

type client = {
  conn : Transport.conn;
  addr : Addr.t;
  index : int;
  assigned : int array;
}

let shake ?timeout ?secret conn ~fingerprint =
  let timeout = Option.value timeout ~default:!handshake_timeout in
  let mine = Handshake.hello ~fingerprint ?secret () in
  Transport.send conn Frame.Hello (Handshake.encode mine);
  match Transport.recv ~timeout conn with
  | None -> Error "connection closed during handshake"
  | Some (Frame.Err, msg) -> Error (Printf.sprintf "peer refused: %s" msg)
  | Some (Frame.Hello, payload) -> (
      match Handshake.decode payload with
      | None -> Error "peer sent a malformed hello"
      | Some theirs -> (
          match Handshake.check ?secret ~mine ~theirs () with
          | Ok () -> Ok theirs
          | Error _ as e -> e))
  | Some (kind, _) ->
      Error
        (Printf.sprintf "peer sent a %s frame instead of a hello"
           (Frame.kind_tag kind))

let with_conn ?timeout addr f =
  let timeout = Option.value timeout ~default:!connect_timeout in
  match Transport.connect ~timeout addr with
  | Error _ as e -> e
  | Ok conn -> (
      match f conn with
      | r -> r
      | exception Frame.Corrupt msg ->
          Transport.close conn;
          Error msg
      | exception Unix.Unix_error (err, _, _) ->
          Transport.close conn;
          Error (Unix.error_message err))

let probe ?secret addr =
  with_conn addr (fun conn ->
      let r = shake ?secret conn ~fingerprint:"" in
      Transport.close conn;
      r)

(* [patience] caps both the connect and handshake timeouts: the engine
   shortens it when re-dialling a host that already failed once, so a
   dead host costs the supervision loop seconds, not two full default
   timeouts on every backoff round. *)
let dispatch ?patience ?secret ~addr (job : Worker.wire_job) =
  let cap dflt =
    match patience with Some p -> Float.min p dflt | None -> dflt
  in
  with_conn ~timeout:(cap !connect_timeout) addr (fun conn ->
      match
        shake conn
          ~timeout:(cap !handshake_timeout)
          ?secret
          ~fingerprint:(Crc32.to_hex job.Worker.fingerprint)
      with
      | Error _ as e ->
          Transport.close conn;
          e
      | Ok _ ->
          Transport.send conn Frame.Job (Worker.encode_job job);
          Ok
            {
              conn;
              addr;
              index = job.Worker.index;
              assigned = job.Worker.shard_ids;
            })

(* ------------------------------------------------------------------ *)
(* Worker side: conducting one connection                             *)
(* ------------------------------------------------------------------ *)

let serve_connection ~capacity ?secret conn =
  match Transport.recv ~timeout:!handshake_timeout conn with
  | None -> () (* connected, said nothing, left — a port scan *)
  | Some (Frame.Hello, payload) -> (
      let mine = Handshake.hello ~capacity ?secret () in
      (match Handshake.decode payload with
      | None -> failwith "malformed hello"
      | Some theirs -> (
          match Handshake.check ?secret ~mine ~theirs () with
          | Ok () -> ()
          | Error msg ->
              Transport.send conn Frame.Err msg;
              failwith msg));
      Transport.send conn Frame.Hello (Handshake.encode mine);
      match Transport.recv ~timeout:!handshake_timeout conn with
      | None -> () (* a probe: hello exchange only *)
      | Some frame -> Worker.conduct_frame conn frame)
  | Some (kind, _) ->
      failwith
        (Printf.sprintf "expected a hello frame, got %s" (Frame.kind_tag kind))

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

let announce_line addr ~workers =
  Printf.sprintf "fi-net listening %s workers=%d digest=%s"
    (Addr.to_string addr) workers
    (Handshake.self_digest ())

let parse_announce line =
  match String.split_on_char ' ' line with
  | "fi-net" :: "listening" :: addr :: _ -> (
      match Addr.parse addr with Ok a -> Some a | Error _ -> None)
  | _ -> None

let serve ~listen ~workers ?secret ?(announce = fun _ -> ()) () =
  if workers < 1 then
    invalid_arg (Printf.sprintf "Remote.serve: workers %d" workers);
  match Transport.listen listen with
  | Error msg -> failwith msg
  | Ok (lfd, addr) ->
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      announce (announce_line addr ~workers);
      let live = ref 0 in
      (* Non-blocking: drain every already-exited child.  Blocking:
         return after reaping ONE child — a single freed seat must
         unblock accept immediately (the caller's [while !live >=
         workers] re-checks), not wait for the whole wave to finish. *)
      let reap ~block =
        let flags = if block then [] else [ Unix.WNOHANG ] in
        let continue = ref (!live > 0) in
        while !continue do
          match Unix.waitpid flags (-1) with
          | 0, _ -> continue := false
          | _ ->
              decr live;
              if block || !live = 0 then continue := false
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              live := 0;
              continue := false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done
      in
      while true do
        reap ~block:false;
        while !live >= workers do
          reap ~block:true
        done;
        let conn = Transport.accept lfd in
        match Unix.fork () with
        | 0 ->
            Sysio.close_quietly lfd;
            Worker.exit_reporting conn (fun () ->
                serve_connection ~capacity:workers ?secret conn)
        | _pid ->
            incr live;
            (* Close the parent's copy only — no shutdown, the child owns
               the connection. *)
            Sysio.close_quietly (Transport.fd conn)
      done

(* ------------------------------------------------------------------ *)
(* Re-exec entry point (tests, bench, and `fi-cli worker serve`)       *)
(* ------------------------------------------------------------------ *)

let guard () =
  match Sys.getenv_opt serve_var with
  | None | Some "" -> ()
  | Some value ->
      (try
         let bad () = failwith (Printf.sprintf "bad %s value %S" serve_var value) in
         let addr, workers, secret_file =
           match String.split_on_char ';' value with
           | [ addr; workers ] -> (addr, workers, None)
           | [ addr; workers; secret ] -> (addr, workers, Some secret)
           | _ -> bad ()
         in
         let secret =
           match secret_file with
           | None -> None
           | Some file -> (
               match Hmac.load_secret file with
               | Ok s -> Some s
               | Error msg -> failwith msg)
         in
         (match (Addr.parse addr, int_of_string_opt workers) with
         | Ok listen, Some workers ->
             (* Lead a fresh process group so killing the daemon
                (group) also takes down its conducting children. *)
             (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
             serve ~listen ~workers ?secret
               ~announce:(fun line ->
                 print_endline line;
                 flush stdout)
               ()
         | _ -> bad ());
         exit 0
       with exn ->
         Printf.eprintf "fi-net daemon (pid %d): %s\n%!" (Unix.getpid ())
           (Printexc.to_string exn);
         exit 3)

let spawn_daemon ?(listen = { Addr.host = "127.0.0.1"; port = 0 }) ~workers
    ?secret_file () =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let value =
    match secret_file with
    | None -> Printf.sprintf "%s;%d" (Addr.to_string listen) workers
    | Some file ->
        Printf.sprintf "%s;%d;%s" (Addr.to_string listen) workers file
  in
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s" serve_var value |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  (* The hosting binary may print unrelated lines before [guard] runs
     (module initialisers — test registration, banners).  Skip until the
     announce line, within reason.  Leave the channel open afterwards:
     closing it would close the pipe and could SIGPIPE a chatty daemon;
     the descriptor dies with us. *)
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
