(* CPU time and peak resident set, read from the kernel. *)

(* Linux's USER_HZ, the unit of /proc/<pid>/stat times. *)
let clock_ticks = 100.

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* User plus system CPU of this process and of every child it has
   reaped, in seconds. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* utime + stime + cutime + cstime of a live process, in seconds. *)
let pid_cpu pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some s -> (
      let rest =
        let i = String.rindex s ')' in
        String.sub s (i + 2) (String.length s - i - 2)
      in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 14 ->
          let f k = float_of_string (List.nth fields k) in
          (f 11 +. f 12 +. f 13 +. f 14) /. clock_ticks
      | _ -> 0.)

(* Start a fresh peak for this process: collect, then reset VmHWM to
   the current resident set (Linux's clear_refs value 5). *)
let reset_peak_rss () =
  Gc.full_major ();
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* VmHWM of a process in MiB ([0.] once it is gone). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | None -> 0.
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0.
        (String.split_on_char '\n' s)

(* Peak resident set, in MiB, of the largest child this process has
   reaped; a reaped daemon's figure covers the runners it reaped. *)
external children_maxrss_kb : unit -> int = "fibench_children_maxrss_kb" [@@noalloc]

let children_peak_rss_mb () = float_of_int (children_maxrss_kb ()) /. 1024.

(* The live or not yet reaped children of [pid], from /proc/*/stat. *)
let children pid =
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some child -> (
          match read_file (Printf.sprintf "/proc/%d/stat" child) with
          | None -> acc
          | Some s -> (
              let i = String.rindex s ')' in
              match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
              | _state :: ppid :: _ when int_of_string ppid = pid -> child :: acc
              | _ -> acc)))
    [] (Sys.readdir "/proc")
