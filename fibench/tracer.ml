(* In-memory spans around the benchmark's calls into each layer.

   A span records its name, start, end, the span that caused it and the
   trace id shared by every span of one cell, submission or program.
   Spans may be recorded from engine worker domains (build thunks and
   progress callbacks run there), so the buffer is mutex-guarded and
   parents are passed explicitly rather than kept on an implicit stack.
   Nothing is written until [write] at the end of the run. *)

type span = {
  id : int;
  trace : int;
  parent : int option;
  name : string;
  start : float;
  stop : float;
}

type event = { e_trace : int; e_name : string; e_at : float; e_detail : string }

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let events : event list ref = ref []
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1
let now = Unix.gettimeofday
let locked f = Mutex.protect lock f

let record s = locked (fun () -> spans := s :: !spans)

(* [span ~trace name f] runs [f id] — [id] is the new span's id, to be
   passed as [~parent] to nested spans — and records the span when
   tracing is on.  With tracing off it is [f 0]. *)
let span ?parent ~trace name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let start = now () in
    let finish () = record { id; trace; parent; name; start; stop = now () } in
    Fun.protect ~finally:finish (fun () -> f id)
  end

(* A span measured elsewhere (start and end already known). *)
let add ?parent ~trace name ~start ~stop =
  if !enabled then record { id = fresh_id (); trace; parent; name; start; stop }

let event ~trace name ?(detail = "") at =
  if !enabled then
    locked (fun () ->
        events := { e_trace = trace; e_name = name; e_at = at; e_detail = detail }
                  :: !events)

let all () = locked (fun () -> List.rev !spans)
let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's duration minus the part of it its children cover. *)
let self_time s ~children =
  duration s
  -. covered ~lo:s.start ~hi:s.stop
       (List.map (fun c -> (c.start, c.stop)) children)

let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add kids p s
      | None -> ())
    spans;
  List.map (fun s -> (s, self_time s ~children:(Hashtbl.find_all kids s.id))) spans

let named name = List.filter (fun s -> s.name = name) (all ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line: spans (with self time), then events. *)
let write path ~t0 =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"span\":%d,\"trace\":%d,\"parent\":%s,\"name\":%s,\"start_ms\":%.3f,\"end_ms\":%.3f,\"self_ms\":%.3f}\n"
            s.id s.trace
            (match s.parent with None -> "null" | Some p -> string_of_int p)
            (json_string s.name)
            ((s.start -. t0) *. 1000.)
            ((s.stop -. t0) *. 1000.)
            (self *. 1000.))
        (self_times (all ()));
      List.iter
        (fun e ->
          Printf.fprintf oc "{\"event\":%s,\"trace\":%d,\"at_ms\":%.3f,\"detail\":%s}\n"
            (json_string e.e_name) e.e_trace
            ((e.e_at -. t0) *. 1000.)
            (json_string e.e_detail))
        (locked (fun () -> List.rev !events)))
