exception Journal_mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Journal_mismatch s)) fmt

(* ------------------------------------------------------------------ *)
(* Analysed cells                                                     *)
(* ------------------------------------------------------------------ *)

(* A spec resolved to everything a conductor needs: the fault model's
   analysed cell (golden run, class partition, per-experiment conductor)
   and the session provider to conduct it on. *)
type cell = {
  spec : Spec.t;
  space : Faultspace.cell;
  provider : unit -> Injector.provider;
}

(* Deferred so that a parent process which only analyses (journals,
   shards, dispatches) never pays for the checkpoint ladder — only a
   process that actually conducts experiments builds it, exactly once.
   A mutex-guarded once-cell rather than [Lazy.t]: the domains backend
   forces it from several domains at once, which [Lazy] forbids. *)
let provider_of_policy (policy : Spec.policy) golden =
  let lock = Mutex.create () in
  let built = ref None in
  fun () ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match !built with
        | Some p -> p
        | None ->
            let p =
              match policy.Spec.acceleration.Spec.checkpoint_stride with
              | Some stride -> Injector.plan ~stride golden
              | None -> Injector.plan golden
            in
            built := Some p;
            p)

let cell_of spec (space : Faultspace.cell) =
  {
    spec;
    space;
    provider = provider_of_policy spec.Spec.policy space.Faultspace.golden;
  }

let analyse (spec : Spec.t) =
  let model = spec.Spec.model in
  match (model, spec.Spec.source) with
  | Faultspace.Bitflip_reg, Spec.Analysed_registers r ->
      cell_of spec (Faultspace.of_regspace r)
  | (Faultspace.Bitflip_mem | Faultspace.Burst _ | Faultspace.Skip),
      Spec.Analysed_memory golden ->
      cell_of spec (Faultspace.of_golden model golden)
  | _, Spec.Build build ->
      cell_of spec (Faultspace.analyse ?limit:spec.Spec.limit model (build ()))
  | Faultspace.Bitflip_reg, Spec.Analysed_memory _
  | (Faultspace.Bitflip_mem | Faultspace.Burst _ | Faultspace.Skip),
      Spec.Analysed_registers _ ->
      invalid_arg "Engine: spec fault model contradicts its analysed source"

(* ------------------------------------------------------------------ *)
(* Campaign identity and journal payloads                             *)
(* ------------------------------------------------------------------ *)

(* The program image's digest: MD5 of its marshalled [Program.t]
   (code, ROM, RAM layout and initial contents).  Two programs that
   agree on name, runtime and class list but differ in one instruction
   get different digests, so neither a journal nor a result-store entry
   of one ever serves the other. *)
let image_digest (program : Program.t) =
  Digest.to_hex (Digest.string (Marshal.to_string program []))

(* The fault model's [Faultspace.tag] leads, the image digest follows.
   The classes are hashed in array order. *)
let fingerprint_cell { spec; space; _ } ~(plan : Shard.plan) =
  let golden = space.Faultspace.golden in
  let classes = space.Faultspace.classes in
  let buf = Buffer.create (96 + (Array.length classes * 12)) in
  Buffer.add_string buf (Faultspace.tag spec.Spec.model);
  Buffer.add_char buf '|';
  Buffer.add_string buf (image_digest golden.Golden.program);
  Buffer.add_char buf '|';
  Buffer.add_string buf golden.Golden.program.Program.name;
  Buffer.add_string buf
    (Printf.sprintf "|%d|%d|%d|%s|" golden.Golden.cycles
       space.Faultspace.ram_bytes plan.Shard.shard_size
       (Shard.sizing_tag plan.Shard.sizing));
  Array.iter
    (fun (c : Defuse.byte_class) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d;" c.Defuse.byte c.Defuse.t_start
           c.Defuse.t_end))
    classes;
  Crc32.string (Buffer.contents buf)

let plan_of_policy (policy : Spec.policy) classes =
  Shard.plan
    ?shard_size:policy.Spec.sharding.Spec.shard_size
    ~weighted:policy.Spec.sharding.Spec.weighted classes

(* One version string for every fault model; the [space=] value is the
   model tag and [image=] the program image's digest, so a resume
   against a journal of another program (even one with the same name
   and class list) is refused. *)
let header_payload { spec; space; _ } ~(plan : Shard.plan) ~fp =
  let golden = space.Faultspace.golden in
  Printf.sprintf
    "fi-engine v4 space=%s sizing=%s cycles=%d ram_bytes=%d classes=%d \
     shard_size=%d shards=%d image=%s fingerprint=%s name=%s"
    (Faultspace.tag spec.Spec.model)
    (Shard.sizing_tag plan.Shard.sizing)
    golden.Golden.cycles space.Faultspace.ram_bytes plan.Shard.classes_total
    plan.Shard.shard_size
    (Array.length plan.Shard.shards)
    (image_digest golden.Golden.program)
    (Crc32.to_hex fp) golden.Golden.program.Program.name

let key_int key tok =
  let p = key ^ "=" in
  let plen = String.length p in
  if String.length tok > plen && String.sub tok 0 plen = p then
    int_of_string_opt (String.sub tok plen (String.length tok - plen))
  else None

let header_shard_count header =
  (* "... shards=N ..." somewhere in a header payload. *)
  List.find_map (key_int "shards") (String.split_on_char ' ' header)

let header_model_tag header =
  (* "... space=<tag> ..." of an engine campaign header — [None] for
     anything that is not one (foreign files). *)
  if String.length header < 10 || String.sub header 0 10 <> "fi-engine " then
    None
  else
    List.find_map
      (fun tok ->
        if String.length tok > 6 && String.sub tok 0 6 = "space=" then
          Some (String.sub tok 6 (String.length tok - 6))
        else None)
      (String.split_on_char ' ' header)

let journal_model_tag path =
  match Journal.replay path with
  | Some (header, _, _) -> header_model_tag header
  | None -> None

let record_payload (shard : Shard.t) outcomes =
  Printf.sprintf "shard=%d outcomes=%s" shard.Shard.id outcomes

let parse_record (plan : Shard.plan) payload =
  match String.index_opt payload ' ' with
  | Some sp when String.length payload > 15 && String.sub payload 0 6 = "shard=" -> (
      let id = int_of_string_opt (String.sub payload 6 (sp - 6)) in
      let rest = String.sub payload (sp + 1) (String.length payload - sp - 1) in
      if String.length rest < 9 || String.sub rest 0 9 <> "outcomes=" then None
      else
        let outs = String.sub rest 9 (String.length rest - 9) in
        match id with
        | Some id when id >= 0 && id < Array.length plan.Shard.shards ->
            let shard = plan.Shard.shards.(id) in
            if String.length outs <> 8 * Shard.classes_in shard then None
            else Some (shard, outs)
        | Some _ | None -> None)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Supervision records                                                *)
(* ------------------------------------------------------------------ *)

(* Supervision events share the campaign journal with shard records:
   [sup retry ...] / [sup quarantine ...] lines, so a resumed campaign
   knows how many retries a shard has already burned and which shards
   were given up.  The free-form [cause] comes last so it may contain
   spaces; newlines are sanitized away (the journal forbids them). *)

type supervision =
  | Retry of { shard : int; attempt : int; cause : string }
  | Quarantine of { shard : int; attempts : int; cause : string }

let sanitize_cause s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let supervision_payload = function
  | Retry { shard; attempt; cause } ->
      Printf.sprintf "sup retry shard=%d attempt=%d cause=%s" shard attempt
        (sanitize_cause cause)
  | Quarantine { shard; attempts; cause } ->
      Printf.sprintf "sup quarantine shard=%d attempts=%d cause=%s" shard
        attempts (sanitize_cause cause)

let parse_supervision payload =
  let marker = " cause=" in
  let mlen = String.length marker in
  let n = String.length payload in
  let rec find i =
    if i + mlen > n then None
    else if String.sub payload i mlen = marker then
      Some (String.sub payload 0 i, String.sub payload (i + mlen) (n - i - mlen))
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some (head, cause) -> (
      match String.split_on_char ' ' head with
      | [ "sup"; "retry"; sh; at ] -> (
          match (key_int "shard" sh, key_int "attempt" at) with
          | Some shard, Some attempt -> Some (Retry { shard; attempt; cause })
          | _ -> None)
      | [ "sup"; "quarantine"; sh; at ] -> (
          match (key_int "shard" sh, key_int "attempts" at) with
          | Some shard, Some attempts ->
              Some (Quarantine { shard; attempts; cause })
          | _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Journal completion (compaction's gate)                             *)
(* ------------------------------------------------------------------ *)

let journal_finished path =
  match Journal.replay path with
  | Some (header, records, Journal.Clean) -> (
      match header_shard_count header with
      | None -> false (* not an engine campaign header *)
      | Some total ->
          let seen = Array.make (max 1 total) false in
          List.iter
            (fun payload ->
              if String.length payload > 6 && String.sub payload 0 6 = "shard="
              then
                match String.index_opt payload ' ' with
                | Some sp -> (
                    match int_of_string_opt (String.sub payload 6 (sp - 6)) with
                    | Some id when id >= 0 && id < total -> seen.(id) <- true
                    | Some _ | None -> ())
                | None -> ())
            records;
          total = 0 || Array.for_all Fun.id seen)
  | Some (_, _, (Journal.Torn_tail _ | Journal.Corrupt_record _)) | None ->
      false

(* ------------------------------------------------------------------ *)
(* The single-shard conductor                                         *)
(* ------------------------------------------------------------------ *)

let conduct_shard ?(on_class = fun ~class_index:_ _ -> ()) cell
    ~(plan : Shard.plan) (shard : Shard.t) =
  let { Faultspace.classes; conduct; _ } = cell.space in
  let session = Injector.session (cell.provider ()) in
  let n = Shard.classes_in shard in
  let buf = Bytes.create (8 * n) in
  for k = 0 to n - 1 do
    let class_index = plan.Shard.order.(shard.Shard.lo + k) in
    let c = classes.(class_index) in
    for bit_in_byte = 0 to 7 do
      let o = conduct session c ~bit_in_byte in
      Bytes.set buf ((8 * k) + bit_in_byte) (Outcome.to_char o)
    done;
    on_class ~class_index (Bytes.sub_string buf (8 * k) 8)
  done;
  Bytes.unsafe_to_string buf
