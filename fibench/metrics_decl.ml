(* The metrics the benchmark reports.  Their names and units have one
   source, BENCHMARK.json at the repository root, read at start-up; the
   run fails if the metrics it computes are not exactly the declared
   ones. *)

type decl = { name : string; unit : string }

let benchmark_file = "BENCHMARK.json"

(* The string literal that starts at or after [i] in [s], and the index
   past its closing quote.  BENCHMARK.json's names and units carry no
   escapes (see [valid_name] and [valid_unit]). *)
let string_at s i =
  let a = String.index_from s i '"' in
  let b = String.index_from s (a + 1) '"' in
  (String.sub s (a + 1) (b - a - 1), b + 1)

(* The index of the first occurrence of [sub] in [s], if any. *)
let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let key_index s k =
  match find_sub s (Printf.sprintf "\"%s\"" k) with
  | Some i -> i + String.length k + 2
  | None -> failwith (Printf.sprintf "%s: no key %S" benchmark_file k)

(* The string value of key [k] in the object text [obj]. *)
let field obj k = fst (string_at obj (String.index_from obj (key_index obj k) ':'))

(* The [name]/[unit] pairs of the array under top-level key [k]: every
   [{...}] between the key's [[] and its closing []]. *)
let section json k =
  let lo = String.index_from json (key_index json k) '[' in
  let hi = String.index_from json lo ']' in
  let rec objects i acc =
    match String.index_from_opt json i '{' with
    | Some a when a < hi ->
        let b = String.index_from json a '}' in
        objects (b + 1) (String.sub json a (b - a + 1) :: acc)
    | _ -> List.rev acc
  in
  List.map (fun o -> { name = field o "name"; unit = field o "unit" }) (objects lo [])

let declared =
  lazy
    (let json = In_channel.with_open_text benchmark_file In_channel.input_all in
     (section json "end_to_end", section json "per_layer"))

(* Measured with tracing off, on every workload. *)
let end_to_end () = fst (Lazy.force declared)

(* From the traced run, on every workload. *)
let per_layer () = snd (Lazy.force declared)

let unit_of name =
  match List.find_opt (fun m -> m.name = name) (end_to_end () @ per_layer ()) with
  | Some m -> m.unit
  | None -> failwith (Printf.sprintf "metric %s is not declared in %s" name benchmark_file)

(* [computed] in the declared order, failing unless the computed names
   are exactly the declared ones. *)
let in_declared_order decls computed =
  let names l = List.sort compare l in
  if names (List.map fst computed) <> names (List.map (fun m -> m.name) decls) then
    failwith
      (Printf.sprintf "computed metrics {%s} differ from %s's {%s}"
         (String.concat ", " (List.map fst computed))
         benchmark_file
         (String.concat ", " (List.map (fun m -> m.name) decls)));
  List.map (fun m -> (m, List.assoc m.name computed)) decls

let conduct_buckets = [ "no_effect"; "corrected"; "sdc"; "timeout"; "trap"; "other" ]

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A name starts with a letter or digit and has at most 64 letters,
   digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit has at most 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
