(* Correctness gates: the stored replay reference for the paper's cells
   and the seeded replay audit of individual experiment slots. *)

let render_tally label (t : Delta.tally) =
  String.concat " "
    (label
    :: Printf.sprintf "space=%d" t.Delta.space
    :: Printf.sprintf "failures=%d" t.Delta.failures
    :: List.map
         (fun (o, n) -> Printf.sprintf "%s=%d" (Outcome.to_string o) n)
         t.Delta.histogram)

let parse_tally line =
  match String.split_on_char ' ' (String.trim line) with
  | label :: fields -> (
      let kv =
        List.filter_map
          (fun f ->
            match String.index_opt f '=' with
            | Some i ->
                Some
                  ( String.sub f 0 i,
                    int_of_string (String.sub f (i + 1) (String.length f - i - 1))
                  )
            | None -> None)
          fields
      in
      match (List.assoc_opt "space" kv, List.assoc_opt "failures" kv) with
      | Some space, Some failures ->
          let histogram =
            List.filter_map
              (fun (k, n) ->
                Option.map (fun o -> (o, n)) (Outcome.of_string k))
              kv
          in
          Some (label, { Delta.space; failures; histogram })
      | _ -> None)
  | [] -> None

let load_reference path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match parse_tally l with
         | Some e -> e
         | None -> failwith (Printf.sprintf "%s: malformed line %S" path l))

(* Exact equality of the weighted histogram and F with the reference. *)
let against_reference refs ~label (got : Delta.tally) =
  match List.assoc_opt label refs with
  | None -> Error (Printf.sprintf "%s: no stored reference" label)
  | Some want when want = got -> Ok ()
  | Some want ->
      Error
        (Printf.sprintf "%s: reference mismatch\n  want %s\n  got  %s" label
           (render_tally label want) (render_tally label got))

(* The replay reference of a memory cell: the serial pruned scan on a
   restart-from-reset provider, no checkpoint accelerator involved. *)
let replay_tally golden =
  Delta.tally_of_scan (Scan.pruned ~provider:(Injector.replay golden) golden)

(* Draw [k] (class, bit) slots from [rng] and re-conduct each on a fresh
   restart-from-reset session; every outcome must equal the one the
   campaign recorded in [scan]. *)
let audit ~rng ~k ~label (cell : Faultspace.cell) (scan : Scan.t) =
  let classes = cell.Faultspace.classes in
  let n = Array.length classes in
  if Array.length scan.Scan.experiments <> 8 * n then
    Error
      (Printf.sprintf "%s: campaign has %d experiments, analysis %d" label
         (Array.length scan.Scan.experiments) (8 * n))
  else
    let rec go i =
      if i = k || n = 0 then Ok ()
      else
        let ci = Prng.int rng n and bit = Prng.int rng 8 in
        let session = Injector.session (Injector.replay cell.Faultspace.golden) in
        let got = cell.Faultspace.conduct session classes.(ci) ~bit_in_byte:bit in
        let want = scan.Scan.experiments.((ci * 8) + bit).Scan.outcome in
        if got = want then go (i + 1)
        else
          Error
            (Printf.sprintf "%s: audit slot (class %d, bit %d): campaign %s, replay %s"
               label ci bit (Outcome.to_string want) (Outcome.to_string got))
    in
    go 0
