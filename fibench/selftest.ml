(* Self-tests of the benchmark's own arithmetic and gates.  They run at
   the start of every benchmark run and alone with [--self-test]. *)

let failures = ref []
let expect name ok = if not ok then failures := name :: !failures

let tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  expect "tail n=100 is p90=90" (Stats.tail (xs 100) = Some (90., 90., 100));
  expect "tail n=1000 is p99=990" (Stats.tail (xs 1000) = Some (99., 990., 1000));
  expect "tail n=20 is p50=10" (Stats.tail (xs 20) = Some (50., 10., 20));
  expect "tail n=19 has none" (Stats.tail (xs 19) = None);
  expect "tail n=10000 is p99.9" (Stats.tail (xs 10000) = Some (99.9, 9990., 10000));
  expect "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5)

let name_grammar () =
  let open Metrics_decl in
  expect "name: dotted" (valid_name "conduct.p50_us");
  expect "name: leading digit" (valid_name "9lives");
  expect "name: leading _" (not (valid_name "_x"));
  expect "name: space" (not (valid_name "a b"));
  expect "name: 65 chars" (not (valid_name (String.make 65 'a')));
  expect "unit: 1/s" (valid_unit "1/s");
  expect "unit: %" (valid_unit "%");
  expect "unit: 17 chars" (not (valid_unit (String.make 17 'a')));
  let all = end_to_end () @ per_layer () in
  List.iter
    (fun m ->
      expect ("grammar " ^ m.name) (valid_name m.name && valid_unit m.unit))
    all;
  expect "names unique"
    (List.length (List.sort_uniq compare (List.map (fun m -> m.name) all))
    = List.length all);
  let decls = [ { name = "a"; unit = "s" }; { name = "b"; unit = "ms" } ] in
  let fails computed =
    match in_declared_order decls computed with _ -> false | exception Failure _ -> true
  in
  expect "declared order" (in_declared_order decls [ ("b", 2.); ("a", 1.) ]
                           = [ (List.hd decls, 1.); (List.nth decls 1, 2.) ]);
  expect "undeclared metric fails" (fails [ ("a", 1.); ("b", 2.); ("c", 3.) ]);
  expect "missing metric fails" (fails [ ("a", 1.) ])

let self_time () =
  let s id parent start stop =
    { Tracer.id; trace = 1; parent; name = "x"; start; stop }
  in
  let parent = s 1 None 0. 10. in
  let kids = [ s 2 (Some 1) 1. 3.; s 3 (Some 1) 2. 5.; s 4 (Some 1) 8. 12. ] in
  expect "self time: overlapping and clipped children"
    (Tracer.self_time parent ~children:kids = 4.);
  expect "self time: no children" (Tracer.self_time parent ~children:[] = 10.);
  expect "self time: child covers all"
    (Tracer.self_time parent ~children:[ s 5 (Some 1) (-1.) 11. ] = 0.)

let reference_gate refs =
  match refs with
  | [] -> expect "reference file is empty" false
  | (label, (t : Delta.tally)) :: _ ->
      expect "reference: untouched passes"
        (Check.against_reference refs ~label t = Ok ());
      let tampered =
        match t.Delta.histogram with
        | (o, n) :: rest -> { t with Delta.histogram = (o, n - 1) :: rest }
        | [] -> t
      in
      expect "reference: tampered histogram fails"
        (Result.is_error (Check.against_reference refs ~label tampered));
      expect "reference: tampered F fails"
        (Result.is_error
           (Check.against_reference refs ~label
              { t with Delta.failures = t.Delta.failures + 1 }))

let audit_gate () =
  let prog = Gen.program (Prng.create ~seed:7L) in
  let golden = Golden.run (Delta.compile_baseline prog) in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let scan = Scan.pruned golden in
  let audit scan = Check.audit ~rng:(Prng.create ~seed:1L) ~k:8 ~label:"selftest" cell scan in
  expect "audit: campaign passes" (audit scan = Ok ());
  let other = function Outcome.No_effect -> Outcome.Sdc | _ -> Outcome.No_effect in
  let tampered =
    {
      scan with
      Scan.experiments =
        Array.map
          (fun (e : Scan.experiment) -> { e with Scan.outcome = other e.Scan.outcome })
          scan.Scan.experiments;
    }
  in
  expect "audit: tampered outcomes fail" (Result.is_error (audit tampered))

let run ~refs =
  failures := [];
  tail_rule ();
  name_grammar ();
  self_time ();
  reference_gate refs;
  audit_gate ();
  List.rev !failures
