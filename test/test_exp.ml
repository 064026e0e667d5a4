(* Tests of the uniform experiment API (lib/exp) and the scenario
   registry: axis parsing, cross-products, determinism of the multicore
   sweep engine against the sequential runner, and a round-trip of every
   registered scenario at tiny durations. *)

module E = Mptcp_repro.Exp
module S = Mptcp_repro.Scenarios
module Json = Mptcp_repro.Stats.Json

let scen_a_spec =
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find "scenario-a" in
  Sc.spec

let values_testable =
  Alcotest.testable
    (fun fmt vs ->
      Format.pp_print_string fmt
        (String.concat ";" (List.map E.Spec.value_to_string vs)))
    ( = )

let test_axis_int_range () =
  let ax = E.Sweep.axis scen_a_spec ~key:"n2" "10:40:10" in
  Alcotest.check values_testable "inclusive range"
    [ E.Spec.Int 10; E.Spec.Int 20; E.Spec.Int 30; E.Spec.Int 40 ]
    ax.E.Sweep.values;
  let ax = E.Sweep.axis scen_a_spec ~key:"n2" "1:3" in
  Alcotest.check values_testable "default step 1"
    [ E.Spec.Int 1; E.Spec.Int 2; E.Spec.Int 3 ]
    ax.E.Sweep.values

let test_axis_float_range () =
  let ax = E.Sweep.axis_of_assign scen_a_spec "c1=0.5:1.5:0.5" in
  Alcotest.check values_testable "float range"
    [ E.Spec.Float 0.5; E.Spec.Float 1.0; E.Spec.Float 1.5 ]
    ax.E.Sweep.values;
  (* stepped in decimal integers: every point is its decimal literal,
     and the last one is [hi] itself *)
  let floats l = List.map (fun f -> E.Spec.Float f) l in
  let ax = E.Sweep.axis_of_assign scen_a_spec "c1=0.1:0.3:0.1" in
  Alcotest.check values_testable "0.1:0.3:0.1" (floats [ 0.1; 0.2; 0.3 ])
    ax.E.Sweep.values;
  let ax = E.Sweep.axis_of_assign scen_a_spec "c1=0:1:0.1" in
  Alcotest.check values_testable "0:1:0.1"
    (floats [ 0.; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1. ])
    ax.E.Sweep.values;
  let ax = E.Sweep.axis_of_assign scen_a_spec "c1=1e-3:3E-3:1e-3" in
  Alcotest.check values_testable "exponents read exactly"
    (floats [ 0.001; 0.002; 0.003 ])
    ax.E.Sweep.values

let test_axis_string_list () =
  (* ':' inside a string value must not be mistaken for a range *)
  let ax = E.Sweep.axis_of_assign scen_a_spec "algo=lia,olia,coupled:0.5" in
  Alcotest.check values_testable "list with colon value"
    [ E.Spec.String "lia"; E.Spec.String "olia"; E.Spec.String "coupled:0.5" ]
    ax.E.Sweep.values

let test_axis_errors () =
  Alcotest.check_raises "unknown key"
    (Invalid_argument
       "scenario-a has no parameter \"bogus\" (valid: n1, n2, c1, c2, algo, \
        duration, warmup, seed)") (fun () ->
      ignore (E.Sweep.axis scen_a_spec ~key:"bogus" "1:2"));
  (* a float bound that cannot be stepped exactly is refused, never
     rounded *)
  Alcotest.check_raises "too many digits"
    (Invalid_argument
       "Sweep.axis c1: bounds and step need too many digits to step exactly")
    (fun () -> ignore (E.Sweep.axis scen_a_spec ~key:"c1" "1e-30:1:1e-30"));
  Alcotest.check_raises "not a decimal"
    (Invalid_argument "Sweep.axis c1: bad decimal \"0x1p-3\"")
    (fun () -> ignore (E.Sweep.axis scen_a_spec ~key:"c1" "0x1p-3:1:0.5"));
  Alcotest.check_raises "too many points"
    (Invalid_argument "Sweep.axis c1: a range takes at most 1000000 points")
    (fun () -> ignore (E.Sweep.axis scen_a_spec ~key:"c1" "0:1:1e-9"));
  (try
     ignore (E.Sweep.axis scen_a_spec ~key:"n2" "5:1:1");
     Alcotest.fail "empty range should raise"
   with Invalid_argument _ -> ());
  try
    ignore (E.Sweep.axis scen_a_spec ~key:"n2" "x,y");
    Alcotest.fail "bad int literal should raise"
  with Invalid_argument _ -> ()

let test_points_cross_product () =
  let axes =
    [
      E.Sweep.axis_of_assign scen_a_spec "n2=10:20:10";
      E.Sweep.axis_of_assign scen_a_spec "algo=lia,olia";
      E.Sweep.seed_axis 3;
    ]
  in
  let pts =
    E.Sweep.points scen_a_spec ~fixed:[ ("duration", E.Spec.Float 5.) ] axes
  in
  Alcotest.(check int) "2*2*3 points" 12 (List.length pts);
  (* row-major: the last axis (seed) varies fastest *)
  let first = List.hd pts in
  let get key b = E.Spec.get scen_a_spec b key in
  Alcotest.check values_testable "first n2, algo"
    [ E.Spec.Int 10; String "lia" ]
    [ get "n2" first; get "algo" first ];
  Alcotest.check values_testable
    "seed varies fastest" [ E.Spec.Int 1; Int 2; Int 3 ]
    (List.map (get "seed") (List.filteri (fun i _ -> i < 3) pts));
  List.iter
    (fun b ->
      Alcotest.check values_testable "fixed duration applies"
        [ E.Spec.Float 5. ] [ get "duration" b ])
    pts

let tiny_bindings : (string * E.Spec.bindings) list =
  [
    ( "scenario-a",
      [
        ("n1", E.Spec.Int 4); ("n2", E.Spec.Int 4);
        ("duration", E.Spec.Float 6.); ("warmup", E.Spec.Float 2.);
      ] );
    ( "scenario-b",
      [
        ("n", E.Spec.Int 4); ("duration", E.Spec.Float 6.);
        ("warmup", E.Spec.Float 2.);
      ] );
    ( "scenario-c",
      [
        ("n1", E.Spec.Int 4); ("n2", E.Spec.Int 4);
        ("duration", E.Spec.Float 6.); ("warmup", E.Spec.Float 2.);
      ] );
    ( "two-bottleneck",
      [
        ("n_tcp1", E.Spec.Int 2); ("n_tcp2", E.Spec.Int 2);
        ("duration", E.Spec.Float 6.);
      ] );
    ( "responsiveness",
      [
        ("shock_at", E.Spec.Float 2.); ("relief_at", E.Spec.Float 4.);
        ("duration", E.Spec.Float 6.);
      ] );
    ( "wireless",
      [ ("duration", E.Spec.Float 6.); ("warmup", E.Spec.Float 2.) ] );
    ( "fattree",
      [
        ("k", E.Spec.Int 4); ("subflows", E.Spec.Int 2);
        ("duration", E.Spec.Float 2.); ("warmup", E.Spec.Float 0.5);
      ] );
    ( "fattree-dynamic",
      [
        ("k", E.Spec.Int 4); ("subflows", E.Spec.Int 2);
        ("duration", E.Spec.Float 2.5); ("warmup", E.Spec.Float 0.5);
      ] );
    ( "fattree-sharded",
      [
        ("k", E.Spec.Int 4); ("shards", E.Spec.Int 1);
        ("flows_per_host", E.Spec.Int 1);
        ("duration", E.Spec.Float 1.5); ("warmup", E.Spec.Float 0.5);
      ] );
  ]

(* the responsiveness scenario legitimately reports nan for "never
   reacted", which short shock windows can produce *)
let nan_ok name metric =
  name = "responsiveness"
  && (metric = "shock_response_s" || metric = "relief_response_s")

let test_registry_round_trip () =
  Alcotest.(check (list string))
    "tiny bindings cover the registry" S.Registry.names
    (List.map fst tiny_bindings);
  List.iter
    (fun (name, bindings) ->
      let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
      Alcotest.(check string) "spec name matches" name Sc.spec.E.Spec.name;
      (* every default lies in its parameter's domain *)
      E.Spec.validate Sc.spec
        (List.map (fun p -> (p.E.Spec.key, p.E.Spec.default)) Sc.spec.params);
      E.Spec.validate Sc.spec bindings;
      let outcome = Sc.run bindings in
      Alcotest.(check bool)
        (name ^ " has metrics") true
        (outcome.E.Outcome.metrics <> []);
      List.iter
        (fun (metric, v) ->
          if not (nan_ok name metric) then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s finite (%g)" name metric v)
              true (Float.is_finite v))
        outcome.E.Outcome.metrics)
    tiny_bindings

let test_registry_unknown () =
  try
    ignore (S.Registry.find "no-such-scenario");
    Alcotest.fail "unknown scenario should raise"
  with Invalid_argument _ -> ()

let sweep_points () =
  let axes =
    [ E.Sweep.axis_of_assign scen_a_spec "algo=lia,olia"; E.Sweep.seed_axis 4 ]
  in
  E.Sweep.points scen_a_spec
    ~fixed:
      [
        ("n1", E.Spec.Int 3); ("n2", E.Spec.Int 3);
        ("duration", E.Spec.Float 4.); ("warmup", E.Spec.Float 1.);
      ]
    axes

let test_parallel_equals_sequential () =
  let sc = S.Registry.find "scenario-a" in
  let pts = sweep_points () in
  Alcotest.(check int) "8 points" 8 (List.length pts);
  let seq = E.Sweep.run_seq sc pts in
  let par = E.Sweep.run ~domains:2 sc pts in
  Alcotest.(check bool) "structurally identical" true (par = seq);
  (* ... and byte-identical once serialized *)
  Alcotest.(check string)
    "byte-identical JSON"
    (Json.to_string (E.Sweep.to_json ~spec:scen_a_spec seq))
    (Json.to_string (E.Sweep.to_json ~spec:scen_a_spec par))

let test_aggregate () =
  let sc = S.Registry.find "scenario-a" in
  let results = E.Sweep.run ~domains:2 sc (sweep_points ()) in
  let agg = E.Sweep.aggregate results in
  Alcotest.(check string) "grouped over seed" "seed" agg.E.Sweep.over;
  Alcotest.(check int) "two groups" 2 (List.length agg.E.Sweep.rows);
  List.iter
    (fun (a : E.Sweep.agg) ->
      Alcotest.(check int) "4 replications" 4 a.E.Sweep.n;
      Alcotest.(check bool)
        "seed dropped from group" false
        (List.mem_assoc "seed" a.E.Sweep.group);
      List.iter
        (fun (metric, (mean, sd)) ->
          Alcotest.(check bool)
            (metric ^ " mean finite") true (Float.is_finite mean);
          Alcotest.(check bool) (metric ^ " stddev >= 0") true (sd >= 0.))
        a.E.Sweep.stats)
    agg.E.Sweep.rows;
  (* a replicated point's mean must equal the mean of its replications *)
  let by_algo algo =
    List.filter
      (fun p ->
        E.Spec.get scen_a_spec p.E.Sweep.bindings "algo" = E.Spec.String algo)
      results
  in
  let lia = by_algo "lia" in
  let manual =
    List.fold_left
      (fun acc p -> acc +. E.Outcome.metric p.E.Sweep.outcome "norm_type2")
      0. lia
    /. float_of_int (List.length lia)
  in
  let row =
    List.find
      (fun (a : E.Sweep.agg) ->
        E.Spec.get scen_a_spec a.E.Sweep.group "algo" = E.Spec.String "lia")
      agg.E.Sweep.rows
  in
  let mean, _ = List.assoc "norm_type2" row.E.Sweep.stats in
  Alcotest.(check (float 1e-12)) "aggregate mean" manual mean

let test_emitters () =
  let sc = S.Registry.find "scenario-a" in
  let results = E.Sweep.run ~domains:2 sc (sweep_points ()) in
  let agg = E.Sweep.aggregate results in
  let json_path = Filename.temp_file "sweep" ".json" in
  let csv_path = Filename.temp_file "sweep" ".csv" in
  let agg_path = Filename.temp_file "sweep_agg" ".csv" in
  E.Sweep.write_json ~path:json_path ~spec:scen_a_spec ~aggregated:agg results;
  E.Sweep.write_csv ~path:csv_path ~spec:scen_a_spec results;
  E.Sweep.write_agg_csv ~path:agg_path ~spec:scen_a_spec agg;
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let csv = read_lines csv_path in
  Alcotest.(check int) "csv: header + 8 rows" 9 (List.length csv);
  Alcotest.(check string)
    "csv header is params then metrics"
    "n1,n2,c1,c2,algo,duration,warmup,seed,norm_type1,norm_type2,p1,p2,obs_events,obs_max_heap_depth,obs_drops_overflow,obs_drops_red,obs_drops_random,obs_subflow_goodput_bps_type1_sf0,obs_subflow_goodput_bps_type1_sf1,obs_subflow_goodput_bps_type2_sf0"
    (List.hd csv);
  let agg_csv = read_lines agg_path in
  Alcotest.(check int) "agg csv: header + 2 rows" 3 (List.length agg_csv);
  (match read_lines json_path with
   | [ line ] ->
     let contains needle =
       let nl = String.length needle and ll = String.length line in
       let rec go i =
         i + nl <= ll && (String.sub line i nl = needle || go (i + 1))
       in
       go 0
     in
     Alcotest.(check bool)
       "json mentions every section" true
       (List.for_all contains
          [ "\"scenario\":\"scenario-a\""; "\"points\""; "\"aggregate\"";
            "\"over\":\"seed\"" ])
   | lines ->
     Alcotest.fail
       (Printf.sprintf "expected single-line JSON, got %d lines"
          (List.length lines)));
  List.iter Sys.remove [ json_path; csv_path; agg_path ]

let test_json_escaping () =
  Alcotest.(check string)
    "string escaping" "{\"a\\\"b\":[1,true,null,\"x\\ny\"]}"
    (Json.to_string
       (Json.Obj
          [
            ( "a\"b",
              Json.List
                [ Json.Int 1; Json.Bool true; Json.Null; Json.String "x\ny" ]
            );
          ]));
  Alcotest.(check string)
    "non-finite floats become null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]))

(* --- the declared domains, fuzzed ---------------------------------------- *)

(* Test ranges, each inside its parameter's declared domain and bounded
   so that a run takes milliseconds: at most 3 users per class, k <= 4,
   rates <= 10 Mb/s, durations <= 3 s, mean_interval >= 0.05 s. *)
let in_range key =
  let open QCheck.Gen in
  let f lo hi = map (fun x -> E.Spec.Float x) (float_range lo hi) in
  let i lo hi = map (fun x -> E.Spec.Int x) (int_range lo hi) in
  match key with
  | "n" | "n1" | "n2" -> i 1 3
  | "n_tcp1" | "n_tcp2" | "n_shock" -> i 0 3
  | "c1" | "c2" -> f 0.5 2.
  | "cx" | "ct" | "c" | "wifi" | "cell" | "rate" -> f 1. 10.
  | "delay1" | "delay2" | "wifi_delay" | "cell_delay" -> f 0. 50.
  | "delay" -> f 0.2 2.
  | "duration" -> f 0.5 3.
  | "warmup" -> f 0. 2.
  | "shock_at" -> f 1.8 2.3
  | "relief_at" -> f 2. 2.6
  | "sample_period" -> f 0.05 1.
  | "background" -> f 0. 2.
  | "wifi_loss" -> f 0. 0.5
  | "oversubscription" -> f 1. 4.
  | "mean_interval" -> f 0.05 0.5
  | "subflows" -> i 1 4
  | "flows_per_host" -> i 1 2
  | "k" -> map (fun k -> E.Spec.Int k) (oneofl [ 2; 4 ])
  | "shards" -> i 1 3
  | "algo" ->
    let name a = if a = "coupled:<eps>" then "coupled:0.5" else a in
    map (fun a -> E.Spec.String (name a)) (oneofl Mptcp_repro.Cc.Registry.names)
  | "red_multipath" | "path_manager" -> map (fun b -> E.Spec.Bool b) bool
  | "seed" -> i 0 1000
  | key -> failwith ("no test range for " ^ key)

(* The closed lower edge of a declared domain, drawn now and then so that
   a domain wider than its scenario can run is caught. *)
let edge domain =
  match String.split_on_char ' ' domain with
  | [ "int"; ">="; n ] | [ "even"; "int"; ">="; n ] ->
    Some (E.Spec.Int (int_of_string n))
  | [ "finite"; ">="; x ] -> Some (E.Spec.Float (float_of_string x))
  | [ "[0,"; "1)" ] -> Some (E.Spec.Float 0.)
  | _ -> None

(* Values outside each declared domain. *)
let outside domain =
  let open E.Spec in
  match domain with
  | "int >= 0" -> [ Int (-1) ]
  | "int >= 1" -> [ Int 0; Int (-2) ]
  | "even int >= 2" -> [ Int 0; Int 3 ]
  | "finite > 0" -> [ Float 0.; Float (-1.); Float nan; Float infinity ]
  | "finite >= 0" -> [ Float (-1.); Float nan; Float infinity ]
  | "finite >= 1" -> [ Float 0.5; Float nan ]
  | "[0, 1)" -> [ Float 1.; Float (-0.1); Float nan ]
  | "bool" -> []
  | _ -> [ String "foo"; String "coupled:3" ]

(* One drawn binding per parameter, flagged when it lies outside the
   parameter's domain: every binding inside its domain (in its test
   range, or one time in four on the domain's closed edge), or, in one
   draw of three, one of them outside its domain. *)
let draw_bindings name =
  let open QCheck.Gen in
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
  let params = Sc.spec.E.Spec.params in
  let inside_one p =
    let v =
      match edge p.E.Spec.domain with
      | None -> in_range p.key
      | Some e -> frequency [ (3, in_range p.key); (1, return e) ]
    in
    map (fun v -> (p.key, v, false)) v
  in
  let inside = flatten_l (List.map inside_one params) in
  let one_outside =
    oneofl (List.filter (fun p -> outside p.E.Spec.domain <> []) params)
    >>= fun p ->
    oneofl (outside p.domain) >>= fun v ->
    map
      (List.map (fun ((k, _, _) as b) -> if k = p.key then (k, v, true) else b))
      inside
  in
  map (fun b -> (name, b)) (frequency [ (2, inside); (1, one_outside) ])

(* Metrics that short runs leave legitimately undefined. *)
let undefined = function
  | "responsiveness" ->
    (* never crossed; no packet delivered after the relief *)
    [ "shock_response_s"; "relief_response_s"; "post_relief_share" ]
  | "fattree-dynamic" ->
    (* fewer than two short flows started after the warm-up finished *)
    [ "mean_completion_ms"; "stdev_completion_ms" ]
  | _ -> []

module Profile = Mptcp_repro.Obs.Profile

(* A run either is rejected before anything is built (a message naming
   the scenario, not one event dispatched) or finishes with every metric
   finite; a value outside its domain is always rejected. *)
let rejected_or_finite (name, drawn) =
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
  let bindings = List.map (fun (k, v, _) -> (k, v)) drawn in
  Profile.reset ();
  Profile.set_enabled true;
  let result =
    match Sc.run bindings with
    | o -> Ok o
    | exception Invalid_argument msg -> Error msg
  in
  Profile.set_enabled false;
  let dispatched =
    List.fold_left (fun n e -> n + e.Profile.count) 0 (Profile.report ())
  in
  Profile.reset ();
  match result with
  | Error msg ->
    (String.starts_with ~prefix:(name ^ ": ") msg && dispatched = 0)
    || QCheck.Test.fail_reportf "%s rejected mid-build: %s" name msg
  | Ok o ->
    (not (List.exists (fun (_, _, out) -> out) drawn)
    && List.for_all
         (fun (m, v) -> Float.is_finite v || List.mem m (undefined name))
         o.E.Outcome.metrics)
    || QCheck.Test.fail_reportf "%s accepted: %s" name
         (String.concat " "
            (List.map
               (fun (m, v) -> Printf.sprintf "%s=%g" m v)
               o.E.Outcome.metrics))

let prop_domains_reject_or_run =
  let print (name, drawn) =
    String.concat " "
      (name
      :: List.map
           (fun (k, v, _) -> k ^ "=" ^ E.Spec.value_to_string v)
           drawn)
  in
  QCheck.Test.make ~name:"registry: a draw is rejected or runs finite"
    ~count:200
    (QCheck.make ~print
       QCheck.Gen.(oneofl S.Registry.names >>= draw_bindings))
    rejected_or_finite

(* --- a key bound twice on the command line ------------------------------- *)

(* Each form would shadow one of the key's values without a word; the CLI
   refuses it with exit 124 and a message naming the key. *)
let cli_refuses args expect () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "olia_sim.exe" ]
  in
  let err = Filename.temp_file "olia_sim" ".err" in
  let code =
    Sys.command
      (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err)
  in
  let msg = In_channel.with_open_text err In_channel.input_line in
  Sys.remove err;
  Alcotest.(check int) "exit code" 124 code;
  Alcotest.(check (option string)) "message" (Some ("olia_sim: " ^ expect)) msg

let cli_cases =
  [
    ( "cli: -p binds a key twice",
      [ "run"; "scenario-b"; "-p"; "n=3"; "-p"; "n=5" ],
      "run: n is bound twice (-p, then -p)" );
    ( "cli: -x binds a key twice",
      [ "sweep"; "scenario-a"; "-x"; "n2=10:20:10"; "-x"; "n2=30" ],
      "sweep: n2 is bound twice (-x, then -x)" );
    ( "cli: -p and -x bind one key",
      [ "sweep"; "scenario-a"; "-p"; "n2=5"; "-x"; "n2=10,20" ],
      "sweep: n2 is bound twice (-p, then -x)" );
    ( "cli: -x seed and --seeds bind one key",
      [ "sweep"; "scenario-a"; "-x"; "seed=1:2"; "--seeds"; "3" ],
      "sweep: seed is bound twice (-x, then --seeds)" );
    ( "cli: shard-invariance refuses -p shards",
      [
        "shard-invariance"; "fattree-sharded"; "-p"; "k=4"; "-p"; "shards=2";
        "--shards"; "4";
      ],
      "shard-invariance: shards is bound twice (-p, then --shards)" );
  ]

let suite =
  [
    ("axis: int range", `Quick, test_axis_int_range);
    ("axis: float range", `Quick, test_axis_float_range);
    ("axis: string list", `Quick, test_axis_string_list);
    ("axis: errors", `Quick, test_axis_errors);
    ("points: cross product", `Quick, test_points_cross_product);
    ("registry: round trip", `Slow, test_registry_round_trip);
    ("registry: unknown name", `Quick, test_registry_unknown);
    ("sweep: parallel = sequential", `Slow, test_parallel_equals_sequential);
    ("sweep: aggregation", `Slow, test_aggregate);
    ("sweep: emitters", `Slow, test_emitters);
    ("json: escaping", `Quick, test_json_escaping);
    QCheck_alcotest.to_alcotest
      (* lint: allow R1 -- a fixed QCheck seed, so the draws are the same on every run *)
      ~rand:(Random.State.make [| 27 |])
      prop_domains_reject_or_run;
  ]
  @ List.map
      (fun (name, args, expect) -> (name, `Quick, cli_refuses args expect))
      cli_cases
