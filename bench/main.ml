(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus ablations), times the hot paths, and writes and
   gates the perf snapshot (BENCH_*.json).

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig9 table2     # a subset
     dune exec bench/main.exe -- --quick         # shorter simulations
     dune exec bench/main.exe -- --list          # available targets

   Simulated links are scaled versions of the testbed (see DESIGN.md);
   shapes, not absolute numbers, are the reproduction target. *)

(* lint: allow-file R1 -- wall-clock progress reporting of the harness; simulation results never read it *)

module S = Mptcp_repro.Scenarios
module E = Mptcp_repro.Exp
module F = Mptcp_repro.Fluid
module Stats = Mptcp_repro.Stats
module Table = Stats.Table
module Summary = Stats.Summary

let quick = ref false
let n_seeds () = if !quick then 1 else 3
let duration () = if !quick then 40. else 90.
let warmup () = if !quick then 10. else 30.

(* Replicated measurements go through the experiment registry: one
   scenario point, [n_seeds] deterministic seeds fanned out on the sweep
   engine's domain pool, one summary per requested metric. The cache
   lets figures share points (fig1b/fig9 reuse fig1c/fig10's runs). *)

let measure_cache : (string * E.Spec.bindings, Summary.t list) Hashtbl.t =
  Hashtbl.create 64

let measure scenario overrides metrics =
  let overrides =
    overrides
    @ [
        ("duration", E.Spec.Float (duration ()));
        ("warmup", E.Spec.Float (warmup ()));
      ]
  in
  let key = (scenario, overrides) in
  match Hashtbl.find_opt measure_cache key with
  | Some s -> s
  | None ->
    let (module Sc : S.Registry.SCENARIO) = S.Registry.find scenario in
    let pts =
      E.Sweep.points Sc.spec ~fixed:overrides
        [ E.Sweep.seed_axis (n_seeds ()) ]
    in
    let results = E.Sweep.run (module Sc) pts in
    let summaries =
      List.map
        (fun m ->
          Summary.of_list
            (List.map
               (fun p -> E.Outcome.metric p.E.Sweep.outcome m)
               results))
        metrics
    in
    Hashtbl.replace measure_cache key summaries;
    summaries

let pm s = Printf.sprintf "%.3f ± %.3f" (Summary.mean s) (Summary.ci95_halfwidth s)
let pm2 s = Printf.sprintf "%.2f ± %.2f" (Summary.mean s) (Summary.ci95_halfwidth s)
let pm4 s = Printf.sprintf "%.4f ± %.4f" (Summary.mean s) (Summary.ci95_halfwidth s)

let section title = Printf.printf "\n=== %s ===\n%!" title

(* ----- Scenario A (Figs. 1b, 1c, 9, 10) ------------------------------ *)

let scen_a_params ~n1 ~c1 =
  {
    F.Scenario_a.n1;
    n2 = 10;
    c1 = F.Units.pps_of_mbps c1;
    c2 = F.Units.pps_of_mbps 1.;
    rtt = 0.15;
  }

let scen_a_measure ~algo ~n1 ~c1 =
  match
    measure "scenario-a"
      [
        ("n1", E.Spec.Int n1);
        ("c1", E.Spec.Float c1);
        ("algo", E.Spec.String algo);
      ]
      [ "norm_type1"; "norm_type2"; "p1"; "p2" ]
  with
  | [ t1; t2; p1; p2 ] -> (t1, t2, p1, p2)
  | _ -> assert false

let scenario_a_rows ~algo ~loss =
  let t =
    Table.create
      ~title:
        (if loss then
           Printf.sprintf "loss probability p2 at the shared AP (%s)" algo
         else
           Printf.sprintf "normalized throughput, %s vs fluid vs optimum" algo)
      ~columns:
        (if loss then [ "N1/N2"; "C1/C2"; "p2 measured"; "p2 fluid(LIA)" ]
         else
           [
             "N1/N2"; "C1/C2"; "type1 meas"; "type2 meas"; "type2 fluid(LIA)";
             "type2 optimum";
           ])
  in
  List.iter
    (fun c1 ->
      List.iter
        (fun n1 ->
          let fluid = F.Scenario_a.lia (scen_a_params ~n1 ~c1) in
          let opt =
            F.Scenario_a.optimum_with_probing (scen_a_params ~n1 ~c1)
          in
          let t1, t2, _, p2 = scen_a_measure ~algo ~n1 ~c1 in
          if loss then
            Table.add_row t
              [
                Printf.sprintf "%.1f" (float_of_int n1 /. 10.);
                Printf.sprintf "%.2f" c1;
                pm4 p2;
                Printf.sprintf "%.4f" fluid.F.Scenario_a.p2;
              ]
          else
            Table.add_row t
              [
                Printf.sprintf "%.1f" (float_of_int n1 /. 10.);
                Printf.sprintf "%.2f" c1;
                pm t1;
                pm t2;
                Printf.sprintf "%.3f" fluid.F.Scenario_a.norm_type2;
                Printf.sprintf "%.3f" opt.F.Scenario_a.norm2;
              ])
        [ 10; 20; 30 ])
    [ 0.75; 1.0; 1.5 ];
  Table.print t

let fig1b () =
  section "Fig 1(b) - Scenario A with LIA: normalized throughputs";
  scenario_a_rows ~algo:"lia" ~loss:false

let fig1c () =
  section "Fig 1(c) - Scenario A with LIA: loss probability p2";
  scenario_a_rows ~algo:"lia" ~loss:true

let fig9 () =
  section "Fig 9 - Scenario A: OLIA normalized throughputs (vs fig1b)";
  scenario_a_rows ~algo:"olia" ~loss:false

let fig10 () =
  section "Fig 10 - Scenario A: loss probability p2 with OLIA (vs fig1c)";
  scenario_a_rows ~algo:"olia" ~loss:true

(* ----- Scenario B (Fig. 4, Tables I and II, Fig. 17) ------------------ *)

let scen_b_params ~rtt ~ratio =
  {
    F.Scenario_b.n = 15;
    cx = F.Units.pps_of_mbps (36. *. ratio);
    ct = F.Units.pps_of_mbps 36.;
    rtt;
  }

let ratios = [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ]

let fig4a () =
  section "Fig 4(a) - Scenario B, LIA analysis: normalized throughput vs CX/CT";
  let t =
    Table.create ~title:"15+15 users, CT = 36 Mb/s, rtt = 150 ms"
      ~columns:[ "CX/CT"; "blue sp"; "red sp"; "blue mp"; "red mp" ]
  in
  List.iter
    (fun ratio ->
      let params = scen_b_params ~rtt:0.15 ~ratio in
      let sp = F.Scenario_b.lia_red_singlepath params in
      let mp = F.Scenario_b.lia_red_multipath params in
      let bsp, rsp = F.Scenario_b.normalized params sp in
      let bmp, rmp =
        F.Scenario_b.normalized params
          {
            F.Scenario_b.blue_total = mp.F.Scenario_b.blue_total;
            red_total = mp.F.Scenario_b.red_total;
            aggregate = mp.F.Scenario_b.aggregate;
          }
      in
      Table.add_row t
        [
          Printf.sprintf "%.2f" ratio;
          Printf.sprintf "%.3f" bsp;
          Printf.sprintf "%.3f" rsp;
          Printf.sprintf "%.3f" bmp;
          Printf.sprintf "%.3f" rmp;
        ])
    ratios;
  Table.print t;
  print_endline "(mp < sp everywhere: upgrading Red users hurts everyone, P1)"

let fig4b_body ~rtt title =
  let t =
    Table.create ~title
      ~columns:[ "CX/CT"; "blue sp"; "red sp"; "blue mp"; "red mp" ]
  in
  List.iter
    (fun ratio ->
      let params = scen_b_params ~rtt ~ratio in
      let sp = F.Scenario_b.optimum_red_singlepath params in
      let mp = F.Scenario_b.optimum_red_multipath params in
      let bsp, rsp = F.Scenario_b.normalized params sp in
      let bmp, rmp = F.Scenario_b.normalized params mp in
      Table.add_row t
        [
          Printf.sprintf "%.2f" ratio;
          Printf.sprintf "%.3f" bsp;
          Printf.sprintf "%.3f" rsp;
          Printf.sprintf "%.3f" bmp;
          Printf.sprintf "%.3f" rmp;
        ])
    ratios;
  Table.print t

let fig4b () =
  section "Fig 4(b) - Scenario B, optimum with probing cost";
  fig4b_body ~rtt:0.15 "15+15 users, CT = 36 Mb/s, rtt = 150 ms";
  print_endline "(the upgrade now costs only the probing overhead, ~3%)"

let fig17 () =
  section "Fig 17 - probing-cost optimum at RTT = 100 ms and 25 ms";
  fig4b_body ~rtt:0.1 "RTT = 100 ms";
  fig4b_body ~rtt:0.025 "RTT = 25 ms";
  print_endline "(smaller RTT = larger probing overhead: 1 MSS per RTT)"

let table_b ~algo ~label =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "%s - Scenario B measurements (%s), CX=27 CT=36 Mb/s, 15+15 users"
           label algo)
      ~columns:[ "Red users"; "blue rate/user"; "red rate/user"; "aggregate" ]
  in
  let row label red_multipath =
    match
      measure "scenario-b"
        [
          ("red_multipath", E.Spec.Bool red_multipath);
          ("algo", E.Spec.String algo);
        ]
        [ "blue_rate"; "red_rate"; "aggregate" ]
    with
    | [ blue; red; aggregate ] ->
      Table.add_row t [ label; pm2 blue; pm2 red; pm2 aggregate ];
      Summary.mean aggregate
    | _ -> assert false
  in
  let sp = row "single-path" false in
  let mp = row "multipath" true in
  Table.print t;
  Printf.printf "aggregate drop after the Red upgrade: %.1f%% (paper: %s)\n"
    (100. *. (1. -. (mp /. sp)))
    (if algo = "lia" then "13%" else "3.5%")

let table1 () =
  section "Table I - Scenario B with LIA";
  table_b ~algo:"lia" ~label:"Table I"

let table2 () =
  section "Table II - Scenario B with OLIA";
  table_b ~algo:"olia" ~label:"Table II"

(* ----- Scenario C (Figs. 5, 11, 12) ----------------------------------- *)

let scen_c_params ~n1 ~c1 =
  {
    F.Scenario_c.n1;
    n2 = 10;
    c1 = F.Units.pps_of_mbps c1;
    c2 = F.Units.pps_of_mbps 1.;
    rtt = 0.15;
  }

let fig5b () =
  section "Fig 5(b) - Scenario C analysis, N1 = N2: LIA vs optimum";
  let t =
    Table.create ~title:"normalized throughputs vs C1/C2"
      ~columns:[ "C1/C2"; "LIA multi"; "LIA single"; "opt multi"; "opt single" ]
  in
  List.iter
    (fun ratio ->
      let params = scen_c_params ~n1:10 ~c1:ratio in
      let lia = F.Scenario_c.lia params in
      let opt = F.Scenario_c.optimum_with_probing params in
      Table.add_row t
        [
          Printf.sprintf "%.2f" ratio;
          Printf.sprintf "%.3f" lia.F.Scenario_c.norm_multipath;
          Printf.sprintf "%.3f" lia.F.Scenario_c.norm_single;
          Printf.sprintf "%.3f" opt.F.Scenario_c.norm_multipath;
          Printf.sprintf "%.3f" opt.F.Scenario_c.norm_single;
        ])
    [ 0.25; 0.33; 0.5; 0.75; 1.0; 1.25; 1.5 ];
  Table.print t;
  print_endline "(LIA grabs AP2 beyond C1/C2 = 1/3; the optimum does not, P2)"

let scen_c_measure ~algo ~n1 ~c1 =
  match
    measure "scenario-c"
      [
        ("n1", E.Spec.Int n1);
        ("c1", E.Spec.Float c1);
        ("algo", E.Spec.String algo);
      ]
      [ "norm_multipath"; "norm_single"; "p2" ]
  with
  | [ multi; single; p2 ] -> (multi, single, p2)
  | _ -> assert false

let scenario_c_rows ~algo ~loss =
  let t =
    Table.create
      ~title:
        (if loss then Printf.sprintf "loss probability p2 at AP2 (%s)" algo
         else
           Printf.sprintf "normalized throughput (%s) vs fluid vs optimum" algo)
      ~columns:
        (if loss then [ "N1/N2"; "C1/C2"; "p2 measured"; "p2 fluid(LIA)" ]
         else
           [
             "N1/N2"; "C1/C2"; "multi meas"; "single meas";
             "single fluid(LIA)"; "single optimum";
           ])
  in
  List.iter
    (fun c1 ->
      List.iter
        (fun n1 ->
          let fluid = F.Scenario_c.lia (scen_c_params ~n1 ~c1) in
          let opt =
            F.Scenario_c.optimum_with_probing (scen_c_params ~n1 ~c1)
          in
          let multi, single, p2 = scen_c_measure ~algo ~n1 ~c1 in
          if loss then
            Table.add_row t
              [
                Printf.sprintf "%.1f" (float_of_int n1 /. 10.);
                Printf.sprintf "%.1f" c1;
                pm4 p2;
                Printf.sprintf "%.4f" fluid.F.Scenario_c.p2;
              ]
          else
            Table.add_row t
              [
                Printf.sprintf "%.1f" (float_of_int n1 /. 10.);
                Printf.sprintf "%.1f" c1;
                pm multi;
                pm single;
                Printf.sprintf "%.3f" fluid.F.Scenario_c.norm_single;
                Printf.sprintf "%.3f" opt.F.Scenario_c.norm_single;
              ])
        [ 5; 10; 20; 30 ])
    [ 1.; 2. ];
  Table.print t

let fig5c () =
  section "Fig 5(c) - Scenario C with LIA: normalized throughputs";
  scenario_c_rows ~algo:"lia" ~loss:false

let fig5d () =
  section "Fig 5(d) - Scenario C with LIA: loss probability p2";
  scenario_c_rows ~algo:"lia" ~loss:true

let fig11 () =
  section "Fig 11 - Scenario C: OLIA normalized throughputs (vs fig5c)";
  scenario_c_rows ~algo:"olia" ~loss:false

let fig12 () =
  section "Fig 12 - Scenario C: loss probability p2 with OLIA (vs fig5d)";
  scenario_c_rows ~algo:"olia" ~loss:true

(* ----- window traces (Figs. 7 and 8) ---------------------------------- *)

let trace_summary label cfg =
  let o = S.Two_bottleneck.run cfg in
  let m = E.Outcome.metric o in
  let d = cfg.S.Two_bottleneck.duration in
  let mean w =
    Stats.Timeseries.mean_over
      (Stats.Timeseries.of_arrays ~times:(E.Outcome.array o "t")
         (E.Outcome.array o w))
      ~from:(d /. 6.) ~until:d
  in
  Printf.printf
    "%s (%-4s): mean w1 = %5.1f, mean w2 = %5.1f pkts; goodput %.2f / %.2f \
     Mb/s; window flips = %.0f\n"
    label cfg.S.Two_bottleneck.algo (mean "w1") (mean "w2")
    (m "goodput1_mbps") (m "goodput2_mbps") (m "flip_count");
  o

let fig7 () =
  section "Fig 7 - symmetric two-bottleneck: both paths used, no flapping";
  let cfg = { S.Two_bottleneck.symmetric with duration = 120. } in
  let t = trace_summary "symmetric" cfg in
  let _ = trace_summary "symmetric" { cfg with algo = "lia" } in
  Printf.printf "alpha samples within [-1,1]: %b\n"
    (Array.for_all
       (fun a -> a >= -1. && a <= 1.)
       (E.Outcome.array t "alpha1"))

let fig8 () =
  section
    "Fig 8 - asymmetric (5 vs 10 TCP flows): OLIA avoids the congested path";
  let cfg = { S.Two_bottleneck.asymmetric with duration = 120. } in
  let olia = trace_summary "asymmetric" cfg in
  let lia = trace_summary "asymmetric" { cfg with algo = "lia" } in
  Printf.printf
    "congested-path goodput: OLIA %.2f vs LIA %.2f Mb/s (paper: OLIA lower)\n"
    (E.Outcome.metric olia "goodput2_mbps")
    (E.Outcome.metric lia "goodput2_mbps")

(* ----- FatTree (Fig. 13) ---------------------------------------------- *)

let fattree_cfg () =
  if !quick then
    { S.Fattree_static.default with k = 4; duration = 20.; warmup = 5. }
  else { S.Fattree_static.default with k = 8; duration = 12.; warmup = 4. }

let fig13a () =
  section "Fig 13(a) - FatTree aggregate throughput vs number of subflows";
  let cfg = fattree_cfg () in
  Printf.printf
    "FatTree k=%d (%d hosts), %g Mb/s links (scaled; see DESIGN.md)\n"
    cfg.S.Fattree_static.k
    (cfg.S.Fattree_static.k * cfg.S.Fattree_static.k * cfg.S.Fattree_static.k
     / 4)
    cfg.S.Fattree_static.rate_mbps;
  let t =
    Table.create ~title:"aggregate throughput, % of the permutation optimum"
      ~columns:[ "subflows"; "TCP"; "MPTCP LIA"; "MPTCP OLIA" ]
  in
  let pct cfg =
    Printf.sprintf "%.1f"
      (E.Outcome.metric (S.Fattree_static.run cfg) "aggregate_pct_optimal")
  in
  let tcp = pct { cfg with subflows = 1 } in
  let subflow_counts = if !quick then [ 2; 4; 8 ] else [ 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun n ->
      let lia = pct { cfg with subflows = n; algo = "lia" } in
      let olia = pct { cfg with subflows = n; algo = "olia" } in
      Table.add_row t
        [
          string_of_int n;
          (if n = List.hd subflow_counts then tcp else "-");
          lia;
          olia;
        ])
    subflow_counts;
  Table.print t

let fig13b () =
  section "Fig 13(b) - ranked per-flow throughput (8 subflows)";
  let cfg = fattree_cfg () in
  let ranked cfg = E.Outcome.array (S.Fattree_static.run cfg) "ranked_pct" in
  let tcp = ranked { cfg with subflows = 1 } in
  let lia = ranked { cfg with subflows = 8; algo = "lia" } in
  let olia = ranked { cfg with subflows = 8; algo = "olia" } in
  let t =
    Table.create ~title:"flow throughput (% of optimal) at selected ranks"
      ~columns:[ "rank percentile"; "TCP"; "MPTCP LIA"; "MPTCP OLIA" ]
  in
  let pick a q =
    a.(Stdlib.min
         (Array.length a - 1)
         (int_of_float (q *. float_of_int (Array.length a))))
  in
  List.iter
    (fun q ->
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (q *. 100.);
          Printf.sprintf "%.1f" (pick tcp q);
          Printf.sprintf "%.1f" (pick lia q);
          Printf.sprintf "%.1f" (pick olia q);
        ])
    [ 0.05; 0.25; 0.5; 0.75; 0.95 ];
  Table.print t;
  let jain a = Summary.jain_index (Array.to_list a) in
  Printf.printf
    "Jain fairness index: TCP %.3f, LIA %.3f, OLIA %.3f (paper: MPTCP \
     fairer than TCP)\n"
    (jain tcp) (jain lia) (jain olia);
  print_endline "(MPTCP lifts the whole distribution; TCP's tail starves)"

(* ----- dynamic short flows (Fig. 14, Table III) ------------------------ *)

let fig14_cache = ref None

let fig14_impl () =
  match !fig14_cache with
  | Some r ->
    Table.print (fst r);
    snd r
  | None ->
  let cfg =
    if !quick then
      { S.Fattree_dynamic.default with k = 4; duration = 15.; warmup = 4. }
    else { S.Fattree_dynamic.default with k = 8; duration = 15.; warmup = 4. }
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "4:1 oversubscribed FatTree k=%d: short-flow completion and core \
            usage"
           cfg.S.Fattree_dynamic.k)
      ~columns:
        [
          "long flows"; "short finish (mean±stdev ms)"; "core util %";
          "p50 / p90 ms";
        ]
  in
  let results =
    List.map
      (fun (label, algo, subflows) ->
        let r = S.Fattree_dynamic.run { cfg with algo; subflows } in
        let m = E.Outcome.metric r in
        let h = Stats.Histogram.create ~lo:0. ~hi:500. ~bins:100 in
        Array.iter (Stats.Histogram.add h)
          (E.Outcome.array r "completion_times_ms");
        Table.add_row t
          [
            label;
            Printf.sprintf "%.0f ± %.0f" (m "mean_completion_ms")
              (m "stdev_completion_ms");
            Printf.sprintf "%.1f" (m "core_utilization_pct");
            Printf.sprintf "%.0f / %.0f"
              (Stats.Histogram.quantile h 0.5)
              (Stats.Histogram.quantile h 0.9);
          ];
        (label, r))
      [
        ("MPTCP - LIA", "lia", 8);
        ("MPTCP - OLIA", "olia", 8);
        ("Regular TCP", "reno", 1);
      ]
  in
  Table.print t;
  fig14_cache := Some (t, results);
  results

let fig14 () =
  section "Fig 14 - short-flow completion-time PDF";
  let results = fig14_impl () in
  print_endline "\ncompletion-time PDF (density per ms):";
  Printf.printf "%10s" "ms";
  List.iter (fun (label, _) -> Printf.printf " %14s" label) results;
  print_newline ();
  let hists =
    List.map
      (fun (_, r) ->
        let h = Stats.Histogram.create ~lo:0. ~hi:300. ~bins:15 in
        Array.iter (Stats.Histogram.add h)
          (E.Outcome.array r "completion_times_ms");
        Stats.Histogram.pdf h)
      results
  in
  match hists with
  | first :: _ ->
    Array.iteri
      (fun i (center, _) ->
        Printf.printf "%10.0f" center;
        List.iter (fun pdf -> Printf.printf " %14.5f" (snd pdf.(i))) hists;
        print_newline ())
      first
  | [] -> ()

let table3 () =
  section "Table III - dynamic setting summary";
  ignore (fig14_impl ())

(* ----- ablations -------------------------------------------------------- *)

(* One Scenario-C row: the multipath and single-path norms and p2. *)
let scen_c_row t label cfg =
  let m = E.Outcome.metric (S.Scen_c.run cfg) in
  Table.add_row t
    [
      label;
      Printf.sprintf "%.3f" (m "norm_multipath");
      Printf.sprintf "%.3f" (m "norm_single");
      Printf.sprintf "%.4f" (m "p2");
    ]

let ablation_epsilon () =
  section "Ablation - the ε-coupled family on Scenario C (design tradeoff)";
  let t =
    Table.create
      ~title:"C1 = C2 = 1 Mb/s, N1 = N2 = 10: aggressiveness vs epsilon"
      ~columns:[ "algorithm"; "multipath norm"; "single norm"; "p2" ]
  in
  let run algo =
    scen_c_row t algo
      { S.Scen_c.default with algo; duration = duration (); warmup = warmup () }
  in
  List.iter run
    [
      "coupled:0"; "coupled:0.5"; "coupled:1"; "coupled:1.5"; "coupled:2";
      "lia"; "olia"; "balia"; "wvegas"; "cubic"; "scalable";
    ];
  Table.print t;
  print_endline
    "(higher epsilon = more aggressive on the shared AP; OLIA stays near 1)"

let ablation_seeds () =
  section "Ablation - seed stability of the OLIA Scenario-C point";
  let t =
    Table.create ~title:"five independent seeds"
      ~columns:[ "seed"; "multipath norm"; "single norm"; "p2" ]
  in
  List.iter
    (fun seed ->
      scen_c_row t (string_of_int seed)
        {
          S.Scen_c.default with
          algo = "olia";
          duration = duration ();
          warmup = warmup ();
          seed;
        })
    [ 1; 2; 3; 4; 5 ];
  Table.print t

let ablation_future_work () =
  section "Ablation - §VII refinements on Scenario C (OLIA)";
  let t =
    Table.create
      ~title:"path management and background traffic (C1 = C2 = 1 Mb/s)"
      ~columns:[ "variant"; "multipath norm"; "single norm"; "p2" ]
  in
  let run = scen_c_row t in
  let base =
    {
      S.Scen_c.default with
      algo = "olia";
      duration = duration ();
      warmup = warmup ();
    }
  in
  run "olia" base;
  run "olia + path manager" { base with with_path_manager = true };
  run "olia + 2 Mb/s background on AP2" { base with background_mbps = 2. };
  run "lia + 2 Mb/s background on AP2"
    { base with algo = "lia"; background_mbps = 2. };
  Table.print t;
  print_endline
    "(discarding chronically bad paths trims the probing overhead; \
     background traffic shifts the operating point for both algorithms)"

let ablation_rtt () =
  section "Ablation - RTT heterogeneity on two equal bottlenecks (paper §IV)";
  let t =
    Table.create
      ~title:
        "path 2 has 4x the propagation delay; both links 10 Mb/s, 5 TCP each"
      ~columns:
        [ "algorithm"; "goodput path1"; "goodput path2"; "total Mb/s" ]
  in
  let run algo =
    let m =
      E.Outcome.metric
        (S.Two_bottleneck.run
           {
             S.Two_bottleneck.symmetric with
             algo;
             delay1_ms = 20.;
             delay2_ms = 80.;
             duration = 120.;
           })
    in
    Table.add_row t
      [
        algo;
        Printf.sprintf "%.2f" (m "goodput1_mbps");
        Printf.sprintf "%.2f" (m "goodput2_mbps");
        Printf.sprintf "%.2f" (m "goodput1_mbps" +. m "goodput2_mbps");
      ]
  in
  List.iter run [ "lia"; "olia"; "coupled:2" ];
  Table.print t;
  print_endline
    "(both coupled algorithms weight their increases by RTT; the uncoupled\n\
     \ flow is at the mercy of TCP's RTT bias on each path separately)"

let ablation_responsiveness () =
  section "Ablation - responsiveness to path-quality shocks (paper SII claim)";
  let t =
    Table.create
      ~title:
        "8 TCP flows slam path 2 at t=60s and leave at t=120s (10 Mb/s links)"
      ~columns:
        [
          "algorithm"; "pre-shock share"; "flee (s)"; "reclaim (s)";
          "post-relief share";
        ]
  in
  let fmt x = if Float.is_nan x then "-" else Printf.sprintf "%.1f" x in
  List.iter
    (fun algo ->
      let m =
        E.Outcome.metric
          (S.Responsiveness.run { S.Responsiveness.default with algo })
      in
      Table.add_row t
        [
          algo;
          Printf.sprintf "%.2f" (m "pre_shock_share");
          fmt (m "shock_response_s");
          fmt (m "relief_response_s");
          Printf.sprintf "%.2f" (m "post_relief_share");
        ])
    [ "lia"; "olia"; "balia"; "coupled:0"; "coupled:2" ];
  Table.print t;
  print_endline
    "(OLIA flees a congested path as fast as LIA; epsilon=0 is flappy even\n\
     \ before the shock - its pre-shock share sits far from 1/2)"

let ablation_convergence () =
  section "Ablation - fluid-model convergence (the paper's open question)";
  (* integrate both fluid models on the Fig. 6 network from a cold start
     and report when the utility/rates settle *)
  let net =
    {
      F.Network_model.links =
        [| F.Network_model.link 100.; F.Network_model.link 60. |];
      users =
        [|
          {
            F.Network_model.routes =
              [|
                { F.Network_model.links = [| 0 |]; rtt = 0.1 };
                { F.Network_model.links = [| 1 |]; rtt = 0.1 };
              |];
          };
          {
            F.Network_model.routes =
              [| { F.Network_model.links = [| 0 |]; rtt = 0.1 } |];
          };
          {
            F.Network_model.routes =
              [| { F.Network_model.links = [| 1 |]; rtt = 0.1 } |];
          };
        |];
    }
  in
  let olia =
    F.Olia_ode.integrate
      ~options:{ F.Olia_ode.default_options with t_end = 300. }
      net
      ~x0:(F.Olia_ode.uniform_start net ~rate:2.)
  in
  let trace = olia.F.Olia_ode.utility_trace in
  let v_end = snd trace.(Array.length trace - 1) in
  let converged_at =
    let hit = ref nan in
    Array.iter
      (fun (t, v) ->
        if Float.is_nan !hit && abs_float (v -. v_end) < 0.01 *. abs_float v_end
        then hit := t)
      trace;
    !hit
  in
  Printf.printf
    "OLIA fluid: V settles to within 1%% of its final value (%.4f) at t = \
     %.1f s\n"
    v_end converged_at;
  let lia_x =
    F.Lia_ode.integrate
      ~options:{ F.Lia_ode.default_options with t_end = 300. }
      net
      ~x0:(F.Olia_ode.uniform_start net ~rate:2.)
  in
  let pred = F.Lia_ode.fixed_point_prediction net lia_x in
  Printf.printf
    "LIA fluid: final rates [%.1f %.1f] vs its Eq.2 prediction [%.1f %.1f]\n"
    lia_x.(0).(0) lia_x.(0).(1) pred.(0).(0) pred.(0).(1);
  print_endline
    "(both fluid models converge numerically on this network; proving it in\n\
     \ general is the future work the paper's conclusion lists)"

let ablation_wireless () =
  section
    "Ablation - wireless bonding (Chen et al., the paper's reference [12])";
  let t =
    Table.create
      ~title:
        "20 Mb/s WiFi with 1% random loss + 8 Mb/s clean cellular"
      ~columns:[ "algorithm"; "wifi Mb/s"; "cell Mb/s"; "total Mb/s" ]
  in
  List.iter
    (fun algo ->
      let m =
        E.Outcome.metric
          (S.Wireless.run
             { S.Wireless.default with algo; duration = duration ();
               warmup = warmup () })
      in
      Table.add_row t
        [
          algo;
          Printf.sprintf "%.2f" (m "wifi_mbps");
          Printf.sprintf "%.2f" (m "cell_mbps");
          Printf.sprintf "%.2f" (m "total_mbps");
        ])
    [ "reno"; "lia"; "olia"; "balia"; "wvegas" ];
  Table.print t;
  print_endline
    "(reference [12] found OLIA at least matches LIA over wireless; plain\n\
     \ TCP on the lossy WiFi path alone is crippled by the random losses)"

(* ----- timed entries: micro-benchmarks and the perf snapshot ----------- *)

module Obs = Mptcp_repro.Obs

(* Every timed entry is measured the way perfbench measures its
   workloads (perfbench/README.md, "How times are taken"), with
   perfbench's own [Clock], [Robust] and [Kernel] (bench/dune copies
   them in): many short windows, each timed alone right after a
   reference-kernel sample and scaled to the kernel's reference speed,
   taken round-robin across the entries so that a host phase lands on
   every entry alike. Host stalls only ever slow a window down and hit
   a minority of windows, so an entry's value is the median of its
   scaled windows. Its spread is their interquartile range over that
   median, from which Obs.Snapshot derives the entry's gate tolerance.

   A window is about half a millisecond of host time at the reference
   speed. The entries that allocate take longer windows, so that each
   carries a like share of GC work: 1.5 ms for the event heap, and
   four for the TCP-second, which therefore takes a turn every other
   round. *)

type probe = {
  name : string;
  units : string;
  per : float;  (** a window's scaled ns over [per] is one value in [units] *)
  every : int;  (** a turn in every [every]-th round *)
  burst : int;  (** windows per turn *)
  around : (unit -> unit) -> unit;  (** brackets each turn, untimed *)
  window : unit -> unit;
}

let probe ?(every = 1) ?(burst = 1) ?(around = fun f -> f ()) ~name ~units
    ~per window =
  { name; units; per; every; burst; around; window }

let rounds = 1200

(* Per-window factor to the reference speed: [ref_ns] over the median of
   the kernel sample taken before the window and its five neighbours
   either side, in time order (perfbench's [speed_factors]). *)
let speed_factors kernel =
  let n = Array.length kernel in
  Array.init n (fun i ->
      let lo = Stdlib.max 0 (i - 5) and hi = Stdlib.min (n - 1) (i + 5) in
      Kernel.ref_ns
      /. Robust.median
           (Array.init (hi - lo + 1) (fun d -> float_of_int kernel.(lo + d))))

(* Time [probes] round-robin over [rounds] rounds and summarize each as
   a snapshot entry. *)
let measure probes =
  Kernel.init ();
  let probes = Array.of_list probes in
  let n =
    Array.fold_left
      (fun acc p -> acc + ((rounds + p.every - 1) / p.every * p.burst))
      0 probes
  in
  let who = Array.make n 0 and raw = Array.make n 0 in
  let kernel = Array.make n 0 in
  let k = ref 0 in
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i p ->
        if r mod p.every = 0 then
          p.around (fun () ->
              for _ = 1 to p.burst do
                kernel.(!k) <- Kernel.time_ns ();
                let t0 = Clock.now_ns () in
                p.window ();
                raw.(!k) <- Clock.now_ns () - t0;
                who.(!k) <- i;
                incr k
              done))
      probes
  done;
  let factor = speed_factors kernel in
  List.mapi
    (fun i p ->
      let s =
        List.filter (fun j -> who.(j) = i) (List.init n Fun.id)
        |> List.map (fun j -> float_of_int raw.(j) *. factor.(j) /. p.per)
        |> Array.of_list |> Robust.sorted
      in
      let median = Robust.quantile_sorted s 0.5 in
      Obs.Snapshot.entry ~name:p.name ~median
        ~spread:
          ((Robust.quantile_sorted s 0.75 -. Robust.quantile_sorted s 0.25)
          /. median)
        ~units:p.units)
    (Array.to_list probes)

let repeat n f () =
  for _ = 1 to n do
    f ()
  done

(* The per-ACK coupled increase of each algorithm over a four-subflow
   view; the integer kernel twins sit beside their float models so the
   snapshot tracks what the fixed-point arithmetic costs. *)
let cc_probe (name, calls, (cc : Mptcp_repro.Cc.Types.t)) =
  let views =
    Array.init 4 (fun i ->
        { Mptcp_repro.Cc.Types.cwnd = 5. +. float_of_int i; rtt = 0.1 })
  in
  probe ~name:(Printf.sprintf "micro/%s: increase (4 subflows)" name)
    ~units:"ns/run" ~per:(float_of_int calls) (fun () ->
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (cc.increase ~views ~idx:1))
      done)

(* ns per emission through the instrumentation-site idiom (guard with
   Trace.enabled, then the scalar emitter). Disarmed is the cost every
   simulation always pays (one ref read); armed-ring is the fixed-width
   record write into a bound per-domain ring, wraparound included. *)
let trace_probe name emissions =
  probe ~name ~units:"ns/event" ~per:(float_of_int emissions) (fun () ->
      for i = 1 to emissions do
        if Obs.Trace.enabled () then
          Obs.Trace.rtt_sample
            ~time:(float_of_int i *. 1e-6)
            ~flow:0 ~subflow:0 ~rtt:0.01 ~srtt:0.02
      done)

let disarmed_trace_probe () = trace_probe "micro/trace/emit-disarmed" 250_000

(* Armed emission cannot share a round with the other entries: while
   rings are armed every instrumented entry would trace too. So it
   takes its windows in bursts of 20, every 20th round, with rings
   armed around each burst. The ring holds 4096 records, so it stays
   cache-resident and the page placement of a fresh ring does not set
   the time; one untimed window fills it, so that every timed window
   writes a wrapping ring. *)
let armed_trace_probe () =
  let p = trace_probe "micro/trace/emit-armed-ring" 25_000 in
  let around f =
    Obs.Trace.arm_rings ~capacity:4096 ();
    Obs.Trace.bind_ring ~shard:0;
    Obs.Trace.set_dispatch_ctx ~sched:0. ~cls:1 ~flow:0 ~subflow:0 ~pseq:0
      ~kind:0;
    p.window ();
    f ();
    Obs.Trace.disarm_rings ()
  in
  { p with every = 20; burst = 20; around }

let micro_probes () =
  let module Cc = Mptcp_repro.Cc in
  let module N = Mptcp_repro.Netsim in
  let sim_heap () =
    let sim = N.Sim.create () in
    for i = 0 to 999 do
      ignore
        (N.Sim.schedule_at ~src:"bench.micro" sim
           (float_of_int ((i * 7919) mod 1000))
           (fun () -> ())
          : N.Sim.Timer.t)
    done;
    N.Sim.run sim
  in
  let tcp_second () =
    let sim = N.Sim.create () in
    let q =
      N.Queue.create ~sim ~rng:(N.Rng.create ~seed:1) ~rate_bps:10e6
        ~buffer_pkts:100 ~discipline:N.Queue.Droptail ()
    in
    let fwd = N.Pipe.create ~sim ~delay:0.01 in
    let rev = N.Pipe.create ~sim ~delay:0.01 in
    let conn =
      N.Tcp.create ~sim ~cc:(Cc.Reno.create ())
        ~paths:
          [|
            {
              N.Tcp.fwd = [| N.Queue.hop q; N.Pipe.hop fwd |];
              rev = [| N.Pipe.hop rev |];
            };
          |]
        ~flow_id:0 ()
    in
    N.Sim.run_until sim 1.;
    ignore (Sys.opaque_identity (N.Tcp.total_acked conn))
  in
  let scen_c_solve () =
    ignore
      (Sys.opaque_identity (F.Scenario_c.lia (scen_c_params ~n1:10 ~c1:1.)))
  in
  [
    probe ~name:"micro/sim: schedule+run 1k events" ~units:"ns/run" ~per:8.
      (repeat 8 sim_heap);
  ]
  @ List.map cc_probe
      [
        ("olia", 4_000, Cc.Olia.create ());
        ("olia-fp", 2_000, Cc.Olia_fp.create ());
        ("lia", 25_000, Cc.Lia.create ());
        ("balia", 16_000, Cc.Balia.create ());
        ("balia-fp", 5_000, Cc.Balia_fp.create ());
      ]
  @ [
      probe ~name:"micro/fluid: scenario C fixed point" ~units:"ns/run"
        ~per:600. (repeat 600 scen_c_solve);
      probe ~every:2 ~name:"micro/netsim: 1 TCP-second at 10 Mb/s"
        ~units:"ns/run" ~per:5. (repeat 5 tcp_second);
      disarmed_trace_probe ();
    ]

(* Wall-clock per simulated second of two representative scenarios. A
   window is a whole 40 s run (about 40 ms), so each takes a turn every
   20th round. *)
let scenario_probes () =
  let sim_s = 40. in
  let scenario name run =
    probe ~every:20 ~name:("scenario/" ^ name) ~units:"s_wall/s_sim"
      ~per:(sim_s *. 1e9) (fun () -> ignore (Sys.opaque_identity (run ())))
  in
  [
    scenario "scenario-a" (fun () ->
        S.Scen_a.run { S.Scen_a.default with duration = sim_s; warmup = 10. });
    scenario "two-bottleneck" (fun () ->
        S.Two_bottleneck.run
          { S.Two_bottleneck.symmetric with duration = sim_s });
  ]

let print_entries entries =
  List.iter
    (fun (e : Obs.Snapshot.entry) ->
      Printf.printf "%-45s %12.5g %-12s spread %5.1f%%  tolerance %s\n"
        e.Obs.Snapshot.name e.median e.units (100. *. e.spread)
        (if e.gated then
           Printf.sprintf "%.1f%%" (100. *. Obs.Snapshot.tolerance e)
         else "ungated"))
    entries

let micro () =
  section "Micro-benchmarks (kernel-scaled windows)";
  print_entries (measure (micro_probes ()))

let trace_micro () =
  section "Micro - trace emission, armed ring vs disarmed guard";
  print_entries
    (measure [ disarmed_trace_probe (); armed_trace_probe () ])

let take_snapshot () =
  section "Perf snapshot";
  let entries =
    measure (micro_probes () @ scenario_probes () @ [ armed_trace_probe () ])
  in
  print_entries entries;
  entries

(* Returns false when the gate fails against the baseline. *)
let snapshot_and_compare ~path ~baseline =
  let snap = take_snapshot () in
  Obs.Snapshot.write ~path snap;
  Printf.printf "wrote %s (%d entries)\n" path (List.length snap);
  match baseline with
  | None -> true
  | Some bpath -> (
    match Obs.Snapshot.read ~path:bpath with
    | Error e ->
      Printf.eprintf "cannot read baseline %s: %s\n" bpath e;
      false
    | Ok base ->
      let rows = Obs.Snapshot.gate ~baseline:base ~current:snap in
      Printf.printf "gate vs %s:\n" bpath;
      List.iter
        (fun (r : Obs.Snapshot.row) ->
          Printf.printf "  %-10s %-45s %10.4g -> %10.4g  %6.3fx  limit %s\n"
            (Obs.Snapshot.verdict_name r.verdict)
            r.name r.baseline r.current r.ratio
            (if r.verdict = Obs.Snapshot.Ungated then "-"
             else Printf.sprintf "%.3fx" (1. +. r.tolerance)))
        rows;
      let ungated =
        List.filter_map
          (fun (r : Obs.Snapshot.row) ->
            if r.verdict = Obs.Snapshot.Ungated then Some r.name else None)
          rows
      in
      Printf.printf "ungated: %s\n"
        (if ungated = [] then "none" else String.concat ", " ungated);
      let failed = Obs.Snapshot.regressions ~baseline:base ~current:snap in
      if failed = [] then Printf.printf "no perf regressions vs %s\n" bpath
      else
        Printf.printf "%d entries fail the gate vs %s\n" (List.length failed)
          bpath;
      failed = [])

(* ----- driver ----------------------------------------------------------- *)

let targets : (string * string * (unit -> unit)) list =
  [
    ("fig1b", "Scenario A, LIA: normalized throughput", fig1b);
    ("fig1c", "Scenario A, LIA: loss at the shared AP", fig1c);
    ("fig4a", "Scenario B, LIA analysis sweep", fig4a);
    ("fig4b", "Scenario B, probing-cost optimum sweep", fig4b);
    ("table1", "Scenario B measurements with LIA", table1);
    ("fig5b", "Scenario C analysis, LIA vs optimum", fig5b);
    ("fig5c", "Scenario C, LIA: normalized throughput", fig5c);
    ("fig5d", "Scenario C, LIA: loss at AP2", fig5d);
    ("fig7", "symmetric window traces", fig7);
    ("fig8", "asymmetric window traces", fig8);
    ("fig9", "Scenario A, OLIA vs LIA", fig9);
    ("fig10", "Scenario A, OLIA: loss at the shared AP", fig10);
    ("table2", "Scenario B measurements with OLIA", table2);
    ("fig11", "Scenario C, OLIA vs LIA", fig11);
    ("fig12", "Scenario C, OLIA: loss at AP2", fig12);
    ("fig13a", "FatTree aggregate vs subflows", fig13a);
    ("fig13b", "FatTree ranked flow throughput", fig13b);
    ("fig14", "short-flow completion PDF", fig14);
    ("table3", "dynamic-setting summary", table3);
    ("fig17", "probing optimum vs RTT", fig17);
    ("ablation-eps", "epsilon family ablation", ablation_epsilon);
    ("ablation-fw", "future-work refinements (path manager, background)",
     ablation_future_work);
    ("ablation-rtt", "RTT heterogeneity", ablation_rtt);
    ("ablation-resp", "responsiveness to shocks", ablation_responsiveness);
    ("ablation-conv", "fluid-model convergence", ablation_convergence);
    ("ablation-wireless", "wireless bonding (ref. [12])", ablation_wireless);
    ("ablation-seeds", "seed stability", ablation_seeds);
    ("micro", "hot-path micro-benchmarks", micro);
    ("micro-trace", "trace emission, armed ring vs disarmed", trace_micro);
  ]

let () =
  let snapshot_path = ref None in
  let baseline_path = ref None in
  let usage () =
    print_endline
      "usage: bench [--quick] [--list] [--snapshot FILE [--baseline FILE]] \
       [TARGET...]";
    List.iter (fun (n, d, _) -> Printf.printf "%-14s %s\n" n d) targets
  in
  let value flag = function
    | v :: rest -> (v, rest)
    | [] ->
      Printf.eprintf "%s needs a value\n" flag;
      exit 1
  in
  let rec parse names = function
    | [] -> List.rev names
    | "--quick" :: rest ->
      quick := true;
      parse names rest
    | "--list" :: _ ->
      usage ();
      exit 0
    | "--snapshot" :: rest ->
      let v, rest = value "--snapshot" rest in
      snapshot_path := Some v;
      parse names rest
    | "--baseline" :: rest ->
      let v, rest = value "--baseline" rest in
      baseline_path := Some v;
      parse names rest
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
      Printf.eprintf "unknown flag %s\n" a;
      usage ();
      exit 1
    | a :: rest -> parse (a :: names) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let to_run =
    match args with
    | [] ->
      (* bare --snapshot is a dedicated mode: skip the full target sweep *)
      if !snapshot_path <> None then [] else targets
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun (m, _, _) -> m = n) targets with
          | Some t -> t
          | None ->
            Printf.eprintf "unknown target %s (try --list)\n" n;
            exit 1)
        names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, _, f) ->
      let t1 = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s done in %.1f s]\n%!" name (Unix.gettimeofday () -. t1))
    to_run;
  let ok =
    match !snapshot_path with
    | None -> true
    | Some path ->
      snapshot_and_compare ~path ~baseline:!baseline_path
  in
  Printf.printf "\nall targets finished in %.1f s\n" (Unix.gettimeofday () -. t0);
  if not ok then exit 1
