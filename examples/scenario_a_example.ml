(* Scenario A end-to-end: the paper's headline non-Pareto-optimality
   demonstration. N1 streaming clients (capped by their server) add an
   MPTCP subflow through an AP that N2 TCP users depend on; LIA hurts the
   TCP users for no gain, OLIA does not.

   Run with:  dune exec examples/scenario_a_example.exe *)

module Scen_a = Mptcp_repro.Scenarios.Scen_a
module Outcome = Mptcp_repro.Exp.Outcome
module Fluid_a = Mptcp_repro.Fluid.Scenario_a
module Units = Mptcp_repro.Fluid.Units
module Table = Mptcp_repro.Stats.Table

let () =
  let cfg = { Scen_a.default with duration = 60.; warmup = 20. } in
  let fluid =
    Fluid_a.lia
      {
        Fluid_a.n1 = cfg.n1;
        n2 = cfg.n2;
        c1 = Units.pps_of_mbps cfg.c1_mbps;
        c2 = Units.pps_of_mbps cfg.c2_mbps;
        rtt = 0.15;
      }
  in
  let optimum =
    Fluid_a.optimum_with_probing
      {
        Fluid_a.n1 = cfg.n1;
        n2 = cfg.n2;
        c1 = Units.pps_of_mbps cfg.c1_mbps;
        c2 = Units.pps_of_mbps cfg.c2_mbps;
        rtt = 0.15;
      }
  in
  Printf.printf
    "Scenario A: N1=%d MPTCP streamers vs N2=%d TCP users (C1=C2=%g Mb/s)\n\n"
    cfg.n1 cfg.n2 cfg.c1_mbps;
  let t =
    Table.create ~title:"Normalized throughput and shared-AP loss"
      ~columns:[ "algorithm"; "type1 (MPTCP)"; "type2 (TCP)"; "p2" ]
  in
  let add_run algo =
    let m = Outcome.metric (Scen_a.run { cfg with algo }) in
    Table.add_row t
      [
        "measured " ^ algo;
        Printf.sprintf "%.3f" (m "norm_type1");
        Printf.sprintf "%.3f" (m "norm_type2");
        Printf.sprintf "%.4f" (m "p2");
      ]
  in
  add_run "lia";
  add_run "olia";
  Table.add_row t
    [
      "fluid model (LIA)";
      Printf.sprintf "%.3f" fluid.norm_type1;
      Printf.sprintf "%.3f" fluid.norm_type2;
      Printf.sprintf "%.4f" fluid.p2;
    ];
  Table.add_row t
    [
      "optimum w/ probing";
      Printf.sprintf "%.3f" optimum.norm1;
      Printf.sprintf "%.3f" optimum.norm2;
      "~0";
    ];
  Table.print t;
  print_newline ();
  print_endline
    "Type-1 users gain nothing from the shared AP (their server is the";
  print_endline
    "bottleneck), yet LIA pushes traffic through it and hurts the TCP";
  print_endline "users. OLIA keeps close to the probing-cost optimum."
