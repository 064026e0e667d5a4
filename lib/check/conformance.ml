module Json = Repro_stats.Json
module FA = Repro_fluid.Scenario_a
module FB = Repro_fluid.Scenario_b
module FC = Repro_fluid.Scenario_c
module U = Repro_fluid.Units
module NM = Repro_fluid.Network_model
module Eq = Repro_fluid.Equilibrium
module SA = Repro_scenarios.Scen_a
module SB = Repro_scenarios.Scen_b
module SC = Repro_scenarios.Scen_c

(* The case registry. Every case runs something — a packet simulation,
   a fluid solver, a fault-injection scenario, a float-vs-fixed-point
   differential — and returns a flat metric list; its bands declare
   what the analytical side of the paper (or the kernel twin's float
   reference) predicts for those metrics. All runs are seeded and
   measured with deterministic counters only, so two invocations of
   [run_all] yield byte-identical reports. *)

type case = {
  name : string;
  doc : string;
  bands : Band.t list;
  run : unit -> (string * float) list;
}

(* An OLIA measurement is bracketed by two models: the LIA fixed point
   below (OLIA is less aggressive on congested shared paths, §IV) and
   the probing-cost optimum above (Theorem 1 drives OLIA towards it).
   [slack] widens the bracket for stochastic simulation noise. *)
let between ~id ~metric ~source ?(slack = 0.12) a b =
  Band.within ~id ~metric ~source ~expected:b
    ~lo:((1. -. slack) *. Stdlib.min a b)
    ~hi:((1. +. slack) *. Stdlib.max a b)

let bps_of_pps pps = 1e6 *. U.mbps_of_pps pps

(* --- scenario A -------------------------------------------------------- *)

let params_a =
  let d = SA.default in
  {
    FA.n1 = d.SA.n1;
    n2 = d.SA.n2;
    c1 = U.pps_of_mbps d.SA.c1_mbps;
    c2 = U.pps_of_mbps d.SA.c2_mbps;
    rtt = Repro_scenarios.Common.paper_rtt;
  }

let net_a () =
  let p = params_a in
  let type1 =
    {
      NM.routes =
        [|
          { NM.links = [| 0 |]; rtt = p.FA.rtt };
          { NM.links = [| 0; 1 |]; rtt = p.FA.rtt };
        |];
    }
  in
  let type2 = { NM.routes = [| { NM.links = [| 1 |]; rtt = p.FA.rtt } |] } in
  {
    NM.links =
      [|
        NM.link (float_of_int p.FA.n1 *. p.FA.c1);
        NM.link (float_of_int p.FA.n2 *. p.FA.c2);
      |];
    users = Array.append (Array.make p.FA.n1 type1) (Array.make p.FA.n2 type2);
  }

(* Per-class normalized totals of an equilibrium allocation on [net_a]
   (or the identically-shaped scenario-C network): type-1 users come
   first, type-2 users start at index [n1]. *)
let norms_2class ~n1 ~c1 ~c2 x =
  let t1 = Array.fold_left ( +. ) 0. x.(0) in
  let t2 = Array.fold_left ( +. ) 0. x.(n1) in
  (t1 /. c1, t2 /. c2)

let run_a algo () = (SA.run { SA.default with SA.algo }).metrics

let a_lia_case () =
  let f = FA.lia params_a in
  {
    name = "a/lia";
    doc = "scenario A, MPTCP-LIA vs the Eq. 10 fixed point (paper SIII-A)";
    run = run_a "lia";
    bands =
      [
        Band.around ~id:"a.lia.norm_type1" ~metric:"norm_type1" ~rtol:0.15
          ~source:"Eq. 10: type-1 users saturate their private path"
          f.FA.norm_type1;
        Band.around ~id:"a.lia.norm_type2" ~metric:"norm_type2" ~rtol:0.15
          ~source:"Eq. 10: y/c2 at the LIA fixed point" f.FA.norm_type2;
        Band.loss ~id:"a.lia.p1" ~metric:"p1"
          ~source:"p1 = 2/(rtt*c1)^2 (SIII-A)" f.FA.p1;
        Band.loss ~id:"a.lia.p2" ~metric:"p2" ~source:"p2 = p1/z^2 (SIII-A)"
          f.FA.p2;
        Band.around ~id:"a.lia.sf_private"
          ~metric:"obs_subflow_goodput_bps_type1_sf0" ~rtol:0.4
          ~source:"x1 of the LIA fixed point (private path)"
          (bps_of_pps f.FA.x1);
        Band.around ~id:"a.lia.sf_shared"
          ~metric:"obs_subflow_goodput_bps_type1_sf1" ~rtol:0.6
          ~source:"x2 of the LIA fixed point (shared AP subflow)"
          (bps_of_pps f.FA.x2);
        Band.around ~id:"a.lia.sf_type2"
          ~metric:"obs_subflow_goodput_bps_type2_sf0" ~rtol:0.4
          ~source:"y of the LIA fixed point" (bps_of_pps f.FA.y);
      ];
  }

let a_olia_case () =
  let f = FA.lia params_a and o = FA.optimum_with_probing params_a in
  {
    name = "a/olia";
    doc =
      "scenario A, OLIA bracketed between the LIA fixed point and the \
       probing-cost optimum (paper SIV, Fig. 9)";
    run = run_a "olia";
    bands =
      [
        between ~id:"a.olia.norm_type1" ~metric:"norm_type1"
          ~source:"LIA point vs Appendix A.2 optimum" f.FA.norm_type1
          o.FA.norm1;
        between ~id:"a.olia.norm_type2" ~metric:"norm_type2"
          ~source:"LIA point vs Appendix A.2 optimum: OLIA must not \
                   penalize type-2 users below LIA" f.FA.norm_type2 o.FA.norm2;
        Band.loss ~id:"a.olia.p1" ~metric:"p1"
          ~source:"same order as the LIA losses" f.FA.p1;
        Band.loss ~id:"a.olia.p2" ~metric:"p2"
          ~source:"same order as the LIA losses" f.FA.p2;
      ];
  }

let a_reno_case () =
  let x = Eq.solve (net_a ()) Eq.Uncoupled in
  let n1, n2_ = norms_2class ~n1:params_a.FA.n1 ~c1:params_a.FA.c1
      ~c2:params_a.FA.c2 x
  in
  {
    name = "a/reno";
    doc =
      "scenario A, uncoupled Reno subflows vs the general equilibrium \
       solver (the epsilon=2 end point of SV)";
    run = run_a "reno";
    bands =
      [
        Band.around ~id:"a.reno.norm_type1" ~metric:"norm_type1" ~rtol:0.2
          ~source:"Equilibrium.solve Uncoupled on the scenario-A network" n1;
        Band.around ~id:"a.reno.norm_type2" ~metric:"norm_type2" ~rtol:0.2
          ~source:"Equilibrium.solve Uncoupled on the scenario-A network"
          n2_;
      ];
  }

(* --- scenario C -------------------------------------------------------- *)

let params_c =
  let d = SC.default in
  {
    FC.n1 = d.SC.n1;
    n2 = d.SC.n2;
    c1 = U.pps_of_mbps d.SC.c1_mbps;
    c2 = U.pps_of_mbps d.SC.c2_mbps;
    rtt = Repro_scenarios.Common.paper_rtt;
  }

let net_c () =
  let p = params_c in
  let multipath =
    {
      NM.routes =
        [|
          { NM.links = [| 0 |]; rtt = p.FC.rtt };
          { NM.links = [| 1 |]; rtt = p.FC.rtt };
        |];
    }
  in
  let single = { NM.routes = [| { NM.links = [| 1 |]; rtt = p.FC.rtt } |] } in
  {
    NM.links =
      [|
        NM.link (float_of_int p.FC.n1 *. p.FC.c1);
        NM.link (float_of_int p.FC.n2 *. p.FC.c2);
      |];
    users =
      Array.append (Array.make p.FC.n1 multipath) (Array.make p.FC.n2 single);
  }

let run_c algo () = (SC.run { SC.default with SC.algo }).metrics

let c_lia_case () =
  let f = FC.lia params_c in
  {
    name = "c/lia";
    doc =
      "scenario C, MPTCP-LIA vs the cubic fixed point (paper SIII-C): \
       LIA overloads the shared AP2";
    run = run_c "lia";
    bands =
      [
        Band.around ~id:"c.lia.norm_multipath" ~metric:"norm_multipath"
          ~rtol:0.15 ~source:"cubic fixed point of SIII-C"
          f.FC.norm_multipath;
        Band.around ~id:"c.lia.norm_single" ~metric:"norm_single" ~rtol:0.15
          ~source:"cubic fixed point of SIII-C" f.FC.norm_single;
        Band.loss ~id:"c.lia.p1" ~metric:"p1" ~source:"SIII-C fixed point"
          f.FC.p1;
        Band.loss ~id:"c.lia.p2" ~metric:"p2" ~source:"SIII-C fixed point"
          f.FC.p2;
        Band.around ~id:"c.lia.sf_private"
          ~metric:"obs_subflow_goodput_bps_multipath_sf0" ~rtol:0.4
          ~source:"x1 of the LIA fixed point (private AP1)"
          (bps_of_pps f.FC.x1);
        Band.around ~id:"c.lia.sf_shared"
          ~metric:"obs_subflow_goodput_bps_multipath_sf1" ~rtol:0.6
          ~source:"x2 of the LIA fixed point (shared AP2 subflow)"
          (bps_of_pps f.FC.x2);
        Band.around ~id:"c.lia.sf_single"
          ~metric:"obs_subflow_goodput_bps_single_sf0" ~rtol:0.4
          ~source:"y of the LIA fixed point" (bps_of_pps f.FC.y);
      ];
  }

let c_olia_case () =
  let f = FC.lia params_c and o = FC.optimum_with_probing params_c in
  {
    name = "c/olia";
    doc =
      "scenario C, OLIA bracketed between the LIA fixed point and the \
       probing-cost optimum (paper SIV, Fig. 11)";
    run = run_c "olia";
    bands =
      [
        between ~id:"c.olia.norm_multipath" ~metric:"norm_multipath"
          ~source:"LIA point vs probing-cost optimum" f.FC.norm_multipath
          o.FC.norm_multipath;
        between ~id:"c.olia.norm_single" ~metric:"norm_single"
          ~source:"LIA point vs probing-cost optimum: OLIA must restore \
                   most of the single-path users' share" f.FC.norm_single
          o.FC.norm_single;
        Band.loss ~id:"c.olia.p2" ~metric:"p2"
          ~source:"same order as the LIA loss at AP2" f.FC.p2;
      ];
  }

let c_reno_case () =
  let x = Eq.solve (net_c ()) Eq.Uncoupled in
  let nm, ns = norms_2class ~n1:params_c.FC.n1 ~c1:params_c.FC.c1
      ~c2:params_c.FC.c2 x
  in
  {
    name = "c/reno";
    doc =
      "scenario C, uncoupled Reno subflows vs the general equilibrium \
       solver";
    run = run_c "reno";
    bands =
      [
        Band.around ~id:"c.reno.norm_multipath" ~metric:"norm_multipath"
          ~rtol:0.2 ~source:"Equilibrium.solve Uncoupled on the scenario-C \
                             network" nm;
        Band.around ~id:"c.reno.norm_single" ~metric:"norm_single" ~rtol:0.2
          ~source:"Equilibrium.solve Uncoupled on the scenario-C network" ns;
      ];
  }

(* --- scenario B -------------------------------------------------------- *)

let params_b =
  let d = SB.default in
  {
    FB.n = d.SB.n;
    cx = U.pps_of_mbps d.SB.cx_mbps;
    ct = U.pps_of_mbps d.SB.ct_mbps;
    rtt = Repro_scenarios.Common.paper_rtt;
  }

let run_b ~red_multipath algo () =
  (SB.run { SB.default with SB.algo; red_multipath }).metrics

let b_lia_singlepath_case () =
  let f = FB.lia_red_singlepath params_b in
  {
    name = "b/lia-singlepath";
    doc =
      "scenario B before the Red upgrade (paper Table I): Blue runs \
       MPTCP-LIA, Red regular TCP through T";
    run = run_b ~red_multipath:false "lia";
    bands =
      [
        Band.around ~id:"b.sp.blue" ~metric:"blue_rate" ~rtol:0.15
          ~source:"Table I fixed point (reduces to scenario C)"
          (U.mbps_of_pps f.FB.blue_total);
        Band.around ~id:"b.sp.red" ~metric:"red_rate" ~rtol:0.15
          ~source:"Table I fixed point (reduces to scenario C)"
          (U.mbps_of_pps f.FB.red_total);
        Band.around ~id:"b.sp.aggregate" ~metric:"aggregate" ~rtol:0.15
          ~source:"Table I aggregate" (U.mbps_of_pps f.FB.aggregate);
      ];
  }

let b_lia_multipath_case () =
  let f = FB.lia_red_multipath params_b in
  {
    name = "b/lia-multipath";
    doc =
      "scenario B after the Red upgrade (paper Table II): everybody \
       multipath under LIA, aggregate drops";
    run = run_b ~red_multipath:true "lia";
    bands =
      [
        Band.around ~id:"b.mp.blue" ~metric:"blue_rate" ~rtol:0.15
          ~source:"Appendix B fixed point (Table II)"
          (U.mbps_of_pps f.FB.blue_total);
        Band.around ~id:"b.mp.red" ~metric:"red_rate" ~rtol:0.15
          ~source:"Appendix B fixed point (Table II)"
          (U.mbps_of_pps f.FB.red_total);
        Band.around ~id:"b.mp.aggregate" ~metric:"aggregate" ~rtol:0.15
          ~source:"Appendix B aggregate (Table II)"
          (U.mbps_of_pps f.FB.aggregate);
        Band.loss ~id:"b.mp.px" ~metric:"px" ~factor:4.
          ~source:"Appendix B loss at ISP X" f.FB.px;
        Band.loss ~id:"b.mp.pt" ~metric:"pt" ~factor:4.
          ~source:"Appendix B loss at ISP T" f.FB.pt;
      ];
  }

let b_olia_multipath_case () =
  let f = FB.lia_red_multipath params_b in
  let o = FB.optimum_red_multipath params_b in
  {
    name = "b/olia-multipath";
    doc =
      "scenario B after the Red upgrade under OLIA: bracketed between \
       the LIA fixed point and the Appendix B optimum";
    run = run_b ~red_multipath:true "olia";
    bands =
      [
        between ~id:"b.olia.blue" ~metric:"blue_rate"
          ~source:"LIA point vs Appendix B Eqs. 13-14 optimum"
          (U.mbps_of_pps f.FB.blue_total)
          (U.mbps_of_pps o.FB.blue_total);
        between ~id:"b.olia.red" ~metric:"red_rate"
          ~source:"LIA point vs Appendix B Eqs. 13-14 optimum"
          (U.mbps_of_pps f.FB.red_total)
          (U.mbps_of_pps o.FB.red_total);
        between ~id:"b.olia.aggregate" ~metric:"aggregate"
          ~source:"OLIA recovers part of the upgrade-lost aggregate"
          (U.mbps_of_pps f.FB.aggregate)
          (U.mbps_of_pps o.FB.aggregate);
      ];
  }

(* --- fluid cross-validation ------------------------------------------- *)

(* The closed-form scenario analyses and the general-network solver are
   independent derivations of the same fixed points; they must agree.
   This differential check guards both against silent drift. *)

let fluid_a_lia_case () =
  let f = FA.lia params_a in
  {
    name = "fluid/a-lia";
    doc =
      "closed-form scenario-A LIA point vs Equilibrium.solve Lia on the \
       equivalent network model";
    run =
      (fun () ->
        let x = Eq.solve (net_a ()) Eq.Lia in
        let n1, n2_ = norms_2class ~n1:params_a.FA.n1 ~c1:params_a.FA.c1
            ~c2:params_a.FA.c2 x
        in
        [ ("norm_type1", n1); ("norm_type2", n2_) ]);
    bands =
      [
        Band.around ~id:"fluid.a.norm_type1" ~metric:"norm_type1" ~rtol:0.15
          ~source:"Eq. 10 closed form" f.FA.norm_type1;
        Band.around ~id:"fluid.a.norm_type2" ~metric:"norm_type2" ~rtol:0.15
          ~source:"Eq. 10 closed form" f.FA.norm_type2;
      ];
  }

let fluid_c_lia_case () =
  let f = FC.lia params_c in
  {
    name = "fluid/c-lia";
    doc =
      "closed-form scenario-C LIA point vs Equilibrium.solve Lia on the \
       equivalent network model";
    run =
      (fun () ->
        let x = Eq.solve (net_c ()) Eq.Lia in
        let nm, ns = norms_2class ~n1:params_c.FC.n1 ~c1:params_c.FC.c1
            ~c2:params_c.FC.c2 x
        in
        [ ("norm_multipath", nm); ("norm_single", ns) ]);
    bands =
      [
        Band.around ~id:"fluid.c.norm_multipath" ~metric:"norm_multipath"
          ~rtol:0.15 ~source:"SIII-C cubic closed form" f.FC.norm_multipath;
        Band.around ~id:"fluid.c.norm_single" ~metric:"norm_single"
          ~rtol:0.15 ~source:"SIII-C cubic closed form" f.FC.norm_single;
      ];
  }

(* --- fault injection --------------------------------------------------- *)

let fault_seed = 1

let fault_cases () =
  [
    {
      name = "fault/link-flap";
      doc =
        "OLIA over two disjoint paths survives a 30 s outage of one of \
         them and recovers the aggregate";
      bands = Faults.link_flap_bands;
      run = (fun () -> Faults.link_flap ~seed:fault_seed);
    };
    {
      name = "fault/burst-loss";
      doc = "Reno rides out a 30% burst-loss episode and recovers";
      bands = Faults.burst_loss_bands;
      run = (fun () -> Faults.burst_loss ~seed:fault_seed);
    };
    {
      name = "fault/reorder";
      doc = "a reordering window must not break reliable delivery";
      bands = Faults.reorder_bands;
      run = (fun () -> Faults.reorder ~seed:fault_seed);
    };
  ]

(* --- float vs fixed point: the kernel twins ----------------------------- *)

(* The fixed-point twins of OLIA and BALIA carry every update in the
   kernel's scaled integers. The diff/ cases bound how far that drifts
   the paper's scenarios (60 s runs, 15 s warm-up: each metric within
   20% of the float model) and the per-ACK lockstep trajectories (25%).
   Every band cites the kernel source the integer side mirrors. *)

let twins =
  [
    ("olia", "olia-fp", Diff.olia_source);
    ("balia", "balia-fp", Diff.balia_source);
  ]

let twin_case ~scen ~doc ~limit ~bounded run (float_algo, fixed_algo, source)
    =
  let case = scen ^ "-" ^ float_algo in
  {
    name = "diff/" ^ case;
    doc =
      Printf.sprintf "%s: %s vs its integer twin %s" doc float_algo
        fixed_algo;
    bands =
      List.map
        (fun metric ->
          Band.within ~id:("diff." ^ case ^ "." ^ metric) ~metric ~source
            ~expected:0. ~lo:0. ~hi:limit)
        bounded;
    run = (fun () -> run ~float_algo ~fixed_algo);
  }

let twin_scenario ~scen ~doc ~metrics measure =
  let run ~float_algo ~fixed_algo =
    Diff.paired ~float_algo ~fixed_algo (fun algo ->
        List.filter (fun (m, _) -> List.mem m metrics) (measure algo))
  in
  List.map
    (twin_case ~scen ~doc ~limit:0.20
       ~bounded:(List.map (fun m -> m ^ ".rel_dev") metrics)
       run)
    twins

let twin_cases () =
  let duration = 60. and warmup = 15. in
  twin_scenario ~scen:"a" ~doc:"scenario A"
    ~metrics:[ "norm_type1"; "norm_type2" ]
    (fun algo -> (SA.run { SA.default with SA.algo; duration; warmup }).metrics)
  @ twin_scenario ~scen:"b" ~doc:"scenario B (Red multipath)"
      ~metrics:[ "blue_rate"; "red_rate"; "aggregate" ]
      (fun algo ->
        (SB.run
           { SB.default with SB.algo; red_multipath = true; duration; warmup })
          .metrics)
  @ twin_scenario ~scen:"c" ~doc:"scenario C"
      ~metrics:[ "norm_multipath"; "norm_single" ]
      (fun algo -> (SC.run { SC.default with SC.algo; duration; warmup }).metrics)
  @ List.map
      (twin_case ~scen:"lockstep"
         ~doc:"per-ACK lockstep on one prescribed ACK/loss schedule"
         ~limit:0.25
         ~bounded:
           [
             "max_rel_divergence"; "final_cwnd_sf0.rel_dev";
             "final_cwnd_sf1.rel_dev";
           ]
         Diff.lockstep_metrics)
      twins

let cases () =
  [
    a_lia_case ();
    a_olia_case ();
    a_reno_case ();
    b_lia_singlepath_case ();
    b_lia_multipath_case ();
    b_olia_multipath_case ();
    c_lia_case ();
    c_olia_case ();
    c_reno_case ();
    fluid_a_lia_case ();
    fluid_c_lia_case ();
  ]
  @ fault_cases () @ twin_cases ()

(* --- running and reporting --------------------------------------------- *)

type case_report = {
  case : string;
  doc : string;
  metrics : (string * float) list;
  results : Band.result list;
  pass : bool;
}

type report = {
  cases : case_report list;
  pass : bool;
  bands_total : int;
  bands_failed : int;
}

let run_case c =
  let metrics = c.run () in
  let results =
    List.map
      (fun b ->
        let actual =
          match List.assoc_opt b.Band.metric metrics with
          | Some v -> v
          | None -> Float.nan
        in
        Band.check b actual)
      c.bands
  in
  {
    case = c.name;
    doc = c.doc;
    metrics;
    results;
    pass = List.for_all (fun (r : Band.result) -> r.Band.pass) results;
  }

let selects only name =
  match only with
  | None -> true
  | Some s ->
    let ln = String.length s in
    let rec go i =
      i + ln <= String.length name && (String.sub name i ln = s || go (i + 1))
    in
    go 0

let run_all ?only () =
  let cs = List.filter (fun c -> selects only c.name) (cases ()) in
  let reports = List.map run_case cs in
  let bands_total =
    List.fold_left (fun n r -> n + List.length r.results) 0 reports
  in
  let bands_failed =
    List.fold_left
      (fun n r ->
        n
        + List.length
            (List.filter (fun (b : Band.result) -> not b.Band.pass) r.results))
      0 reports
  in
  {
    cases = reports;
    pass = List.for_all (fun (r : case_report) -> r.pass) reports;
    bands_total;
    bands_failed;
  }

let case_report_to_json cr =
  Json.Obj
    [
      ("case", Json.String cr.case);
      ("doc", Json.String cr.doc);
      ("pass", Json.Bool cr.pass);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) cr.metrics) );
      ("bands", Json.List (List.map Band.result_to_json cr.results));
    ]

let report_to_json r =
  Json.Obj
    [
      ("pass", Json.Bool r.pass);
      ("cases_total", Json.Int (List.length r.cases));
      ( "cases_failed",
        Json.Int
          (List.length
             (List.filter (fun (c : case_report) -> not c.pass) r.cases)) );
      ("bands_total", Json.Int r.bands_total);
      ("bands_failed", Json.Int r.bands_failed);
      ("cases", Json.List (List.map case_report_to_json r.cases));
    ]
