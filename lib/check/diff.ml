module Json = Repro_stats.Json
module SA = Repro_scenarios.Scen_a
module SB = Repro_scenarios.Scen_b
module SC = Repro_scenarios.Scen_c
module Cc = Repro_cc.Cc_types
module Registry = Repro_cc.Registry

(* Differential conformance between the float congestion-control model
   and its fixed-point kernel twins: the same seeded scenario is run
   once per backend and the resulting metrics must agree within a
   divergence band. The twins truncate cwnd to whole packets and carry
   every update in scaled integers, so the trajectories are not
   identical — but both sit in the same equilibrium basin, and the
   bands bound how far the integer arithmetic may drift the measured
   goodputs. Every case carries the provenance of the integer side:
   which kernel source its arithmetic mirrors. *)

let olia_source =
  "net/mptcp/mptcp_olia.c (linux-4.1 MPTCP tree): scale=10 fixed-point \
   rate/epsilon/snd_cwnd_cnt arithmetic"

let balia_source =
  "net/mptcp/mptcp_balia.c (linux-4.1 MPTCP tree): recalc_ai with \
   alpha_scale=10, rate_scale_limit=25, scale_num=5"

(* A [Rel tol] check compares the float-backend metric against the
   fixed-backend metric by relative deviation; a [Bound limit] check
   requires the (joint) metric itself to stay at or below [limit] —
   used for the lockstep drivers' trajectory-divergence metrics, which
   measure both backends at once. *)
type tolerance = Rel of float | Bound of float

type check = { metric : string; tol : tolerance }

type case = {
  name : string;
  doc : string;
  source : string;  (** kernel provenance of the fixed-point side *)
  float_algo : string;
  fixed_algo : string;
  checks : check list;
  run : unit -> (string * float) list * (string * float) list;
      (** metrics of the float run and of the fixed-point run *)
}

(* --- lockstep driver --------------------------------------------------- *)

(* Drive two CC backends through an identical, fully prescribed ACK/loss
   schedule on two asymmetric synthetic subflows — no simulator, no
   randomness. Each step delivers one ACK per subflow (or a prescribed
   loss), applies the backend's increase/decrease to its own view
   array, and tracks the largest relative cwnd divergence between the
   trajectories. This pins the per-ACK update rules against each other
   far more tightly than a goodput comparison can. *)

type lockstep_result = {
  max_rel_divergence : float;
  final_float : float array;  (** per-subflow cwnd after the run *)
  final_fixed : float array;
}

let lockstep_subflows = [| (10., 0.05); (6., 0.15) |]

let lockstep ?(steps = 4000) ~float_algo ~fixed_algo () =
  let mk algo =
    ( Registry.create algo,
      Array.map
        (fun (cwnd, rtt) -> { Cc.cwnd; rtt })
        lockstep_subflows )
  in
  let ccf, vf = mk float_algo in
  let cci, vi = mk fixed_algo in
  let nsub = Array.length lockstep_subflows in
  let step_one (cc : Cc.t) v idx loss =
    if loss then begin
      cc.Cc.on_loss ~idx;
      let d = cc.Cc.loss_decrease ~views:v ~idx in
      v.(idx).Cc.cwnd <- Stdlib.max 1. (v.(idx).Cc.cwnd -. d)
    end
    else begin
      cc.Cc.on_ack ~idx ~acked:1;
      let inc = cc.Cc.increase ~views:v ~idx in
      v.(idx).Cc.cwnd <- Stdlib.max 1. (v.(idx).Cc.cwnd +. inc)
    end
  in
  let max_rel = ref 0. in
  for t = 1 to steps do
    for idx = 0 to nsub - 1 do
      (* losses at fixed co-prime periods: identical on both backends,
         dependent on neither backend's state *)
      let loss = t mod (311 + (172 * idx)) = 0 in
      step_one ccf vf idx loss;
      step_one cci vi idx loss
    done;
    for idx = 0 to nsub - 1 do
      (* the twin keeps an integer cwnd, so the trajectories may always
         sit one packet apart; the divergence metric allows that
         quantum and bounds the drift beyond it *)
      let d = abs_float (vf.(idx).Cc.cwnd -. vi.(idx).Cc.cwnd) in
      let rel =
        Stdlib.max 0. (d -. 1.)
        /. Stdlib.max (Stdlib.max vf.(idx).Cc.cwnd vi.(idx).Cc.cwnd) 1.
      in
      if rel > !max_rel then max_rel := rel
    done
  done;
  {
    max_rel_divergence = !max_rel;
    final_float = Array.map (fun v -> v.Cc.cwnd) vf;
    final_fixed = Array.map (fun v -> v.Cc.cwnd) vi;
  }

(* --- the case registry ------------------------------------------------- *)

let metrics_a (r : SA.result) =
  [ ("norm_type1", r.SA.norm_type1); ("norm_type2", r.SA.norm_type2) ]

let metrics_b (r : SB.result) =
  [
    ("blue_rate", r.SB.blue_rate);
    ("red_rate", r.SB.red_rate);
    ("aggregate", r.SB.aggregate);
  ]

let metrics_c (r : SC.result) =
  [
    ("norm_multipath", r.SC.norm_multipath);
    ("norm_single", r.SC.norm_single);
  ]

(* The quick profile shortens the runs for the test suite; the full
   profile is what `olia_sim check --diff` and CI run. Tolerances are
   looser on the quick profile: short windows average less noise. *)
let scenario_case ~quick ~name ~doc ~source ~float_algo ~fixed_algo ~metrics
    run =
  let rtol = if quick then 0.30 else 0.20 in
  {
    name;
    doc;
    source;
    float_algo;
    fixed_algo;
    checks = List.map (fun m -> { metric = m; tol = Rel rtol }) metrics;
    run = (fun () -> (run float_algo, run fixed_algo));
  }

let lockstep_case ~name ~doc ~source ~float_algo ~fixed_algo ~max_div =
  {
    name;
    doc;
    source;
    float_algo;
    fixed_algo;
    checks =
      [
        { metric = "max_rel_divergence"; tol = Bound max_div };
        { metric = "final_cwnd_sf0"; tol = Rel max_div };
        { metric = "final_cwnd_sf1"; tol = Rel max_div };
      ];
    run =
      (fun () ->
        let r = lockstep ~float_algo ~fixed_algo () in
        let side final =
          [
            ("max_rel_divergence", r.max_rel_divergence);
            ("final_cwnd_sf0", final.(0));
            ("final_cwnd_sf1", final.(1));
          ]
        in
        (side r.final_float, side r.final_fixed));
  }

let cases ?(quick = false) () =
  let dur_a d w (c : SA.config) = { c with SA.duration = d; warmup = w } in
  let dur_b d w (c : SB.config) = { c with SB.duration = d; warmup = w } in
  let dur_c d w (c : SC.config) = { c with SC.duration = d; warmup = w } in
  let d, w = if quick then (10., 2.) else (60., 15.) in
  let run_a algo = metrics_a (SA.run (dur_a d w { SA.default with algo })) in
  let run_b algo =
    metrics_b (SB.run (dur_b d w { SB.default with SB.algo; red_multipath = true }))
  in
  let run_c algo = metrics_c (SC.run (dur_c d w { SC.default with SC.algo })) in
  let sc = scenario_case ~quick in
  [
    sc ~name:"diff/a-olia" ~float_algo:"olia" ~fixed_algo:"olia-fp"
      ~source:olia_source ~metrics:[ "norm_type1"; "norm_type2" ]
      ~doc:"scenario A: float OLIA vs the scale=10 integer twin" run_a;
    sc ~name:"diff/a-balia" ~float_algo:"balia" ~fixed_algo:"balia-fp"
      ~source:balia_source ~metrics:[ "norm_type1"; "norm_type2" ]
      ~doc:"scenario A: float BALIA vs the recalc_ai integer twin" run_a;
    sc ~name:"diff/b-olia" ~float_algo:"olia" ~fixed_algo:"olia-fp"
      ~source:olia_source ~metrics:[ "blue_rate"; "red_rate"; "aggregate" ]
      ~doc:"scenario B (Red multipath): float OLIA vs the integer twin"
      run_b;
    sc ~name:"diff/b-balia" ~float_algo:"balia" ~fixed_algo:"balia-fp"
      ~source:balia_source ~metrics:[ "blue_rate"; "red_rate"; "aggregate" ]
      ~doc:"scenario B (Red multipath): float BALIA vs the integer twin"
      run_b;
    sc ~name:"diff/c-olia" ~float_algo:"olia" ~fixed_algo:"olia-fp"
      ~source:olia_source ~metrics:[ "norm_multipath"; "norm_single" ]
      ~doc:"scenario C: float OLIA vs the scale=10 integer twin" run_c;
    sc ~name:"diff/c-balia" ~float_algo:"balia" ~fixed_algo:"balia-fp"
      ~source:balia_source ~metrics:[ "norm_multipath"; "norm_single" ]
      ~doc:"scenario C: float BALIA vs the recalc_ai integer twin" run_c;
    lockstep_case ~name:"diff/lockstep-olia" ~float_algo:"olia"
      ~fixed_algo:"olia-fp" ~source:olia_source ~max_div:0.25
      ~doc:
        "per-ACK lockstep: both OLIA backends on one prescribed ACK/loss \
         schedule, bounded cwnd divergence";
    lockstep_case ~name:"diff/lockstep-balia" ~float_algo:"balia"
      ~fixed_algo:"balia-fp" ~source:balia_source ~max_div:0.25
      ~doc:
        "per-ACK lockstep: both BALIA backends on one prescribed ACK/loss \
         schedule, bounded cwnd divergence";
  ]

(* --- running and reporting --------------------------------------------- *)

type check_result = {
  metric : string;
  float_value : float;
  fixed_value : float;
  deviation : float;  (** relative deviation, or the bounded value *)
  limit : float;
  pass : bool;
}

type case_report = {
  case : string;
  doc : string;
  source : string;
  float_algo : string;
  fixed_algo : string;
  results : check_result list;
  pass : bool;
}

type report = {
  cases : case_report list;
  pass : bool;
  checks_total : int;
  checks_failed : int;
}

let lookup metrics name =
  match List.assoc_opt name metrics with Some v -> v | None -> Float.nan

let run_case c =
  let fm, xm = c.run () in
  let results =
    List.map
      (fun (ck : check) ->
        let fv = lookup fm ck.metric and xv = lookup xm ck.metric in
        let deviation, limit =
          match ck.tol with
          | Rel rtol ->
              (abs_float (fv -. xv) /. Stdlib.max (abs_float fv) 1e-9, rtol)
          | Bound b -> (xv, b)
        in
        {
          metric = ck.metric;
          float_value = fv;
          fixed_value = xv;
          deviation;
          limit;
          pass =
            Float.is_finite fv && Float.is_finite xv
            && Float.is_finite deviation && deviation <= limit;
        })
      c.checks
  in
  {
    case = c.name;
    doc = c.doc;
    source = c.source;
    float_algo = c.float_algo;
    fixed_algo = c.fixed_algo;
    results;
    pass = List.for_all (fun (r : check_result) -> r.pass) results;
  }

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  if ln = 0 then true
  else
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0

let run_all ?only ?(quick = false) () =
  let cs = cases ~quick () in
  let cs =
    match only with
    | None -> cs
    | Some s -> List.filter (fun c -> contains c.name s) cs
  in
  let reports = List.map run_case cs in
  let checks_total =
    List.fold_left (fun n r -> n + List.length r.results) 0 reports
  in
  let checks_failed =
    List.fold_left
      (fun n r ->
        n
        + List.length
            (List.filter (fun (c : check_result) -> not c.pass) r.results))
      0 reports
  in
  {
    cases = reports;
    pass = List.for_all (fun (r : case_report) -> r.pass) reports;
    checks_total;
    checks_failed;
  }

let check_result_to_json r =
  Json.Obj
    [
      ("metric", Json.String r.metric);
      ("float", Json.Float r.float_value);
      ("fixed", Json.Float r.fixed_value);
      ("deviation", Json.Float r.deviation);
      ("limit", Json.Float r.limit);
      ("pass", Json.Bool r.pass);
    ]

let case_report_to_json cr =
  Json.Obj
    [
      ("case", Json.String cr.case);
      ("doc", Json.String cr.doc);
      ("source", Json.String cr.source);
      ("float_algo", Json.String cr.float_algo);
      ("fixed_algo", Json.String cr.fixed_algo);
      ("pass", Json.Bool cr.pass);
      ("checks", Json.List (List.map check_result_to_json cr.results));
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
      ("checks_total", Json.Int r.checks_total);
      ("checks_failed", Json.Int r.checks_failed);
      ("cases", Json.List (List.map case_report_to_json r.cases));
    ]
