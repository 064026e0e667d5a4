(* Integration tests: short simulated versions of the paper's experiments,
   checked for the qualitative properties (P1, P2, goals 1-3) rather than
   absolute numbers. Durations are cut relative to the paper's 120 s to
   keep the suite fast; seeds are fixed. *)

module S = Mptcp_repro.Scenarios
module Outcome = Mptcp_repro.Exp.Outcome

let m = Outcome.metric
let a = Outcome.array

let duration = 60.
let warmup = 20.

let test_scenario_a_olia_beats_lia_for_tcp_users () =
  let cfg =
    { S.Scen_a.default with duration; warmup; algo = "lia"; seed = 2 }
  in
  let lia = S.Scen_a.run cfg in
  let olia = S.Scen_a.run { cfg with algo = "olia" } in
  Alcotest.(check bool)
    (Printf.sprintf "type2 better under OLIA (%.2f vs %.2f)"
       (m olia "norm_type2") (m lia "norm_type2"))
    true
    (m olia "norm_type2" > m lia "norm_type2");
  Alcotest.(check bool)
    (Printf.sprintf "congestion balanced: p2 lower (%.4f vs %.4f)" (m olia "p2")
       (m lia "p2"))
    true (m olia "p2" < m lia "p2")

let test_scenario_a_type1_unhurt_by_olia () =
  (* switching type-1 users from LIA to OLIA must not cost them much:
     their throughput is capped by the streaming server either way *)
  let cfg = { S.Scen_a.default with duration; warmup; seed = 3 } in
  let lia = S.Scen_a.run { cfg with algo = "lia" } in
  let olia = S.Scen_a.run { cfg with algo = "olia" } in
  Alcotest.(check bool) "within 15%" true
    (m olia "norm_type1" > m lia "norm_type1" -. 0.15)

let test_scenario_a_loss_probabilities_plausible () =
  let cfg = { S.Scen_a.default with duration; warmup; algo = "lia"; seed = 4 } in
  let r = S.Scen_a.run cfg in
  let p1 = m r "p1" and p2 = m r "p2" in
  Alcotest.(check bool) "p1 in (0.001, 0.1)" true (p1 > 0.001 && p1 < 0.1);
  Alcotest.(check bool) "p2 in (0.001, 0.1)" true (p2 > 0.001 && p2 < 0.1)

let test_scenario_b_upgrade_penalty_smaller_with_olia () =
  (* Tables I-II: the aggregate-throughput drop from upgrading Red users
     is much smaller under OLIA than under LIA *)
  let base = { S.Scen_b.default with duration; warmup; seed = 5 } in
  let drop algo =
    let sp = S.Scen_b.run { base with algo; red_multipath = false } in
    let mp = S.Scen_b.run { base with algo; red_multipath = true } in
    1. -. (m mp "aggregate" /. m sp "aggregate")
  in
  let lia_drop = drop "lia" and olia_drop = drop "olia" in
  Alcotest.(check bool)
    (Printf.sprintf "LIA drop %.3f > OLIA drop %.3f" lia_drop olia_drop)
    true
    (olia_drop < lia_drop)

let test_scenario_b_lia_aggregate_drop_matches_paper () =
  (* Table I: ~13% drop; accept 5-25% *)
  let base = { S.Scen_b.default with duration; warmup; algo = "lia"; seed = 6 } in
  let sp = S.Scen_b.run { base with red_multipath = false } in
  let mp = S.Scen_b.run base in
  let drop = 1. -. (m mp "aggregate" /. m sp "aggregate") in
  Alcotest.(check bool) (Printf.sprintf "drop %.3f in range" drop) true
    (drop > 0.05 && drop < 0.25)

let test_scenario_b_aggregate_near_cutset () =
  (* with Red single-path, the aggregate approaches the 63 Mb/s cut-set *)
  let base = { S.Scen_b.default with duration; warmup; algo = "lia"; seed = 7 } in
  let sp = S.Scen_b.run { base with red_multipath = false } in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.1f > 52" (m sp "aggregate"))
    true (m sp "aggregate" > 52.)

let test_scenario_c_olia_less_aggressive () =
  let cfg = { S.Scen_c.default with duration; warmup; seed = 8 } in
  let lia = S.Scen_c.run { cfg with algo = "lia" } in
  let olia = S.Scen_c.run { cfg with algo = "olia" } in
  Alcotest.(check bool)
    (Printf.sprintf "single-path users better off (%.2f vs %.2f)"
       (m olia "norm_single") (m lia "norm_single"))
    true
    (m olia "norm_single" > m lia "norm_single");
  Alcotest.(check bool) "p2 improves" true (m olia "p2" < m lia "p2")

let test_scenario_c_lia_aggressive_at_equal_capacity () =
  (* P2: at C1 = C2, LIA multipath users take clearly more than C1 *)
  let cfg = { S.Scen_c.default with duration; warmup; algo = "lia"; seed = 9 } in
  let r = S.Scen_c.run cfg in
  Alcotest.(check bool)
    (Printf.sprintf "multipath %.2f > 1.1" (m r "norm_multipath"))
    true (m r "norm_multipath" > 1.1)

let test_scenario_c_olia_near_probing_floor () =
  (* with OLIA the multipath users take roughly C1 plus the probe *)
  let cfg = { S.Scen_c.default with duration; warmup; algo = "olia"; seed = 10 } in
  let r = S.Scen_c.run cfg in
  Alcotest.(check bool)
    (Printf.sprintf "multipath %.2f close to 1" (m r "norm_multipath"))
    true
    (m r "norm_multipath" > 0.85 && m r "norm_multipath" < 1.2)

let test_two_bottleneck_symmetric_uses_both () =
  (* Fig. 7: both paths carry real traffic and windows do not flap *)
  let t =
    S.Two_bottleneck.run
      { S.Two_bottleneck.symmetric with duration = 60.; seed = 11 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "both paths used (%.2f / %.2f Mb/s)" (m t "goodput1_mbps")
       (m t "goodput2_mbps"))
    true
    (m t "goodput1_mbps" > 0.3 && m t "goodput2_mbps" > 0.3)

let test_two_bottleneck_asymmetric_prefers_good_path () =
  (* Fig. 8: OLIA moves traffic to the less congested bottleneck *)
  let t =
    S.Two_bottleneck.run
      { S.Two_bottleneck.asymmetric with duration = 60.; seed = 12 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "path1 dominates (%.2f vs %.2f)" (m t "goodput1_mbps")
       (m t "goodput2_mbps"))
    true
    (m t "goodput1_mbps" > 1.5 *. m t "goodput2_mbps")

let test_two_bottleneck_traces_recorded () =
  let t =
    S.Two_bottleneck.run
      { S.Two_bottleneck.symmetric with duration = 20.; seed = 13 }
  in
  Alcotest.(check bool) "w1 sampled" true (Array.length (a t "w1") > 100);
  Alcotest.(check bool) "alpha sampled" true
    (Array.length (a t "alpha1") > 100);
  (* alpha values live in [-1, 1] *)
  Alcotest.(check bool) "alpha bounded" true
    (Array.for_all (fun x -> x >= -1. && x <= 1.) (a t "alpha1"))

let test_two_bottleneck_lia_has_no_alpha () =
  let t =
    S.Two_bottleneck.run
      { S.Two_bottleneck.symmetric with duration = 10.; algo = "lia"; seed = 14 }
  in
  Array.iter (Test_common.close "alpha zero" 0.) (a t "alpha1")

let test_fattree_static_mptcp_beats_tcp () =
  (* Fig. 13(a): multipath strongly outperforms single-path TCP *)
  let cfg =
    { S.Fattree_static.default with k = 4; duration = 20.; warmup = 5.; seed = 15 }
  in
  let tcp = S.Fattree_static.run { cfg with subflows = 1 } in
  let olia8 = S.Fattree_static.run { cfg with subflows = 8; algo = "olia" } in
  Alcotest.(check bool)
    (Printf.sprintf "OLIA %.0f%% > TCP %.0f%%" (m olia8 "aggregate_pct_optimal")
       (m tcp "aggregate_pct_optimal"))
    true
    (m olia8 "aggregate_pct_optimal" > m tcp "aggregate_pct_optimal" +. 10.)

let test_fattree_static_more_subflows_help () =
  let cfg =
    { S.Fattree_static.default with
      k = 4; duration = 20.; warmup = 5.; algo = "lia"; seed = 16 }
  in
  let two = S.Fattree_static.run { cfg with subflows = 2 } in
  let eight = S.Fattree_static.run { cfg with subflows = 8 } in
  Alcotest.(check bool)
    (Printf.sprintf "8 subflows %.0f%% >= 2 subflows %.0f%%"
       (m eight "aggregate_pct_optimal") (m two "aggregate_pct_optimal"))
    true
    (m eight "aggregate_pct_optimal" > m two "aggregate_pct_optimal" -. 3.)

let test_fattree_static_rank_output () =
  let cfg =
    { S.Fattree_static.default with
      k = 4; duration = 15.; warmup = 5.; subflows = 4; seed = 17 }
  in
  let r = S.Fattree_static.run cfg in
  let ranked = a r "ranked_pct" in
  Alcotest.(check int) "one rank per host" 16 (Array.length ranked);
  let sorted = ref true in
  for i = 1 to Array.length ranked - 1 do
    if ranked.(i) < ranked.(i - 1) then sorted := false
  done;
  Alcotest.(check bool) "ascending" true !sorted

let test_fattree_dynamic_shapes () =
  let cfg =
    { S.Fattree_dynamic.default with
      k = 4; duration = 12.; warmup = 3.; seed = 18 }
  in
  let r = S.Fattree_dynamic.run cfg in
  Alcotest.(check bool) "short flows completed" true
    (Array.length (a r "completion_times_ms") > 100);
  Alcotest.(check bool)
    (Printf.sprintf "mean completion %.1f ms plausible"
       (m r "mean_completion_ms"))
    true
    (m r "mean_completion_ms" > 5. && m r "mean_completion_ms" < 2000.);
  Alcotest.(check bool) "core used" true (m r "core_utilization_pct" > 5.)

let test_fattree_dynamic_tcp_lower_core_usage () =
  (* Table III: plain TCP long flows leave the core underutilized *)
  let cfg =
    { S.Fattree_dynamic.default with
      k = 4; duration = 12.; warmup = 3.; seed = 19 }
  in
  let tcp = S.Fattree_dynamic.run { cfg with algo = "reno"; subflows = 1 } in
  let olia = S.Fattree_dynamic.run { cfg with algo = "olia"; subflows = 8 } in
  Alcotest.(check bool)
    (Printf.sprintf "OLIA core %.0f%% > TCP core %.0f%%"
       (m olia "core_utilization_pct") (m tcp "core_utilization_pct"))
    true
    (m olia "core_utilization_pct" > m tcp "core_utilization_pct")

let test_replicate_produces_independent_runs () =
  let cfg =
    { S.Scen_c.default with duration = 30.; warmup = 10.; algo = "lia" }
  in
  let singles =
    List.map
      (fun seed -> m (S.Scen_c.run { cfg with seed }) "norm_single")
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "seeds change results" true
    (List.exists (fun x -> x <> List.hd singles) singles);
  (* but not wildly: all within a plausible band *)
  List.iter
    (fun x -> Alcotest.(check bool) "band" true (x > 0.3 && x < 1.1))
    singles

let test_determinism_same_seed_same_result () =
  let cfg =
    { S.Scen_c.default with duration = 20.; warmup = 5.; algo = "olia"; seed = 42 }
  in
  let a = S.Scen_c.run cfg and b = S.Scen_c.run cfg in
  Test_common.close "bit-identical" (m a "norm_single") (m b "norm_single");
  Test_common.close "loss identical" (m a "p2") (m b "p2")

let suite =
  [
    Alcotest.test_case "A: OLIA beats LIA for TCP users" `Slow
      test_scenario_a_olia_beats_lia_for_tcp_users;
    Alcotest.test_case "A: type1 unhurt by OLIA" `Slow
      test_scenario_a_type1_unhurt_by_olia;
    Alcotest.test_case "A: loss probabilities plausible" `Slow
      test_scenario_a_loss_probabilities_plausible;
    Alcotest.test_case "B: upgrade penalty smaller with OLIA" `Slow
      test_scenario_b_upgrade_penalty_smaller_with_olia;
    Alcotest.test_case "B: LIA aggregate drop ~13%" `Slow
      test_scenario_b_lia_aggregate_drop_matches_paper;
    Alcotest.test_case "B: near cut-set bound" `Slow
      test_scenario_b_aggregate_near_cutset;
    Alcotest.test_case "C: OLIA less aggressive (P2)" `Slow
      test_scenario_c_olia_less_aggressive;
    Alcotest.test_case "C: LIA overshoots at C1=C2" `Slow
      test_scenario_c_lia_aggressive_at_equal_capacity;
    Alcotest.test_case "C: OLIA near probing floor" `Slow
      test_scenario_c_olia_near_probing_floor;
    Alcotest.test_case "Fig7: symmetric uses both paths" `Slow
      test_two_bottleneck_symmetric_uses_both;
    Alcotest.test_case "Fig8: asymmetric prefers good path" `Slow
      test_two_bottleneck_asymmetric_prefers_good_path;
    Alcotest.test_case "Fig7: traces recorded, alpha bounded" `Slow
      test_two_bottleneck_traces_recorded;
    Alcotest.test_case "Fig7: LIA has no alpha" `Slow
      test_two_bottleneck_lia_has_no_alpha;
    Alcotest.test_case "Fig13: MPTCP beats TCP" `Slow
      test_fattree_static_mptcp_beats_tcp;
    Alcotest.test_case "Fig13: subflows help" `Slow
      test_fattree_static_more_subflows_help;
    Alcotest.test_case "Fig13: rank output" `Slow test_fattree_static_rank_output;
    Alcotest.test_case "Fig14: dynamic shapes" `Slow test_fattree_dynamic_shapes;
    Alcotest.test_case "Table3: TCP leaves core idle" `Slow
      test_fattree_dynamic_tcp_lower_core_usage;
    Alcotest.test_case "replicate: independent runs" `Slow
      test_replicate_produces_independent_runs;
    Alcotest.test_case "determinism: same seed, same result" `Slow
      test_determinism_same_seed_same_result;
  ]

let test_two_bottleneck_rtt_heterogeneity () =
  (* with a much slower path 2, OLIA still achieves a sensible total and
     does not starve on aggregate *)
  let t =
    S.Two_bottleneck.run
      {
        S.Two_bottleneck.symmetric with
        delay1_ms = 20.;
        delay2_ms = 80.;
        duration = 60.;
        seed = 21;
      }
  in
  let total = m t "goodput1_mbps" +. m t "goodput2_mbps" in
  Alcotest.(check bool)
    (Printf.sprintf "total %.2f within [0.5, 4]" total)
    true
    (total > 0.5 && total < 4.)

let test_scenario_c_background_traffic () =
  (* CBR noise on AP2 squeezes the single-path users further *)
  let base =
    { S.Scen_c.default with algo = "olia"; duration = 40.; warmup = 10.;
      seed = 22 }
  in
  let clean = S.Scen_c.run base in
  let noisy = S.Scen_c.run { base with background_mbps = 3. } in
  Alcotest.(check bool)
    (Printf.sprintf "singles squeezed: %.2f < %.2f" (m noisy "norm_single")
       (m clean "norm_single"))
    true
    (m noisy "norm_single" < m clean "norm_single")

let test_scenario_c_with_path_manager_runs () =
  let r =
    S.Scen_c.run
      { S.Scen_c.default with algo = "olia"; duration = 40.; warmup = 10.;
        with_path_manager = true; seed = 23 }
  in
  Alcotest.(check bool) "sane result" true
    (m r "norm_multipath" > 0.5 && m r "norm_single" > 0.3)

let suite =
  suite
  @ [
      Alcotest.test_case "two-bottleneck: RTT heterogeneity" `Slow
        test_two_bottleneck_rtt_heterogeneity;
      Alcotest.test_case "C: background traffic squeezes singles" `Slow
        test_scenario_c_background_traffic;
      Alcotest.test_case "C: path manager variant runs" `Slow
        test_scenario_c_with_path_manager_runs;
    ]

let test_responsiveness_olia_flees_fast () =
  let r =
    S.Responsiveness.run { S.Responsiveness.default with algo = "olia" }
  in
  let flee = m r "shock_response_s" in
  Alcotest.(check bool)
    (Printf.sprintf "flees within 10 s (%.1f)" flee)
    true
    (Float.is_finite flee && flee < 10.);
  Alcotest.(check bool) "used path 2 beforehand" true
    (m r "pre_shock_share" > 0.2)

let test_responsiveness_lia_comparable () =
  let olia =
    S.Responsiveness.run { S.Responsiveness.default with algo = "olia" }
  in
  let lia =
    S.Responsiveness.run { S.Responsiveness.default with algo = "lia" }
  in
  (* the paper's claim: OLIA is as responsive as LIA at fleeing *)
  Alcotest.(check bool)
    (Printf.sprintf "OLIA %.1fs vs LIA %.1fs" (m olia "shock_response_s")
       (m lia "shock_response_s"))
    true
    (m olia "shock_response_s" < m lia "shock_response_s" +. 10.)

let suite =
  suite
  @ [
      Alcotest.test_case "responsiveness: OLIA flees fast" `Slow
        test_responsiveness_olia_flees_fast;
      Alcotest.test_case "responsiveness: OLIA ~ LIA" `Slow
        test_responsiveness_lia_comparable;
    ]

(* --- inputs rejected before anything is built -------------------------- *)

(* Each of these inputs used to hang (a zero, negative or NaN short-flow
   gap, or a run to a non-finite time), to be silently absorbed
   (subflows < 1 ran plain TCP, a negative background meant none, a NaN
   wireless loss rate meant no loss, a NaN or infinite link rate made
   RED drop every packet) or to be caught only mid-build. The registry
   run now checks every binding against its parameter's domain before
   the scenario builds anything, so [olia_sim run] exits 124 with a
   message naming the scenario, the key, the value and the domain. *)
let rejects scenario params expect () =
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find scenario in
  let bindings =
    List.map (Mptcp_repro.Exp.Spec.parse_assign Sc.spec) params
  in
  match Sc.run bindings with
  | _ ->
    Alcotest.failf "%s %s was accepted" scenario (String.concat " " params)
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" expect msg

let rejected =
  let outside scenario key v domain =
    Printf.sprintf "%s: %s = %s is outside its domain %s" scenario key v
      domain
  in
  let case scenario key (v, shown) domain =
    (scenario, [ key ^ "=" ^ v ], outside scenario key shown domain)
  in
  let same v = (v, v) in
  [
    case "fattree-dynamic" "mean_interval" (same "0") "finite > 0";
    case "fattree-dynamic" "mean_interval" (same "-0.2") "finite > 0";
    case "fattree-dynamic" "mean_interval" (same "nan") "finite > 0";
    case "fattree-dynamic" "duration" (same "inf") "finite > 0";
    case "fattree-dynamic" "subflows" (same "0") "int >= 1";
    case "fattree" "subflows" (same "0") "int >= 1";
    case "fattree-sharded" "subflows" (same "-2") "int >= 1";
    case "scenario-c" "background" (same "-3") "finite >= 0";
    case "scenario-a" "duration" (same "inf") "finite > 0";
    case "scenario-b" "duration" (same "nan") "finite > 0";
    case "scenario-c" "duration" (same "inf") "finite > 0";
    case "wireless" "duration" (same "inf") "finite > 0";
    case "wireless" "wifi_loss" (same "nan") "[0, 1)";
  ]
  @ List.concat_map
      (fun (scenario, key) ->
        List.map
          (fun v -> case scenario key v "finite > 0")
          [ same "nan"; ("infinity", "inf") ])
      [ ("scenario-a", "c1"); ("scenario-b", "cx"); ("two-bottleneck", "c") ]
  @ [ case "two-bottleneck" "delay2" (same "nan") "finite >= 0" ]
  (* The sampler re-arms itself every [sample_period]: zero would spin
     the clock in place, NaN and infinity would stop the trace. *)
  @ List.map
      (fun v -> case "two-bottleneck" "sample_period" v "finite > 0")
      [ same "0"; same "-1"; same "nan"; ("infinity", "inf") ]
  (* an earlier shock has no window sample to average before it *)
  @ [
      ( "responsiveness",
        [ "shock_at=1"; "relief_at=2"; "duration=3" ],
        "responsiveness: shock_at = 1 must be at least 2: the pre-shock \
         share averages the window samples over [shock_at / 2, shock_at], \
         and sampling starts at 1 s" );
    ]

let suite =
  suite
  @ List.map
      (fun (scenario, params, expect) ->
        Alcotest.test_case
          (Printf.sprintf "rejects: %s %s" scenario (String.concat " " params))
          `Quick
          (rejects scenario params expect))
      rejected
