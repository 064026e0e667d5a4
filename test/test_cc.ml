open Mptcp_repro.Cc

let check_close eps = Alcotest.(check (float eps))

let view cwnd rtt = { Types.cwnd; rtt }

(* --- Reno ----------------------------------------------------------- *)

let test_reno_increase () =
  let cc = Reno.create () in
  let views = [| view 10. 0.1 |] in
  check_close 1e-12 "1/w" 0.1 (cc.Types.increase ~views ~idx:0)

let test_reno_halves () =
  let cc = Reno.create () in
  let views = [| view 10. 0.1 |] in
  check_close 1e-12 "w/2" 5. (cc.Types.loss_decrease ~views ~idx:0)

let test_reno_independent_subflows () =
  let cc = Reno.create () in
  let views = [| view 10. 0.1; view 100. 0.1 |] in
  check_close 1e-12 "only own window matters" 0.1
    (cc.Types.increase ~views ~idx:0)

let test_reno_keeps_slow_start () =
  let cc = Reno.create () in
  Alcotest.(check bool) "no multipath ssthresh clamp" true
    (cc.Types.multipath_initial_ssthresh = None)

(* --- LIA (Eq. 1) ----------------------------------------------------- *)

let test_lia_equal_paths () =
  (* two equal paths, equal rtt: coupled term = (w/r²)/(2w/r)² = 1/(4w) *)
  let views = [| view 10. 0.1; view 10. 0.1 |] in
  check_close 1e-12 "coupled" (1. /. 40.) (Lia.increase_formula views 0)

let test_lia_capped_by_own_window () =
  (* a tiny own window makes 1/w_r the binding term *)
  let views = [| view 1.; view 100. |] in
  ignore views;
  let views = [| view 1. 0.1; view 1. 0.1 |] in
  (* coupled term = (10)/(20)² = ... with w=1: (1/0.01)/(1/0.1+1/0.1)² =
     100/400 = 0.25 < 1/w = 1 -> coupled wins *)
  check_close 1e-12 "coupled smaller" 0.25 (Lia.increase_formula views 0);
  let views = [| view 0.5 0.1; view 0.5 0.1 |] in
  (* coupled = 50/100 = 0.5; own cap = 1/0.5 = 2 -> still coupled *)
  check_close 1e-12 "coupled" 0.5 (Lia.increase_formula views 0)

let test_lia_cap_applies () =
  (* a high-quality low-rtt sibling path can push the coupled term above
     1/w on the large-window path; the min of Eq. 1 must bind *)
  let views = [| view 1. 0.001; view 100. 1. |] in
  let coupled =
    let num = 1. /. (0.001 ** 2.) in
    let denom = (1. /. 0.001) +. (100. /. 1.) in
    num /. (denom *. denom)
  in
  Alcotest.(check bool) "sanity: coupled > 1/w on path 1" true
    (coupled > 1. /. 100.);
  check_close 1e-9 "cap 1/w" (1. /. 100.) (Lia.increase_formula views 1)

let test_lia_rtt_compensation () =
  (* lower-rtt path gets relatively larger increase in the coupled term *)
  let views = [| view 10. 0.05; view 10. 0.2 |] in
  let i0 = Lia.increase_formula views 0 and i1 = Lia.increase_formula views 1 in
  Alcotest.(check bool) "same coupled increase for both" true (i0 = i1)

let test_lia_aggressiveness_bounded_by_tcp () =
  (* goal 2: never more aggressive than TCP on any path *)
  let views = [| view 3. 0.1; view 7. 0.15; view 2. 0.3 |] in
  let cc = Lia.create () in
  Array.iteri
    (fun idx v ->
      Alcotest.(check bool) "<= 1/w" true
        (cc.Types.increase ~views ~idx <= (1. /. v.Types.cwnd) +. 1e-12))
    views

let prop_lia_increase_positive_and_bounded =
  QCheck.Test.make ~name:"lia: increase in (0, 1/w]" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 5)
        (pair (float_range 1. 100.) (float_range 0.01 1.)))
    (fun specs ->
      let views = Array.of_list (List.map (fun (w, r) -> view w r) specs) in
      let ok = ref true in
      Array.iteri
        (fun idx v ->
          let i = Lia.increase_formula views idx in
          if not (i > 0. && i <= (1. /. v.Types.cwnd) +. 1e-9) then ok := false)
        views;
      !ok)

(* --- OLIA (Eqs. 5-6) -------------------------------------------------- *)

let test_olia_single_path_is_reno () =
  let cc = Olia.create () in
  let views = [| view 8. 0.1 |] in
  check_close 1e-12 "1/w" 0.125 (cc.Types.increase ~views ~idx:0)

let test_olia_equal_paths_kelly_term () =
  (* equal windows and rtts: alpha = 0, increase = (w/r²)/(2w/r)² *)
  let cc = Olia.create () in
  let views = [| view 10. 0.1; view 10. 0.1 |] in
  check_close 1e-12 "kelly term" (1. /. 40.) (cc.Types.increase ~views ~idx:0)

let test_olia_ssthresh_clamp () =
  let cc = Olia.create () in
  Alcotest.(check bool) "1 MSS" true
    (cc.Types.multipath_initial_ssthresh = Some 1.)

let test_olia_alpha_redistributes () =
  (* path 0: big window, worse quality; path 1: small window, best ell.
     alpha must be negative on 0 and positive on 1 (Eq. 6). *)
  let ell = [| 10.; 1000. |] in
  let views = [| view 20. 0.1; view 2. 0.1 |] in
  let alpha = Olia.alpha_values ~ell views in
  check_close 1e-12 "sum zero" 0. (alpha.(0) +. alpha.(1));
  check_close 1e-12 "alpha best" 0.5 alpha.(1);
  check_close 1e-12 "alpha max-window" (-0.5) alpha.(0)

let test_olia_alpha_zero_when_aligned () =
  (* best path also has the max window: B \ M = empty, all alphas 0 *)
  let ell = [| 1000.; 10. |] in
  let views = [| view 20. 0.1; view 2. 0.1 |] in
  let alpha = Olia.alpha_values ~ell views in
  check_close 1e-12 "a0" 0. alpha.(0);
  check_close 1e-12 "a1" 0. alpha.(1)

let test_olia_alpha_three_paths () =
  (* |Ru| = 3: positive alpha is (1/3)/|B\M| *)
  let ell = [| 10.; 900.; 900. |] in
  let views = [| view 20. 0.1; view 2. 0.1; view 2. 0.1 |] in
  let alpha = Olia.alpha_values ~ell views in
  check_close 1e-12 "split between two best" (1. /. 6.) alpha.(1);
  check_close 1e-12 "split between two best" (1. /. 6.) alpha.(2);
  check_close 1e-12 "minus on max" (-1. /. 3.) alpha.(0)

let test_olia_ell_counters () =
  let cc, probe = Olia.create_instrumented () in
  cc.Types.on_ack ~idx:0 ~acked:10;
  cc.Types.on_ack ~idx:0 ~acked:5;
  let p = probe 1 in
  check_close 1e-12 "ell2 accumulates" 15. p.Olia.ell.(0);
  cc.Types.on_loss ~idx:0;
  let p = probe 1 in
  (* after a loss, ell1 holds the previous count and ell2 restarts *)
  check_close 1e-12 "ell = max(ell1, ell2)" 15. p.Olia.ell.(0);
  cc.Types.on_ack ~idx:0 ~acked:30;
  let p = probe 1 in
  check_close 1e-12 "ell2 can exceed ell1" 30. p.Olia.ell.(0)

let test_olia_negative_increase_possible () =
  (* on a max-window path with a better path elsewhere, Eq. 5 can shrink
     the window: kelly term + alpha/w < 0 *)
  let cc, _ = Olia.create_instrumented () in
  (* build ell state: path 1 presumably best *)
  cc.Types.on_ack ~idx:0 ~acked:10;
  cc.Types.on_ack ~idx:1 ~acked:1000;
  (* w0 = 3, w1 = 2: kelly = 3/25 = 0.12, alpha/w = -0.5/3 ≈ -0.167 *)
  let views = [| view 3. 0.1; view 2. 0.1 |] in
  let inc = cc.Types.increase ~views ~idx:0 in
  Alcotest.(check bool) "negative" true (inc < 0.)

let test_olia_halves_on_loss () =
  let cc = Olia.create () in
  let views = [| view 12. 0.1; view 4. 0.1 |] in
  check_close 1e-12 "w/2" 6. (cc.Types.loss_decrease ~views ~idx:0)

let prop_olia_alpha_sums_to_zero =
  QCheck.Test.make ~name:"olia: alpha always sums to zero" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 2 6)
        (triple (float_range 1. 50.) (float_range 0.01 0.5)
           (float_range 1. 1e4)))
    (fun specs ->
      let views =
        Array.of_list (List.map (fun (w, r, _) -> view w r) specs)
      in
      let ell = Array.of_list (List.map (fun (_, _, e) -> e) specs) in
      let alpha = Olia.alpha_values ~ell views in
      abs_float (Array.fold_left ( +. ) 0. alpha) < 1e-9)

let prop_olia_alpha_nonnegative_off_m =
  QCheck.Test.make ~name:"olia: alpha negative only on max-window paths"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 2 6)
        (triple (float_range 1. 50.) (float_range 0.01 0.5)
           (float_range 1. 1e4)))
    (fun specs ->
      let views =
        Array.of_list (List.map (fun (w, r, _) -> view w r) specs)
      in
      let ell = Array.of_list (List.map (fun (_, _, e) -> e) specs) in
      let alpha = Olia.alpha_values ~ell views in
      let wmax =
        Array.fold_left (fun a v -> Stdlib.max a v.Types.cwnd) 0. views
      in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          if a < -1e-12 && views.(i).Types.cwnd < wmax *. (1. -. 1e-6) then
            ok := false)
        alpha;
      !ok)

(* --- Coupled family --------------------------------------------------- *)

let test_coupled_eps2_is_reno () =
  let cc = Coupled.create ~epsilon:2. in
  let views = [| view 10. 0.1; view 5. 0.1 |] in
  check_close 1e-12 "1/w" 0.1 (cc.Types.increase ~views ~idx:0)

let test_coupled_eps0_kelly () =
  (* epsilon 0: w_r / (sum w)² *)
  let cc = Coupled.create ~epsilon:0. in
  let views = [| view 10. 0.1; view 10. 0.1 |] in
  check_close 1e-12 "w/(sum)²" (10. /. 400.) (cc.Types.increase ~views ~idx:0)

let test_coupled_eps1_semicoupled () =
  let cc = Coupled.create ~epsilon:1. in
  let views = [| view 10. 0.1; view 30. 0.1 |] in
  check_close 1e-12 "1/sum" (1. /. 40.) (cc.Types.increase ~views ~idx:0)

let test_coupled_rejects_bad_eps () =
  Alcotest.check_raises "eps 3"
    (Invalid_argument "Coupled.create: epsilon must be in [0, 2]") (fun () ->
      ignore (Coupled.create ~epsilon:3.))

(* --- BALIA ------------------------------------------------------------ *)

let test_balia_symmetric_matches_structure () =
  (* equal paths: alpha_r = 1, increase = x/(rtt·(2x)²)·1·1 = 1/(4·w·... ) *)
  let cc = Balia.create () in
  let views = [| view 10. 0.1; view 10. 0.1 |] in
  (* x = 100; increase = (100/0.1)/(200²)·(1)·(1) = 1000/40000 = 0.025 *)
  check_close 1e-12 "symmetric" 0.025 (cc.Types.increase ~views ~idx:0)

let test_balia_loss_decrease_bounded () =
  let cc = Balia.create () in
  (* very asymmetric: alpha large, decrease capped at 1.5·w/2 *)
  let views = [| view 2. 0.1; view 50. 0.1 |] in
  check_close 1e-12 "capped" (2. /. 2. *. 1.5)
    (cc.Types.loss_decrease ~views ~idx:0);
  (* best path: alpha = 1, plain halving *)
  check_close 1e-12 "halving on best" 25.
    (cc.Types.loss_decrease ~views ~idx:1)

(* --- Registry ---------------------------------------------------------- *)

let test_registry_known () =
  List.iter
    (fun name ->
      let cc = Registry.create name in
      Alcotest.(check string) "name round trip" name cc.Types.name)
    [ "reno"; "lia"; "olia"; "olia-fp"; "balia"; "balia-fp" ]

let test_registry_coupled () =
  let cc = Registry.create "coupled:0.5" in
  Alcotest.(check string) "name" "coupled(eps=0.5)" cc.Types.name

let test_registry_unknown () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Registry.create: unknown algorithm nope") (fun () ->
      ignore (Registry.create "nope"));
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Registry.create: bad epsilon in coupled:x") (fun () ->
      ignore (Registry.create "coupled:x"))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "reno: 1/w increase" `Quick test_reno_increase;
    Alcotest.test_case "reno: halves on loss" `Quick test_reno_halves;
    Alcotest.test_case "reno: subflow independence" `Quick
      test_reno_independent_subflows;
    Alcotest.test_case "reno: regular slow start" `Quick
      test_reno_keeps_slow_start;
    Alcotest.test_case "lia: equal paths" `Quick test_lia_equal_paths;
    Alcotest.test_case "lia: coupled term" `Quick test_lia_capped_by_own_window;
    Alcotest.test_case "lia: 1/w cap applies" `Quick test_lia_cap_applies;
    Alcotest.test_case "lia: rtt compensation" `Quick test_lia_rtt_compensation;
    Alcotest.test_case "lia: goal 2 (never beats TCP)" `Quick
      test_lia_aggressiveness_bounded_by_tcp;
    q prop_lia_increase_positive_and_bounded;
    Alcotest.test_case "olia: single path degrades to reno" `Quick
      test_olia_single_path_is_reno;
    Alcotest.test_case "olia: kelly term on ties" `Quick
      test_olia_equal_paths_kelly_term;
    Alcotest.test_case "olia: multipath ssthresh = 1" `Quick
      test_olia_ssthresh_clamp;
    Alcotest.test_case "olia: alpha redistributes (Eq. 6)" `Quick
      test_olia_alpha_redistributes;
    Alcotest.test_case "olia: alpha zero when aligned" `Quick
      test_olia_alpha_zero_when_aligned;
    Alcotest.test_case "olia: alpha three paths" `Quick
      test_olia_alpha_three_paths;
    Alcotest.test_case "olia: inter-loss counters" `Quick test_olia_ell_counters;
    Alcotest.test_case "olia: negative increase on crowded path" `Quick
      test_olia_negative_increase_possible;
    Alcotest.test_case "olia: unmodified TCP decrease" `Quick
      test_olia_halves_on_loss;
    q prop_olia_alpha_sums_to_zero;
    q prop_olia_alpha_nonnegative_off_m;
    Alcotest.test_case "coupled: eps=2 is reno" `Quick test_coupled_eps2_is_reno;
    Alcotest.test_case "coupled: eps=0 is kelly" `Quick test_coupled_eps0_kelly;
    Alcotest.test_case "coupled: eps=1 semicoupled" `Quick
      test_coupled_eps1_semicoupled;
    Alcotest.test_case "coupled: rejects bad eps" `Quick
      test_coupled_rejects_bad_eps;
    Alcotest.test_case "balia: symmetric increase" `Quick
      test_balia_symmetric_matches_structure;
    Alcotest.test_case "balia: loss decrease capped" `Quick
      test_balia_loss_decrease_bounded;
    Alcotest.test_case "registry: known names" `Quick test_registry_known;
    Alcotest.test_case "registry: coupled parsing" `Quick test_registry_coupled;
    Alcotest.test_case "registry: errors" `Quick test_registry_unknown;
  ]
