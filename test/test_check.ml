(* Tests of the differential conformance harness (lib/check): tolerance
   bands, the fault-injection gate, the sim-vs-fluid case registry, the
   fluid residual invariants and the golden-trace comparator. *)

open Mptcp_repro.Netsim
module Ck = Mptcp_repro.Check
module F = Mptcp_repro.Fluid
module Invariant = Mptcp_repro.Stats.Invariant
module Json = Mptcp_repro.Stats.Json
module Trace = Mptcp_repro.Obs.Trace

(* --- bands -------------------------------------------------------------- *)

let test_band_around () =
  let b =
    Ck.Band.around ~id:"t" ~metric:"m" ~rtol:0.1 ~atol:0.05 ~source:"s" 10.
  in
  Test_common.close "lo" 8.95 b.Ck.Band.lo;
  Test_common.close "hi" 11.05 b.Ck.Band.hi;
  Alcotest.(check bool) "inside" true (Ck.Band.check b 9.).Ck.Band.pass;
  Alcotest.(check bool) "edge lo" true (Ck.Band.check b 8.95).Ck.Band.pass;
  Alcotest.(check bool) "below" false (Ck.Band.check b 8.9).Ck.Band.pass;
  Alcotest.(check bool) "above" false (Ck.Band.check b 11.1).Ck.Band.pass;
  Alcotest.(check bool) "nan fails" false
    (Ck.Band.check b Float.nan).Ck.Band.pass;
  Alcotest.(check bool) "inf fails" false
    (Ck.Band.check b infinity).Ck.Band.pass

let test_band_validation () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Band t: zero-width band") (fun () ->
      ignore (Ck.Band.around ~id:"t" ~metric:"m" ~source:"s" 10.));
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Band t: empty interval [2, 1]") (fun () ->
      ignore
        (Ck.Band.within ~id:"t" ~metric:"m" ~source:"s" ~expected:1.5 ~lo:2.
           ~hi:1.));
  Alcotest.check_raises "loss needs positive expectation"
    (Invalid_argument "Band t: loss expectation must be > 0") (fun () ->
      ignore (Ck.Band.loss ~id:"t" ~metric:"m" ~source:"s" 0.))

let test_band_loss_multiplicative () =
  let b = Ck.Band.loss ~id:"t" ~metric:"p" ~source:"s" 0.01 in
  Alcotest.(check bool) "third passes" true
    (Ck.Band.check b (0.01 /. 3.)).Ck.Band.pass;
  Alcotest.(check bool) "triple passes" true
    (Ck.Band.check b 0.03).Ck.Band.pass;
  Alcotest.(check bool) "quadruple fails" false
    (Ck.Band.check b 0.04).Ck.Band.pass

(* --- the fault gate ----------------------------------------------------- *)

let drain_route hops =
  let delivered = ref 0 in
  let sink (_ : Packet.t) = incr delivered in
  (Array.append hops [| sink |], delivered)

let test_fault_down_drops_everything () =
  let sim = Sim.create () in
  let gate = Fault.create ~sim ~rng:(Rng.create ~seed:1) () in
  let route, delivered = drain_route [| Fault.hop gate |] in
  Fault.set_mode gate Fault.Down;
  Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route);
  Packet.forward (Packet.ack ~flow:0 ~subflow:0 ~ackno:0 ~echo:0. ~sack_lo:0 ~sack_hi:0 ~route ~sent_at:0.);
  Sim.run sim;
  Alcotest.(check int) "nothing through" 0 !delivered;
  Alcotest.(check int) "both dropped" 2 (Fault.dropped gate);
  Alcotest.(check bool) "is_down" true (Fault.is_down gate)

let test_fault_burst_spares_acks () =
  let sim = Sim.create () in
  let gate = Fault.create ~sim ~rng:(Rng.create ~seed:1) () in
  let route, delivered = drain_route [| Fault.hop gate |] in
  Fault.set_mode gate (Fault.Burst { loss_prob = 0.5 });
  for i = 0 to 199 do
    Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route)
  done;
  let data_through = !delivered in
  for i = 0 to 49 do
    Packet.forward (Packet.ack ~flow:0 ~subflow:0 ~ackno:i ~echo:0. ~sack_lo:0 ~sack_hi:0 ~route ~sent_at:0.)
  done;
  Sim.run sim;
  Alcotest.(check bool) "some data dropped" true (Fault.dropped gate > 0);
  Alcotest.(check bool) "some data passed" true (data_through > 0);
  Alcotest.(check int) "all acks pass" (data_through + 50) !delivered

let test_fault_schedule_validation () =
  let sim = Sim.create () in
  let gate = Fault.create ~sim ~rng:(Rng.create ~seed:1) () in
  Alcotest.(check bool) "starts up" false (Fault.is_down gate);
  Alcotest.check_raises "flap order"
    (Invalid_argument "Fault.schedule_flap: up_at <= down_at") (fun () ->
      Fault.schedule_flap gate ~down_at:5. ~up_at:5.);
  Alcotest.check_raises "burst prob"
    (Invalid_argument "Fault.set_mode: burst loss_prob must be in [0, 1)")
    (fun () -> Fault.set_mode gate (Fault.Burst { loss_prob = 1. }))

(* Every range check fails on NaN: a NaN loss probability used to pass
   as zero ([Rng.float < nan] never drops). *)
let fault_rejects_nan (what, mode, expect) =
  Alcotest.test_case ("fault: NaN " ^ what ^ " rejected") `Quick (fun () ->
      let sim = Sim.create () in
      let gate = Fault.create ~sim ~rng:(Rng.create ~seed:1) () in
      Alcotest.check_raises what (Invalid_argument expect) (fun () ->
          Fault.set_mode gate mode))

let fault_nan_cases =
  List.map fault_rejects_nan
    [
      ( "burst loss_prob",
        Fault.Burst { loss_prob = Float.nan },
        "Fault.set_mode: burst loss_prob must be in [0, 1)" );
      ( "reorder prob",
        Fault.Reorder { prob = Float.nan; extra_delay = 0.5 },
        "Fault.set_mode: reorder prob must be in [0, 1]" );
      ( "reorder extra_delay",
        Fault.Reorder { prob = 0.5; extra_delay = Float.nan },
        "Fault.set_mode: reorder extra_delay must be positive" );
    ]

(* A burst drop is a random loss and an outage drop a dead link: the
   trace names each with its own cause. *)
let test_fault_traces_drop_causes () =
  let gate, events =
    Trace.capture ~capacity:1024 (fun () ->
        let sim = Sim.create () in
        let gate = Fault.create ~sim ~rng:(Rng.create ~seed:1) () in
        let route, _ = drain_route [| Fault.hop gate |] in
        let send seq =
          Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq ~sent_at:0. ~route)
        in
        Fault.set_mode gate (Fault.Burst { loss_prob = 0.5 });
        for seq = 0 to 99 do
          send seq
        done;
        Fault.set_mode gate Fault.Down;
        send 100;
        gate)
  in
  let drops =
    List.filter_map
      (function
        | Trace.Pkt_drop { seq; cause; _ } -> Some (seq, cause) | _ -> None)
      events
  in
  Alcotest.(check int) "one record per drop" (Fault.dropped gate)
    (List.length drops);
  Alcotest.(check bool) "some burst drops" true (List.length drops > 1);
  List.iter
    (fun (seq, cause) ->
      if seq = 100 then
        Alcotest.(check bool) "outage drop is link_down" true
          (cause = Trace.Link_down)
      else
        Alcotest.(check bool)
          (Printf.sprintf "burst drop of seq %d is random_loss" seq)
          true
          (cause = Trace.Random_loss))
    drops

let test_fault_reorder_delivers_late () =
  let sim = Sim.create () in
  let gate = Fault.create ~sim ~rng:(Rng.create ~seed:3) () in
  let route, delivered = drain_route [| Fault.hop gate |] in
  Fault.set_mode gate (Fault.Reorder { prob = 1.; extra_delay = 0.5 });
  Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route);
  Alcotest.(check int) "held back" 0 !delivered;
  Sim.run sim;
  Alcotest.(check int) "delivered late" 1 !delivered;
  Alcotest.(check int) "counted" 1 (Fault.reordered gate);
  Test_common.close "clock advanced" 0.5 (Sim.now sim)

(* --- conformance cases -------------------------------------------------- *)

(* The full registry (9 packet simulations of 120 s each) runs under the
   CI conformance job via [olia_sim check]; here we exercise the fast
   cases end to end and the machinery around them. *)

let test_fluid_cross_cases_pass () =
  let report = Ck.Conformance.run_all ~only:"fluid/" () in
  Alcotest.(check int) "two cases" 2
    (List.length report.Ck.Conformance.cases);
  Alcotest.(check bool) "closed forms agree with the solver" true
    report.Ck.Conformance.pass

let test_fault_cases_pass () =
  let report = Ck.Conformance.run_all ~only:"fault/" () in
  Alcotest.(check int) "three cases" 3
    (List.length report.Ck.Conformance.cases);
  Alcotest.(check bool) "recovery within bands" true
    report.Ck.Conformance.pass

let test_report_deterministic () =
  let render () =
    Json.to_string
      (Ck.Conformance.report_to_json (Ck.Conformance.run_all ~only:"fault/" ()))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical reports" a b

let test_missing_metric_fails () =
  let case =
    {
      Ck.Conformance.name = "synthetic";
      doc = "a band over a metric the run does not produce";
      bands =
        [ Ck.Band.around ~id:"x" ~metric:"absent" ~rtol:0.1 ~source:"s" 1. ];
      run = (fun () -> [ ("present", 1.) ]);
    }
  in
  let r = Ck.Conformance.run_case case in
  Alcotest.(check bool) "case fails" false r.Ck.Conformance.pass

let test_report_json_shape () =
  let report = Ck.Conformance.run_all ~only:"fluid/a-lia" () in
  match Ck.Conformance.report_to_json report with
  | Json.Obj fields ->
      Alcotest.(check bool) "pass field" true
        (List.mem_assoc "pass" fields && List.mem_assoc "cases" fields);
      Alcotest.(check bool) "band counts" true
        (List.assoc "bands_total" fields = Json.Int 2
        && List.assoc "bands_failed" fields = Json.Int 0)
  | _ -> Alcotest.fail "report must be a JSON object"

(* --- differential conformance (float vs fixed-point) -------------------- *)

(* The diff/ cases are ordinary conformance cases: the suite runs the
   same 60 s scenarios and bands as [olia_sim check], plus the
   simulator-free lockstep driver on its own. *)

let diff_cases_pass ~only ~cases =
  let report = Ck.Conformance.run_all ~only () in
  Alcotest.(check int) (only ^ ": cases") cases
    (List.length report.Ck.Conformance.cases);
  List.iter
    (fun (cr : Ck.Conformance.case_report) ->
      List.iter
        (fun (r : Ck.Band.result) ->
          if not r.Ck.Band.pass then
            Alcotest.failf "%s/%s: deviation %g outside [%g, %g]" cr.case
              r.band.Ck.Band.metric r.actual r.band.Ck.Band.lo
              r.band.Ck.Band.hi)
        cr.results;
      (* the report carries both backends' values beside the deviation *)
      List.iter
        (fun (b : Ck.Band.result) ->
          match String.split_on_char '.' b.band.Ck.Band.metric with
          | [ m; "rel_dev" ] ->
            List.iter
              (fun side ->
                if not (List.mem_assoc (m ^ "." ^ side) cr.metrics) then
                  Alcotest.failf "%s: no %s.%s metric" cr.case m side)
              [ "float"; "fixed" ]
          | _ -> ())
        cr.results)
    report.Ck.Conformance.cases;
  Alcotest.(check bool) (only ^ ": within bands") true
    report.Ck.Conformance.pass

let test_diff_scenario_cases_pass () = diff_cases_pass ~only:"diff/a" ~cases:2

let test_diff_scenario_bc_cases_pass () =
  diff_cases_pass ~only:"diff/b" ~cases:2;
  diff_cases_pass ~only:"diff/c" ~cases:2

let test_diff_lockstep_bounded () =
  List.iter
    (fun (float_algo, fixed_algo) ->
      let r = Ck.Diff.lockstep ~float_algo ~fixed_algo in
      Alcotest.(check bool)
        (fixed_algo ^ ": cwnd trajectories stay close") true
        (r.Ck.Diff.max_rel_divergence < 0.25);
      Array.iteri
        (fun i wf ->
          let wi = r.Ck.Diff.final_fixed.(i) in
          let dev = abs_float (wf -. wi) /. Stdlib.max wf 1. in
          if dev > 0.25 then
            Alcotest.failf "%s sf%d: final cwnd %g vs %g" fixed_algo i wf wi)
        r.Ck.Diff.final_float)
    [ ("olia", "olia-fp"); ("balia", "balia-fp") ]

let test_diff_lockstep_cases_pass () =
  diff_cases_pass ~only:"diff/lockstep" ~cases:2

let test_diff_report_deterministic () =
  let render () =
    Json.to_string
      (Ck.Conformance.report_to_json
         (Ck.Conformance.run_all ~only:"diff/lockstep" ()))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical diff reports" a b

let test_diff_provenance_present () =
  let diff =
    List.filter
      (fun (c : Ck.Conformance.case) ->
        String.starts_with ~prefix:"diff/" c.name)
      (Ck.Conformance.cases ())
  in
  Alcotest.(check int) "six scenario and two lockstep cases" 8
    (List.length diff);
  List.iter
    (fun (c : Ck.Conformance.case) ->
      Alcotest.(check bool) (c.name ^ ": has bands") true (c.bands <> []);
      List.iter
        (fun (b : Ck.Band.t) ->
          Alcotest.(check bool)
            (b.Ck.Band.id ^ ": cites the kernel source")
            true
            (String.starts_with ~prefix:"net/mptcp/mptcp_" b.Ck.Band.source))
        c.bands)
    diff

(* --- fluid residual invariants ------------------------------------------ *)

let with_fluid_invariants f =
  let was = Invariant.enabled () in
  Invariant.set_enabled true;
  Fun.protect ~finally:(fun () -> Invariant.set_enabled was) f

let small_net () =
  {
    F.Network_model.links = [| F.Network_model.link 100. |];
    users =
      [|
        { F.Network_model.routes = [| { F.Network_model.links = [| 0 |]; rtt = 0.1 } |] };
      |];
  }

let test_armed_solve_passes () =
  with_fluid_invariants (fun () ->
      let x = F.Equilibrium.solve (small_net ()) F.Equilibrium.Uncoupled in
      Alcotest.(check bool) "positive rate" true (x.(0).(0) > 0.))

let test_misconverged_point_trips () =
  with_fluid_invariants (fun () ->
      let net = small_net () in
      let x = F.Equilibrium.solve net F.Equilibrium.Uncoupled in
      (* a deliberately mis-converged allocation: double the rate *)
      let bad = [| [| 2. *. x.(0).(0) |] |] in
      let trips =
        try
          F.Equilibrium.check_fixed_point net F.Equilibrium.Uncoupled bad;
          false
        with Invariant.Violation _ -> true
      in
      Alcotest.(check bool) "perturbed point trips the invariant" true trips;
      Alcotest.(check bool) "residual is large" true
        (F.Equilibrium.residual net F.Equilibrium.Uncoupled bad > 0.1))

let test_dormant_invariants_stay_quiet () =
  let was = Invariant.enabled () in
  Invariant.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled was)
    (fun () ->
      let net = small_net () in
      let bad = [| [| 1e6 |] |] in
      F.Equilibrium.check_fixed_point net F.Equilibrium.Uncoupled bad)

(* --- golden traces ------------------------------------------------------ *)

(* dune copies test/golden/*.jsonl next to the test binary. *)
let golden_dir = "golden"

(* Compares every named golden before failing, so a change that moves
   several of them names each one, as [olia_sim check] does. *)
let check_goldens names =
  match
    List.filter_map
      (fun name ->
        match Ck.Golden.check ~dir:golden_dir name with
        | Ok () -> None
        | Error e -> Some (Printf.sprintf "FAIL golden/%s\n  %s" name e))
      names
  with
  | [] -> ()
  | failures ->
    Alcotest.failf "%d of %d goldens differ:\n%s" (List.length failures)
      (List.length names)
      (String.concat "\n" failures)

let goldens prefix = List.filter (String.starts_with ~prefix) Ck.Golden.names

let test_golden_all_match () =
  check_goldens
    [ "reno-droptail"; "olia-two-path"; "olia-fp-two-path"; "fault-flap" ]

let test_golden_detects_divergence () =
  (* re-record one golden trace into a temp dir, flip a semantic field,
     and make sure the comparator reports the divergence *)
  let dir = Filename.temp_file "golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Ck.Golden.update ~dir "reno-droptail";
  let file = Filename.concat dir "reno-droptail.jsonl" in
  let ic = open_in file in
  let lines =
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | l -> go (l :: acc)
    in
    go []
  in
  close_in ic;
  (* dropping a semantic event must be reported as a divergence *)
  let mutated = List.filteri (fun i _ -> i <> 1) lines in
  let oc = open_out file in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    mutated;
  close_out oc;
  (match Ck.Golden.check ~dir "reno-droptail" with
  | Ok () -> Alcotest.fail "mutation must be detected"
  | Error e ->
      Alcotest.(check bool) "diagnostic names the divergence" true
        (String.length e > 0));
  Sys.remove file;
  Unix.rmdir dir

let test_golden_unknown_name () =
  Alcotest.(check bool) "unknown name rejected" true
    (try
       ignore (Ck.Golden.record "no-such-scenario");
       false
     with Invalid_argument _ -> true)

(* --- golden reports ----------------------------------------------------- *)

let test_golden_report_matches () = check_goldens (goldens "report-")

let test_golden_report_semantic_compare () =
  (* re-record the golden report into a temp dir; reformatting the file
     must stay invisible to the comparator (it is semantic), while a
     value change must be reported *)
  let dir = Filename.temp_file "golden_report" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let name = "report-scen-b" in
  Ck.Golden.update ~dir name;
  let file = Filename.concat dir (name ^ ".json") in
  let original = In_channel.with_open_text file In_channel.input_all in
  let write s = Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc s)
  in
  write ("\n  " ^ String.trim original ^ "\n\n");
  (match Ck.Golden.check ~dir name with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("reformatting must not register: " ^ e));
  let needle = {|"enqueued":|} in
  let i =
    match String.index_opt original '{' with
    | None -> Alcotest.fail "report is not an object"
    | Some _ ->
      let rec find i =
        if i + String.length needle > String.length original then
          Alcotest.fail "report has no enqueued field"
        else if String.sub original i (String.length needle) = needle then i
        else find (i + 1)
      in
      find 0
  in
  let j = i + String.length needle in
  write (String.sub original 0 j ^ "9" ^
         String.sub original j (String.length original - j));
  (match Ck.Golden.check ~dir name with
  | Ok () -> Alcotest.fail "value change must be detected"
  | Error e ->
    Alcotest.(check bool) "diagnostic pinpoints the divergence" true
      (String.length e > 0));
  Sys.remove file;
  Unix.rmdir dir

let test_golden_report_unknown_name () =
  Alcotest.(check bool) "unknown report rejected" true
    (try
       ignore (Ck.Golden.check ~dir:golden_dir "report-no-such");
       false
     with Invalid_argument _ -> true)

(* --- golden outcomes ---------------------------------------------------- *)

let test_golden_outcomes_match () = check_goldens (goldens "outcomes/")

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_golden_outcome_ulp_named () =
  (* re-record one outcome into a temp dir and move one metric by one
     ulp: the comparison must fail and name the field and its largest
     absolute difference *)
  let dir = Filename.temp_file "golden_outcome" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let name = "outcomes/scenario-b" in
  Ck.Golden.update ~dir name;
  let file = Filename.concat dir (name ^ ".json") in
  let doc =
    match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let field = "px" in
  let before = ref 0. in
  let bump = function
    | Json.Float v ->
      before := v;
      Json.Float (Float.succ v)
    | j -> j
  in
  let rec mutate = function
    | Json.Obj kv ->
      Json.Obj
        (List.map (fun (k, v) -> (k, if k = field then bump v else mutate v)) kv)
    | j -> j
  in
  Json.write ~path:file (mutate doc);
  (match Ck.Golden.check ~dir name with
  | Ok () -> Alcotest.fail "a one-ulp change must be detected"
  | Error e ->
    let diff = Printf.sprintf "%.6g" (Float.succ !before -. !before) in
    Alcotest.(check bool)
      (Printf.sprintf "names %s and max |diff| %s: %s" field diff e)
      true
      (contains e (field ^ ": 1 of 1 value(s), max |diff| " ^ diff)));
  Sys.remove file;
  Unix.rmdir (Filename.concat dir "outcomes");
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "band: around and edges" `Quick test_band_around;
    Alcotest.test_case "band: validation" `Quick test_band_validation;
    Alcotest.test_case "band: loss is multiplicative" `Quick
      test_band_loss_multiplicative;
    Alcotest.test_case "fault: down drops data and acks" `Quick
      test_fault_down_drops_everything;
    Alcotest.test_case "fault: burst spares acks" `Quick
      test_fault_burst_spares_acks;
    Alcotest.test_case "fault: schedule validation" `Quick
      test_fault_schedule_validation;
    Alcotest.test_case "fault: reorder delivers late" `Quick
      test_fault_reorder_delivers_late;
    Alcotest.test_case "fault: drop causes traced" `Quick
      test_fault_traces_drop_causes;
    Alcotest.test_case "conformance: fluid cross-validation" `Quick
      test_fluid_cross_cases_pass;
    Alcotest.test_case "conformance: fault recovery" `Slow
      test_fault_cases_pass;
    Alcotest.test_case "conformance: deterministic report" `Slow
      test_report_deterministic;
    Alcotest.test_case "conformance: missing metric fails" `Quick
      test_missing_metric_fails;
    Alcotest.test_case "conformance: report JSON shape" `Quick
      test_report_json_shape;
    Alcotest.test_case "diff: scenario A float vs fixed" `Slow
      test_diff_scenario_cases_pass;
    Alcotest.test_case "diff: scenarios B and C float vs fixed" `Slow
      test_diff_scenario_bc_cases_pass;
    Alcotest.test_case "diff: lockstep cwnd divergence bounded" `Quick
      test_diff_lockstep_bounded;
    Alcotest.test_case "diff: lockstep cases pass" `Quick
      test_diff_lockstep_cases_pass;
    Alcotest.test_case "diff: deterministic report" `Quick
      test_diff_report_deterministic;
    Alcotest.test_case "diff: kernel provenance present" `Quick
      test_diff_provenance_present;
    Alcotest.test_case "equilibrium: armed solve passes" `Quick
      test_armed_solve_passes;
    Alcotest.test_case "equilibrium: mis-converged point trips" `Quick
      test_misconverged_point_trips;
    Alcotest.test_case "equilibrium: dormant invariants quiet" `Quick
      test_dormant_invariants_stay_quiet;
    Alcotest.test_case "golden: canonical traces match" `Slow
      test_golden_all_match;
    Alcotest.test_case "golden: divergence detected" `Quick
      test_golden_detects_divergence;
    Alcotest.test_case "golden: unknown name" `Quick test_golden_unknown_name;
    Alcotest.test_case "golden: report matches" `Slow
      test_golden_report_matches;
    Alcotest.test_case "golden: report compare is semantic" `Slow
      test_golden_report_semantic_compare;
    Alcotest.test_case "golden: unknown report name" `Quick
      test_golden_report_unknown_name;
    Alcotest.test_case "golden: registry outcomes match" `Quick
      test_golden_outcomes_match;
    Alcotest.test_case "golden: outcome ulp change named" `Quick
      test_golden_outcome_ulp_named;
  ]
  @ fault_nan_cases
