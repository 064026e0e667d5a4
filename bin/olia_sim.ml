(* olia_sim: command-line front end for the OLIA reproduction.

   Subcommands:
     list                                   registered scenarios and params
     run <scenario> [-p k=v]...             any registry scenario, one point
     sweep <scenario> [-x k=axis]...        multicore parameter sweep
     report <trace.jsonl>                   flight-recorder trace analysis
     fluid <a|b|c>                          analytical fixed points
     shard-invariance <scenario> [-p k=v]...  1-shard vs N-shard CI gate
     check                                  conformance + goldens

   Every packet simulation runs through the scenario registry ([run],
   [sweep], [shard-invariance]). [fluid] stays a subcommand of its own:
   it solves the fluid model's fixed points, runs no simulation, and
   has no registry [Spec]/[Outcome]. *)

open Cmdliner
module S = Mptcp_repro.Scenarios
module E = Mptcp_repro.Exp
module F = Mptcp_repro.Fluid

(* --- common options ---------------------------------------------------- *)

let n1 =
  let doc = "Number of multipath (type-1) users." in
  Arg.(value & opt int 10 & info [ "n1" ] ~docv:"N" ~doc)

let n2 =
  let doc = "Number of single-path (type-2) users." in
  Arg.(value & opt int 10 & info [ "n2" ] ~docv:"N" ~doc)

let c1 =
  let doc = "Per-user capacity C1, Mb/s." in
  Arg.(value & opt float 1. & info [ "c1" ] ~docv:"MBPS" ~doc)

let c2 =
  let doc = "Per-user capacity C2, Mb/s." in
  Arg.(value & opt float 1. & info [ "c2" ] ~docv:"MBPS" ~doc)

(* --- registry-driven commands: list, run, sweep ------------------------- *)

let scenario_pos =
  let doc = "Registry scenario name; $(b,olia_sim list) shows them all." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let params_opt =
  let doc =
    "Override one spec parameter, e.g. $(b,-p n2=30); repeatable."
  in
  Arg.(value & opt_all string [] & info [ "p"; "param" ] ~docv:"KEY=VALUE" ~doc)

let out_opt =
  let doc = "Write results to $(docv) (.json or .csv, by extension)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let run_list () =
  List.iter
    (fun name ->
      let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
      Printf.printf "%s\n  %s\n" Sc.spec.E.Spec.name Sc.spec.E.Spec.doc;
      List.iter
        (fun p ->
          Printf.printf "    %-16s default %-8s %s (domain %s)\n" p.E.Spec.key
            (E.Spec.value_to_string p.E.Spec.default)
            p.E.Spec.doc p.E.Spec.domain)
        Sc.spec.E.Spec.params;
      print_newline ())
    S.Registry.names

(* A key bound twice on the command line would shadow one of its values
   without a word, so it is refused where the strings become bindings;
   [bound] pairs each key with the flag that bound it. *)
let refuse_repeats cmd bound =
  ignore
    (List.fold_left
       (fun seen (key, flag) ->
         Option.iter
           (fun first ->
             invalid_arg
               (Printf.sprintf "%s: %s is bound twice (%s, then %s)" cmd key
                  first flag))
           (List.assoc_opt key seen);
         (key, flag) :: seen)
       [] bound
      : (string * string) list)

let by flag l = List.map (fun (key, _) -> (key, flag)) l

let list_cmd =
  let doc = "List every registered scenario and its parameters." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run_list $ const ())

let print_outcome outcome =
  List.iter
    (fun (name, v) -> Printf.printf "%-24s %.6g\n" name v)
    outcome.E.Outcome.metrics;
  List.iter
    (fun (name, a) ->
      Printf.printf "%-24s [%d values]\n" name (Array.length a))
    outcome.E.Outcome.arrays

let trace_opt =
  let doc =
    "Record structured simulator events (packet enqueue/drop/forward, TCP \
     state transitions, cwnd updates, RTO, subflow add/remove) and write \
     them to $(docv) as JSONL, one event object per line."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let report_opt =
  let doc =
    "Analyze the run's event stream inline and write the deterministic \
     JSON report (queue latency percentiles, drop bursts, per-subflow \
     RTT/cwnd/state summaries) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let format_conv = Arg.enum [ ("text", `Text); ("json", `Json) ]

let format_opt =
  let doc = "Report rendering on stdout: $(b,text) tables or $(b,json)." in
  Arg.(value & opt format_conv `Text & info [ "format" ] ~docv:"FMT" ~doc)

let profile_opt =
  let doc =
    "Profile the event loop: per-source dispatch counts and wall time, \
     printed after the run (wall times are non-deterministic and never \
     enter the report JSON)."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

module Obs = Mptcp_repro.Obs

let trace_ring_opt =
  let doc =
    "Capacity of each per-domain trace ring, in records (default 262144). \
     Rings are pre-allocated; a run that overflows one fails, names the \
     capacity it needs, and writes no trace or report."
  in
  Arg.(
    value
    & opt int (1 lsl 18)
    & info [ "trace-ring" ] ~docv:"RECORDS" ~doc)

let overflow_msg cmd ~dropped ~needed =
  Printf.sprintf
    "%s: trace rings dropped %d events; re-run with --trace-ring %d or more \
     for a complete trace"
    cmd dropped needed

(* With --trace or --report, run [f] under [Trace.capture]: each domain
   records into its own ring, and after the run the rings decode — in
   exact sequential event order, whatever the shard count — into the
   JSONL file and/or the report accumulator. An overflowed ring fails
   the command before either file is written. *)
let with_trace ~trace ~report ~ring_capacity f =
  if trace = None && not report then (None, f ())
  else
    match Obs.Trace.capture ~capacity:ring_capacity f with
    | exception Obs.Trace.Overflow { dropped; needed } ->
      invalid_arg (overflow_msg "run" ~dropped ~needed)
    | r, events ->
      Option.iter (fun path -> Obs.Trace.write_jsonl ~path events) trace;
      let acc =
        if report then begin
          let a = Obs.Report.create () in
          List.iter (Obs.Report.feed a) events;
          Some a
        end
        else None
      in
      (acc, r)

let has_shards_param (module Sc : S.Registry.SCENARIO) =
  List.exists (fun p -> p.E.Spec.key = "shards") Sc.spec.E.Spec.params

let sharded_scenario_names () =
  List.filter
    (fun n -> has_shards_param (S.Registry.find n))
    S.Registry.names

(* Refuses a scenario that declares no [shards] parameter, naming the
   ones that do. *)
let require_shards cmd name (module Sc : S.Registry.SCENARIO) =
  if not (has_shards_param (module Sc)) then
    invalid_arg
      (Printf.sprintf
         "%s: scenario %s has no 'shards' parameter and always runs on one \
          event loop; sharded execution is available for: %s"
         cmd name
         (String.concat ", " (sharded_scenario_names ())))

let run_generic name params out trace trace_ring report format profile =
  try
    let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
    let bindings = List.map (E.Spec.parse_assign Sc.spec) params in
    refuse_repeats "run" (by "-p" bindings);
    if profile then begin
      Obs.Profile.reset ();
      Obs.Profile.set_enabled true
    end;
    let acc, outcome =
      with_trace ~trace ~report:(Option.is_some report)
        ~ring_capacity:trace_ring (fun () -> Sc.run bindings)
    in
    if profile then Obs.Profile.set_enabled false;
    Option.iter (fun path -> Printf.printf "wrote trace %s\n" path) trace;
    Printf.printf "%s:\n" name;
    print_outcome outcome;
    Option.iter
      (fun path ->
        if Filename.check_suffix path ".csv" then
          E.Sweep.write_csv ~path ~spec:Sc.spec
            [ { E.Sweep.bindings; outcome } ]
        else
          Mptcp_repro.Stats.Json.write ~path
            (Mptcp_repro.Stats.Json.Obj
               [
                 ("scenario", Mptcp_repro.Stats.Json.String name);
                 ("params", E.Spec.to_json Sc.spec bindings);
                 ("outcome", E.Outcome.to_json outcome);
               ]);
        Printf.printf "wrote %s\n" path)
      out;
    Option.iter
      (fun acc ->
        (match format with
        | `Text -> print_string (Obs.Report.to_text acc)
        | `Json ->
          print_endline
            (Mptcp_repro.Stats.Json.to_string (Obs.Report.to_json acc)));
        Option.iter
          (fun path ->
            Mptcp_repro.Stats.Json.write ~path (Obs.Report.to_json acc);
            Printf.printf "wrote report %s\n" path)
          report)
      acc;
    if profile then begin
      Mptcp_repro.Stats.Table.print
        (Obs.Profile.to_table (Obs.Profile.report ()));
      (* the per-shard breakdown only says something when more than one
         domain accumulated dispatches *)
      match Obs.Profile.report_by_shard () with
      | [] | [ _ ] -> ()
      | by_shard ->
        Mptcp_repro.Stats.Table.print (Obs.Profile.to_shard_table by_shard)
    end;
    `Ok ()
  with Invalid_argument msg -> `Error (false, msg)

let run_cmd =
  let doc = "Run any registered scenario once, driven by its spec." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run_generic $ scenario_pos $ params_opt $ out_opt
        $ trace_opt $ trace_ring_opt $ report_opt $ format_opt $ profile_opt))

(* --- report: offline trace analysis ------------------------------------- *)

let run_report trace_path out format =
  match Obs.Report.load_jsonl ~path:trace_path with
  | Error e -> `Error (false, e)
  | Ok acc ->
    (match format with
    | `Text -> print_string (Obs.Report.to_text acc)
    | `Json ->
      print_endline
        (Mptcp_repro.Stats.Json.to_string (Obs.Report.to_json acc)));
    Option.iter
      (fun path ->
        Mptcp_repro.Stats.Json.write ~path (Obs.Report.to_json acc);
        Printf.printf "wrote %s\n" path)
      out;
    `Ok ()

let report_cmd =
  let trace_pos =
    let doc = "JSONL trace file recorded with $(b,olia_sim run --trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let doc =
    "Analyze a recorded trace: queue-residence latency percentiles \
     (p50/p90/p99), drop causes and bursts, per-subflow RTT distributions, \
     cwnd timelines and TCP state dwell times."
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "olia_sim run scenario-b --trace t.jsonl";
      `P "olia_sim report t.jsonl";
      `P "olia_sim report t.jsonl --format json --out report.json";
    ]
  in
  Cmd.v (Cmd.info "report" ~doc ~man)
    Term.(ret (const run_report $ trace_pos $ out_opt $ format_opt))

let axes_opt =
  let doc =
    "Sweep one parameter: $(b,-x n2=10:100:10) (inclusive range) or \
     $(b,-x algo=lia,olia) (explicit list); repeatable, the cross-product \
     of all axes is run."
  in
  Arg.(value & opt_all string [] & info [ "x"; "axis" ] ~docv:"KEY=AXIS" ~doc)

let seeds_opt =
  let doc =
    "Replicate every point under seeds 1..$(docv) (adds a seed axis)."
  in
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc)

let domains_opt =
  let doc =
    "Worker domains (0 = Domain.recommended_domain_count; 1 = sequential)."
  in
  Arg.(value & opt int 0 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let agg_out_opt =
  let doc = "Also write the aggregated (mean/stddev) table to $(docv)." in
  Arg.(value & opt (some string) None & info [ "agg-out" ] ~docv:"FILE" ~doc)

let run_sweep name axes params seeds domains out agg_out =
  try
    let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
    let fixed = List.map (E.Spec.parse_assign Sc.spec) params in
    let axes = List.map (E.Sweep.axis_of_assign Sc.spec) axes in
    let axis flag a = (a.E.Sweep.key, flag) in
    let seed_axis = if seeds > 1 then [ E.Sweep.seed_axis seeds ] else [] in
    refuse_repeats "sweep"
      (by "-p" fixed @ List.map (axis "-x") axes
      @ List.map (axis "--seeds") seed_axis);
    let axes = axes @ seed_axis in
    if axes = [] then invalid_arg "sweep: give at least one -x axis";
    let pts = E.Sweep.points Sc.spec ~fixed axes in
    let requested =
      if domains <= 0 then Domain.recommended_domain_count () else domains
    in
    let workers = Stdlib.max 1 (Stdlib.min requested (List.length pts)) in
    (* lint: allow R1 -- wall-clock timing of the sweep engine itself *)
    let t0 = Unix.gettimeofday () in
    let results = E.Sweep.run ~domains:workers (module Sc) pts in
    (* lint: allow R1 -- closes the wall-clock interval opened above *)
    let dt = Unix.gettimeofday () -. t0 in
    let agg = E.Sweep.aggregate results in
    (* print the aggregated table *)
    let axis_keys =
      List.filter (fun k -> k <> "seed") (List.map (fun a -> a.E.Sweep.key) axes)
    in
    let metrics =
      match agg.E.Sweep.rows with
      | [] -> []
      | a :: _ -> List.map fst a.E.Sweep.stats
    in
    let table =
      Mptcp_repro.Stats.Table.create
        ~title:(Printf.sprintf "%s sweep (n per point = seed replications)" name)
        ~columns:(axis_keys @ [ "n" ] @ metrics)
    in
    List.iter
      (fun (a : E.Sweep.agg) ->
        Mptcp_repro.Stats.Table.add_row table
          (List.map
             (fun k -> E.Spec.value_to_string (E.Spec.get Sc.spec a.group k))
             axis_keys
          @ [ string_of_int a.E.Sweep.n ]
          @ List.map
              (fun m ->
                let mean, sd = List.assoc m a.E.Sweep.stats in
                if a.E.Sweep.n > 1 then Printf.sprintf "%.4g ± %.2g" mean sd
                else Printf.sprintf "%.4g" mean)
              metrics))
      agg.E.Sweep.rows;
    Mptcp_repro.Stats.Table.print table;
    Printf.printf "%d points on %d domain%s in %.1f s\n" (List.length pts)
      workers
      (if workers = 1 then "" else "s")
      dt;
    Option.iter
      (fun path ->
        if Filename.check_suffix path ".csv" then
          E.Sweep.write_csv ~path ~spec:Sc.spec results
        else E.Sweep.write_json ~path ~spec:Sc.spec ~aggregated:agg results;
        Printf.printf "wrote %s\n" path)
      out;
    Option.iter
      (fun path ->
        E.Sweep.write_agg_csv ~path ~spec:Sc.spec agg;
        Printf.printf "wrote %s\n" path)
      agg_out;
    `Ok ()
  with Invalid_argument msg -> `Error (false, msg)

let sweep_cmd =
  let doc =
    "Sweep a scenario over parameter axes, in parallel across domains."
  in
  let man =
    [
      `S Manpage.s_examples;
      `P
        "olia_sim sweep scenario-a -x n2=10:100:10 -x algo=lia,olia --seeds \
         5 --out sweep.json";
    ]
  in
  Cmd.v (Cmd.info "sweep" ~doc ~man)
    Term.(
      ret
        (const run_sweep $ scenario_pos $ axes_opt $ params_opt $ seeds_opt
        $ domains_opt $ out_opt $ agg_out_opt))

(* --- fluid ---------------------------------------------------------------- *)

let run_fluid scenario n1 n2 c1 c2 =
  let to_pps = F.Units.pps_of_mbps in
  match scenario with
  | `A ->
    let r =
      F.Scenario_a.lia
        { F.Scenario_a.n1; n2; c1 = to_pps c1; c2 = to_pps c2; rtt = 0.15 }
    in
    Printf.printf
      "fluid A (LIA): type1 %.3f, type2 %.3f; p1 %.4f, p2 %.4f\n"
      r.F.Scenario_a.norm_type1 r.F.Scenario_a.norm_type2 r.F.Scenario_a.p1
      r.F.Scenario_a.p2
  | `B ->
    let params =
      { F.Scenario_b.n = n1; cx = to_pps c1; ct = to_pps c2; rtt = 0.15 }
    in
    let sp = F.Scenario_b.lia_red_singlepath params in
    let mp = F.Scenario_b.lia_red_multipath params in
    Printf.printf
      "fluid B (LIA): single-path blue %.2f red %.2f; multipath blue %.2f \
       red %.2f Mb/s per user\n"
      (F.Units.mbps_of_pps sp.F.Scenario_b.blue_total)
      (F.Units.mbps_of_pps sp.F.Scenario_b.red_total)
      (F.Units.mbps_of_pps mp.F.Scenario_b.blue_total)
      (F.Units.mbps_of_pps mp.F.Scenario_b.red_total)
  | `C ->
    let r =
      F.Scenario_c.lia
        { F.Scenario_c.n1; n2; c1 = to_pps c1; c2 = to_pps c2; rtt = 0.15 }
    in
    Printf.printf
      "fluid C (LIA): multipath %.3f, single %.3f; p1 %.4f, p2 %.4f\n"
      r.F.Scenario_c.norm_multipath r.F.Scenario_c.norm_single
      r.F.Scenario_c.p1 r.F.Scenario_c.p2

let fluid_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some (enum [ ("a", `A); ("b", `B); ("c", `C) ])) None
      & info [] ~docv:"SCENARIO" ~doc:"$(b,a), $(b,b) or $(b,c).")
  in
  let doc = "Analytical fixed points of the paper's scenarios." in
  Cmd.v
    (Cmd.info "fluid" ~doc)
    Term.(const run_fluid $ scenario $ n1 $ n2 $ c1 $ c2)

(* --- shard-invariance ------------------------------------------------------ *)

module Json = Mptcp_repro.Stats.Json

let jsonl_lines events =
  List.map (fun ev -> Json.to_string (Obs.Trace.to_json ev)) events

(* Run a sharded registry scenario at --shards 1 and --shards N from the
   same bindings, require every metric and array of the two outcomes to
   match bit for bit except the shard-count-dependent pair (the CI gate
   for the conservative-lookahead runtime), and report the wall-clock
   speedup. With [--traced], also run both shard counts with trace
   rings armed and require the decoded traces to be byte-identical —
   the strongest form of the invariance claim. *)
let run_shard_invariance name params shards min_speedup traced trace_ring
    trace_out out =
  try
    let (module Sc : S.Registry.SCENARIO) = S.Registry.find name in
    let bindings = List.map (E.Spec.parse_assign Sc.spec) params in
    require_shards "shard-invariance" name (module Sc);
    refuse_repeats "shard-invariance"
      (by "-p" bindings @ [ ("shards", "--shards") ]);
    let at s = ("shards", E.Spec.Int s) :: bindings in
    if shards < 2 then
      invalid_arg "shard-invariance: --shards must be >= 2 (it is compared \
                   against a --shards 1 baseline)";
    let traced = traced || Option.is_some trace_out in
    let timed s =
      (* lint: allow R1 -- wall-clock speedup measurement of the runtime *)
      let t0 = Unix.gettimeofday () in
      let o = Sc.run (at s) in
      (* lint: allow R1 -- closes the wall-clock interval opened above *)
      (o, Unix.gettimeofday () -. t0)
    in
    Printf.printf "shard-invariance: %s%s\nrunning --shards 1 ...\n%!" name
      (String.concat "" (List.map (fun p -> " -p " ^ p) params));
    let base, wall1 = timed 1 in
    Printf.printf "  %.1f s wall; running --shards %d ...\n%!" wall1 shards;
    let shd, walln = timed shards in
    let speedup = wall1 /. walln in
    Printf.printf "  %.1f s wall (speedup %.2fx)\n" walln speedup;
    let exempt = E.Outcome.shard_dependent in
    let checks = E.Outcome.bitwise_diff ~exempt base shd in
    List.iter
      (fun (c : E.Outcome.field_diff) ->
        Printf.printf "%s %-22s %d of %d value(s) differ from shards=1\n"
          (if c.differing = 0 then "ok  " else "FAIL")
          c.field c.differing c.values)
      checks;
    let value o m =
      Option.fold ~none:"-" ~some:(Printf.sprintf "%.17g")
        (E.Outcome.metric_opt o m)
    in
    List.iter
      (fun m ->
        Printf.printf "exempt %-20s %s at shards=%d (shards=1: %s)\n" m
          (value shd m) shards (value base m))
      exempt;
    let metrics_pass =
      List.for_all (fun (c : E.Outcome.field_diff) -> c.differing = 0) checks
    in
    let speedup_pass = min_speedup <= 0. || speedup >= min_speedup in
    if not speedup_pass then
      Printf.printf "FAIL speedup %.2fx < required %.2fx\n" speedup min_speedup
    else if min_speedup > 0. then
      Printf.printf "ok   speedup %.2fx >= %.2fx\n" speedup min_speedup;
    let trace_result =
      if not traced then None
      else begin
        Printf.printf
          "running traced legs (ring capacity %d records/domain) ...\n%!"
          trace_ring;
        let events s =
          match
            Obs.Trace.capture ~capacity:trace_ring (fun () -> Sc.run (at s))
          with
          | exception Obs.Trace.Overflow { dropped; needed } ->
            invalid_arg
              (overflow_msg
                 (Printf.sprintf "shard-invariance --shards %d" s)
                 ~dropped ~needed)
          | _, events -> events
        in
        let base_lines = jsonl_lines (events 1) in
        let shd_events = events shards in
        let shd_lines = jsonl_lines shd_events in
        let identical = base_lines = shd_lines in
        Printf.printf
          "%s traced decode: %d events at shards=1, %d at shards=%d -- %s\n"
          (if identical then "ok  " else "FAIL")
          (List.length base_lines) (List.length shd_lines) shards
          (if identical then "byte-identical" else "traces diverge");
        Option.iter
          (fun path ->
            Obs.Trace.write_jsonl ~path shd_events;
            Printf.printf "wrote decoded sharded trace %s\n" path)
          trace_out;
        Some (List.length base_lines, List.length shd_lines, identical)
      end
    in
    let trace_pass =
      match trace_result with None -> true | Some (_, _, ok) -> ok
    in
    let pass = metrics_pass && speedup_pass && trace_pass in
    let leg s o wall =
      Json.Obj
        [
          ("params", E.Spec.to_json Sc.spec (at s));
          ("wall_s", Json.Float wall);
          ("outcome", E.Outcome.to_json o);
        ]
    in
    let json =
      Json.Obj
        ([
          ("scenario", Json.String name);
          ("shards", Json.Int shards);
          ("baseline", leg 1 base wall1);
          ("sharded", leg shards shd walln);
          ( "checks",
            Json.List
              (List.map
                 (fun (c : E.Outcome.field_diff) ->
                   Json.Obj
                     [
                       ("field", Json.String c.field);
                       ("values", Json.Int c.values);
                       ("differing", Json.Int c.differing);
                       ("pass", Json.Bool (c.differing = 0));
                     ])
                 checks) );
          ("exempt", Json.List (List.map (fun m -> Json.String m) exempt));
          ("metrics_pass", Json.Bool metrics_pass);
          ("min_speedup", Json.Float min_speedup);
          ("speedup", Json.Float speedup);
          ("speedup_pass", Json.Bool speedup_pass);
        ]
        @ (match trace_result with
          | None -> []
          | Some (nb, ns, identical) ->
            [
              ( "trace",
                Json.Obj
                  [
                    ("baseline_events", Json.Int nb);
                    ("sharded_events", Json.Int ns);
                    ("byte_identical", Json.Bool identical);
                  ] );
            ])
        @ [ ("pass", Json.Bool pass) ])
    in
    Option.iter
      (fun path ->
        Json.write ~path json;
        Printf.printf "wrote %s\n" path)
      out;
    if pass then begin
      Printf.printf
        "shard-invariance: PASS (%d fields bitwise equal%s, speedup %.2fx)\n"
        (List.length checks)
        (if traced then ", traces byte-identical" else "")
        speedup;
      `Ok ()
    end
    else begin
      Printf.printf "shard-invariance: FAIL\n";
      exit 1
    end
  with Invalid_argument msg -> `Error (false, msg)

let shard_invariance_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"Shard count compared against the --shards 1 baseline \
                 (the scenario must accept it, e.g. divide $(b,k)).")
  in
  let min_speedup =
    Arg.(value & opt float 0. & info [ "min-speedup" ] ~docv:"X"
           ~doc:"Fail unless sharded wall-clock speedup reaches $(docv) \
                 (0 = report only).")
  in
  let traced =
    Arg.(value & flag
         & info [ "traced" ]
             ~doc:"Also run both shard counts with trace rings armed and \
                   fail unless the decoded N-shard trace is byte-identical \
                   to the --shards 1 trace.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the decoded sharded trace (JSONL) to $(docv) for \
                   artifact upload; implies $(b,--traced).")
  in
  let doc =
    "CI gate: run a registry scenario that has a $(b,shards) parameter at \
     --shards 1 and --shards N from the same bindings, fail unless every \
     metric and array of the two outcomes is bitwise equal (except \
     $(b,cut_messages) and $(b,obs_max_heap_depth), which depend on the \
     shard count by design and are only reported), and report the \
     wall-clock speedup. With $(b,--traced), additionally require the \
     decoded sharded trace to be byte-identical to the --shards 1 trace."
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "olia_sim shard-invariance fattree-sharded --shards 4 \
          --out report.json";
      `P "olia_sim shard-invariance fattree-sharded -p k=4 -p flows_per_host=2 \
          -p duration=2 --min-speedup 1.2";
      `P "olia_sim shard-invariance fattree-sharded -p k=4 -p flows_per_host=2 \
          -p duration=2 --traced --trace-out decoded.jsonl";
    ]
  in
  Cmd.v
    (Cmd.info "shard-invariance" ~doc ~man)
    Term.(
      ret
        (const run_shard_invariance $ scenario_pos $ params_opt $ shards
        $ min_speedup $ traced $ trace_ring_opt $ trace_out $ out_opt))

(* --- check ----------------------------------------------------------------- *)

module Ck = Mptcp_repro.Check

let run_check only out update_golden golden_dir =
  if update_golden then begin
    Ck.Golden.update_all ~dir:golden_dir;
    Printf.printf "goldens re-recorded under %s/\n" golden_dir;
    `Ok ()
  end
  else
    let report = Ck.Conformance.run_all ?only () in
    let golden =
      List.filter_map
        (fun n ->
          if Ck.Conformance.selects only ("golden/" ^ n) then
            Some (n, Ck.Golden.check ~dir:golden_dir n)
          else None)
        Ck.Golden.names
    in
    if report.Ck.Conformance.cases = [] && golden = [] then
      `Error
        ( false,
          Printf.sprintf
            "check: --only %s selects no case and no golden; valid names: %s"
            (Option.value only ~default:"")
            (String.concat ", "
               (List.map
                  (fun (c : Ck.Conformance.case) -> c.name)
                  (Ck.Conformance.cases ())
               @ List.map (fun n -> "golden/" ^ n) Ck.Golden.names)) )
    else begin
      List.iter
        (fun (cr : Ck.Conformance.case_report) ->
          Printf.printf "%s %s\n" (if cr.pass then "PASS" else "FAIL") cr.case;
          List.iter
            (fun (r : Ck.Band.result) ->
              Printf.printf
                "  %s %-24s %-38s actual %11.5g  band [%.5g, %.5g]\n"
                (if r.pass then "ok  " else "FAIL")
                r.band.Ck.Band.id r.band.Ck.Band.metric r.actual
                r.band.Ck.Band.lo r.band.Ck.Band.hi)
            cr.results)
        report.Ck.Conformance.cases;
      List.iter
        (fun (n, r) ->
          match r with
          | Ok () -> Printf.printf "PASS golden/%s\n" n
          | Error e -> Printf.printf "FAIL golden/%s\n  %s\n" n e)
        golden;
      let golden_pass = List.for_all (fun (_, r) -> Result.is_ok r) golden in
      let json =
        let golden_json =
          Json.List
            (List.map
               (fun (n, r) ->
                 Json.Obj
                   (("name", Json.String n)
                   :: ("pass", Json.Bool (Result.is_ok r))
                   ::
                   (match r with
                   | Ok () -> []
                   | Error e -> [ ("error", Json.String e) ])))
               golden)
        in
        match Ck.Conformance.report_to_json report with
        | Json.Obj fields -> Json.Obj (fields @ [ ("golden", golden_json) ])
        | j -> j
      in
      Option.iter (fun path -> Json.write ~path json) out;
      Printf.printf
        "conformance: %d/%d bands within tolerance, %d/%d goldens match\n"
        (report.Ck.Conformance.bands_total - report.Ck.Conformance.bands_failed)
        report.Ck.Conformance.bands_total
        (List.length (List.filter (fun (_, r) -> Result.is_ok r) golden))
        (List.length golden);
      if not (report.Ck.Conformance.pass && golden_pass) then exit 1;
      `Ok ()
    end

let check_cmd =
  let only =
    let doc =
      "Run only the conformance cases (e.g. $(b,diff/) for the float vs \
       fixed-point twins) and golden/<name> files whose name contains \
       $(docv); fails if it selects none."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"SUBSTR" ~doc)
  in
  let update_golden =
    let doc = "Re-record the golden traces, reports and outcomes and exit." in
    Arg.(value & flag & info [ "update-golden" ] ~doc)
  in
  let golden_dir =
    let doc = "Directory holding the golden files." in
    Arg.(value & opt string "test/golden" & info [ "golden-dir" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "Conformance: packet simulations vs fluid-model tolerance bands, \
     fault-recovery checks, float vs fixed-point congestion control \
     (the $(b,diff/) cases, citing the kernel sources) and the goldens: \
     traces, reports and every registry scenario's outcome."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(ret (const run_check $ only $ out_opt $ update_golden $ golden_dir))

(* --- main ------------------------------------------------------------------ *)

let () =
  let doc = "reproduction of 'MPTCP is not Pareto-Optimal' (OLIA)" in
  let info = Cmd.info "olia_sim" ~version:"1.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group info ~default
          [
            list_cmd; run_cmd; sweep_cmd; report_cmd; fluid_cmd;
            shard_invariance_cmd; check_cmd;
          ]))
