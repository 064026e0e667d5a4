(* The observability layer: trace events round-trip through JSONL, the
   per-run counters agree with what a Monitor sees on the same queues,
   and — crucially — arming tracing never changes simulation results. *)

open Repro_netsim

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at ~src sim t f = ignore (Sim.schedule_at ~src sim t f : Sim.Timer.t)
  let schedule_after ~src sim d f = ignore (Sim.schedule_after ~src sim d f : Sim.Timer.t)
end
module Trace = Repro_obs.Trace
module Meter = Repro_obs.Meter
module Snapshot = Repro_obs.Snapshot
module Json = Repro_stats.Json
module S = Repro_scenarios

(* --- trace events ---------------------------------------------------- *)

let every_variant =
  [
    Trace.Pkt_enqueue
      {
        time = 0.125;
        queue = "r1";
        flow = 3;
        subflow = 1;
        seq = 42;
        kind = "data";
        backlog = 7;
      };
    Trace.Pkt_drop
      {
        time = 0.25;
        queue = "ap";
        flow = 0;
        subflow = 0;
        seq = 9;
        kind = "data";
        cause = Trace.Overflow;
      };
    Trace.Pkt_drop
      {
        time = 0.5;
        queue = "ap";
        flow = 1;
        subflow = 2;
        seq = 10;
        kind = "data";
        cause = Trace.Red_early;
      };
    Trace.Pkt_drop
      {
        time = 0.75;
        queue = "wifi";
        flow = 1;
        subflow = 0;
        seq = 11;
        kind = "ack";
        cause = Trace.Random_loss;
      };
    Trace.Pkt_drop
      {
        time = 0.875;
        queue = "fault-gate";
        flow = 2;
        subflow = 1;
        seq = 13;
        kind = "data";
        cause = Trace.Link_down;
      };
    Trace.Pkt_forward
      {
        time = 1.5;
        queue = "r2";
        flow = 2;
        subflow = 1;
        seq = 12;
        kind = "data";
        bytes = 1500;
        qdelay = 0.0375;
      };
    Trace.Tcp_state
      {
        time = 2.0;
        flow = 4;
        subflow = 0;
        from_state = Trace.Slow_start;
        to_state = Trace.Fast_recovery;
      };
    Trace.Tcp_state
      {
        time = 2.25;
        flow = 4;
        subflow = 0;
        from_state = Trace.Fast_recovery;
        to_state = Trace.Congestion_avoidance;
      };
    Trace.Cwnd_update
      { time = 3.0; flow = 0; subflow = 1; cwnd = 14.5; ssthresh = 7.25 };
    Trace.Rto_fired { time = 4.0; flow = 1; subflow = 1; rto = 1.5 };
    Trace.Rtt_sample
      { time = 4.5; flow = 1; subflow = 0; rtt = 0.082; srtt = 0.0795 };
    Trace.Subflow_add { time = 0.0; flow = 5; subflow = 1 };
    Trace.Subflow_remove { time = 9.5; flow = 5; subflow = 1 };
  ]

let test_event_round_trip () =
  List.iter
    (fun ev ->
      let serialized = Json.to_string (Trace.to_json ev) in
      match Json.of_string serialized with
      | Error e -> Alcotest.fail ("event does not re-parse: " ^ e)
      | Ok j -> (
        match Trace.of_json j with
        | Error e -> Alcotest.fail ("event does not decode: " ^ e)
        | Ok ev' ->
          Alcotest.(check bool)
            ("round-trip: " ^ serialized)
            true (ev = ev')))
    every_variant

let test_event_bad_json () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | Error _ -> ()
      | Ok j -> (
        match Trace.of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail ("decoded a non-event: " ^ src)))
    [ {|{"ev":"no_such_event","t":1}|}; {|{"t":1}|}; {|[1,2]|} ]

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Every variant through the rings and out through the JSONL writer:
   outside any dispatch each record is its own group, so the decode
   orders by time alone. *)
let test_jsonl_sink () =
  let path = Filename.temp_file "olia_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (), events =
        Trace.capture ~capacity:64 (fun () ->
            Alcotest.(check bool) "armed" true (Trace.enabled ());
            List.iter Trace.emit every_variant)
      in
      Alcotest.(check bool) "disarmed after" false (Trace.enabled ());
      let time_of ev =
        match Trace.to_json ev with
        | Json.Obj fields -> (
          match List.assoc "t" fields with Json.Float t -> t | _ -> nan)
        | _ -> nan
      in
      let by_time =
        List.stable_sort
          (fun a b -> Float.compare (time_of a) (time_of b))
          every_variant
      in
      Alcotest.(check bool)
        "rings decode every variant" true (events = by_time);
      Trace.write_jsonl ~path events;
      let lines = read_lines path in
      Alcotest.(check int)
        "one line per event"
        (List.length every_variant)
        (List.length lines);
      List.iter2
        (fun ev line ->
          match Json.of_string line with
          | Error e -> Alcotest.fail ("line is not JSON: " ^ e)
          | Ok j -> (
            match Trace.of_json j with
            | Error e -> Alcotest.fail ("line is not an event: " ^ e)
            | Ok ev' ->
              Alcotest.(check bool) "line decodes to the event" true (ev = ev')))
        by_time lines)

(* --- counters vs Monitor --------------------------------------------- *)

(* Flood a small DropTail queue and cross-check the meter counters
   against the queue's own statistics and a Monitor drop series. *)
let test_counters_match_monitor () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:5
      ~discipline:Queue.Droptail ()
  in
  let mon = Monitor.create ~sim ~period:0.01 ~stop:0.2 () in
  Monitor.watch_drops mon "drops" q;
  let sink (_ : Packet.t) = () in
  let route = [| Queue.hop q; sink |] in
  Sim.schedule_at ~src:"test" sim 0. (fun () ->
      for i = 0 to 19 do
        Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route)
      done);
  let meter = Meter.start () in
  Sim.run sim;
  let r =
    Meter.finish meter ~sim_s:(Sim.now sim)
      ~events_processed:(Sim.events_processed sim)
      ~max_heap_depth:(Sim.max_heap_depth sim)
      ~drops_overflow:(Queue.drops_overflow q) ~drops_red:(Queue.drops_red q)
      ~drops_random:0 ~subflow_goodput_bps:[]
  in
  Alcotest.(check int) "overflow drops" 15 r.Meter.drops_overflow;
  Alcotest.(check int) "no red drops on droptail" 0 r.Meter.drops_red;
  Alcotest.(check int)
    "split sums to the queue total"
    (Queue.drops q)
    (r.Meter.drops_overflow + r.Meter.drops_red);
  (match Repro_stats.Timeseries.last (Monitor.series mon "drops") with
  | None -> Alcotest.fail "monitor recorded nothing"
  | Some (_, v) ->
    Alcotest.(check int)
      "monitor's last sample agrees" (Queue.drops q) (int_of_float v));
  Alcotest.(check bool) "events processed" true (r.Meter.events_processed > 0);
  Alcotest.(check bool) "heap high-water mark" true (r.Meter.max_heap_depth > 0);
  Alcotest.(check bool)
    "heap mark bounds pending peak" true
    (r.Meter.max_heap_depth <= r.Meter.events_processed)

let small = { S.Scen_a.default with duration = 8.; warmup = 2. }

let test_scenario_metrics_exported () =
  let metrics = (S.Scen_a.run small).metrics in
  List.iter
    (fun key ->
      match List.assoc_opt key metrics with
      | None -> Alcotest.fail ("missing metric " ^ key)
      | Some v ->
        Alcotest.(check bool) (key ^ " finite and >= 0") true
          (Float.is_finite v && v >= 0.))
    [
      "obs_events";
      "obs_max_heap_depth";
      "obs_drops_overflow";
      "obs_drops_red";
      "obs_drops_random";
      "obs_subflow_goodput_bps_type1_sf0";
      "obs_subflow_goodput_bps_type1_sf1";
      "obs_subflow_goodput_bps_type2_sf0";
    ];
  Alcotest.(check bool)
    "a real run dispatches events" true
    (List.assoc "obs_events" metrics > 0.);
  (* the per-subflow goodputs feed the conformance harness: on scenario A
     every subflow carries traffic, so each must report a positive rate *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " positive") true
        (List.assoc key metrics > 0.))
    [
      "obs_subflow_goodput_bps_type1_sf0";
      "obs_subflow_goodput_bps_type1_sf1";
      "obs_subflow_goodput_bps_type2_sf0";
    ];
  (* and through the registry: the outcome carries the same keys *)
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find "scenario-a" in
  let outcome =
    Sc.run
      [
        ("duration", Repro_exp.Spec.Float 8.);
        ("warmup", Repro_exp.Spec.Float 2.);
      ]
  in
  Alcotest.(check bool)
    "registry outcome exports obs_events" true
    (Repro_exp.Outcome.metric outcome "obs_events" > 0.)

(* --- tracing off is a no-op ------------------------------------------ *)

(* An outcome carries no wall-clock field, so whole outcomes compare. *)
let test_tracing_off_noop () =
  Alcotest.(check bool) "tests run untraced" false (Trace.enabled ());
  let before = S.Scen_a.run small in
  let traced, events =
    Trace.capture ~capacity:(1 lsl 16) (fun () -> S.Scen_a.run small)
  in
  Alcotest.(check bool) "disarmed again" false (Trace.enabled ());
  let after = S.Scen_a.run small in
  Alcotest.(check bool) "tracing emitted events" true (events <> []);
  Alcotest.(check bool) "tracing does not change results" true
    (before = traced);
  Alcotest.(check bool) "and leaves no residue" true (before = after)

(* --- perf snapshots --------------------------------------------------- *)

let entry ?(spread = 0.05) name median =
  Snapshot.entry ~name ~median ~spread ~units:"ns/run"

let with_file contents f =
  let path = Filename.temp_file "olia_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc contents);
      f path)

let test_snapshot_round_trip () =
  let t =
    [
      entry ~spread:0.31 "micro/olia-increase" 250.5;
      Snapshot.entry ~name:"scenario/scenario-a" ~median:0.02 ~spread:0.08
        ~units:"s_wall/s_sim";
    ]
  in
  with_file "" (fun path ->
      Snapshot.write ~path t;
      match Snapshot.read ~path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
        Alcotest.(check bool) "round-trips" true (t = t');
        match Snapshot.find t' "micro/olia-increase" with
        | None -> Alcotest.fail "entry lost"
        | Some e ->
          Alcotest.(check (float 1e-9)) "median" 250.5 e.Snapshot.median;
          Alcotest.(check (float 1e-9)) "spread" 0.31 e.Snapshot.spread;
          Alcotest.(check bool) "too wide to gate" false e.Snapshot.gated)

let test_snapshot_read_rejects () =
  let path = Filename.temp_file "olia_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc {|{"schema":"other/9","quick":false,"entries":[]}|};
      close_out oc;
      match Snapshot.read ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted a foreign schema")

let test_regressions_flag_slowdowns () =
  let baseline = [ entry "micro/a" 100.; entry "micro/b" 100. ] in
  let current =
    [ entry "micro/a" 150.; entry "micro/b" 110.; entry "micro/new" 999. ]
  in
  match Snapshot.regressions ~baseline ~current with
  | [ r ] ->
    Alcotest.(check string) "only the 1.5x entry" "micro/a" r.Snapshot.name;
    Alcotest.(check (float 1e-9)) "ratio" 1.5 r.Snapshot.ratio
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length rs))

(* The tolerance is the baseline's spread, never below the floor: a
   1.15x slowdown fails an entry whose windows agree to 5% and passes
   one whose windows spread 20%. *)
let test_regressions_derive_tolerance () =
  let verdict ~spread ratio =
    match
      Snapshot.gate
        ~baseline:[ entry ~spread "micro/a" 100. ]
        ~current:[ entry "micro/a" (100. *. ratio) ]
    with
    | [ r ] -> (r.Snapshot.tolerance, r.Snapshot.verdict)
    | _ -> Alcotest.fail "expected one row"
  in
  let tol, v = verdict ~spread:0.05 1.15 in
  Alcotest.(check (float 1e-12)) "floor" Snapshot.floor tol;
  Alcotest.(check bool) "1.15x over the floor fails" true (v = Snapshot.Regressed);
  let tol, v = verdict ~spread:0.2 1.15 in
  Alcotest.(check (float 1e-12)) "spread above the floor" 0.2 tol;
  Alcotest.(check bool) "1.15x inside the spread passes" true (v = Snapshot.Pass);
  let _, v = verdict ~spread:0.2 1.25 in
  Alcotest.(check bool) "1.25x beyond the spread fails" true (v = Snapshot.Regressed)

(* An ungated baseline entry gets its own verdict, whatever the current
   value: the gate reports it rather than counting it as a pass. *)
let test_gate_reports_ungated () =
  let baseline = [ entry ~spread:0.4 "micro/noisy" 10.; entry "micro/a" 100. ] in
  let current = [ entry "micro/noisy" 30.; entry "micro/a" 100. ] in
  let rows = Snapshot.gate ~baseline ~current in
  Alcotest.(check (list string))
    "ungated" [ "micro/noisy" ]
    (List.filter_map
       (fun (r : Snapshot.row) ->
         if r.verdict = Snapshot.Ungated then Some r.name else None)
       rows);
  Alcotest.(check int) "and it fails nothing" 0
    (List.length (Snapshot.regressions ~baseline ~current))

let test_gate_fails_missing_entry () =
  let baseline = [ entry "micro/a" 100.; entry "micro/gone" 100. ] in
  match Snapshot.regressions ~baseline ~current:[ entry "micro/a" 100. ] with
  | [ r ] ->
    Alcotest.(check string) "the dropped entry" "micro/gone" r.Snapshot.name;
    Alcotest.(check bool) "missing" true (r.Snapshot.verdict = Snapshot.Missing)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length rs))

let test_gate_fails_invalid_value () =
  List.iter
    (fun bad ->
      match
        Snapshot.regressions
          ~baseline:[ entry "micro/a" 100. ]
          ~current:[ entry "micro/a" bad ]
      with
      | [ r ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%g is invalid" bad)
          true
          (r.Snapshot.verdict = Snapshot.Invalid)
      | _ -> Alcotest.fail (Printf.sprintf "%g passed the gate" bad))
    [ nan; infinity; 0.; -1. ]

let test_snapshot_read_refuses_schema_1 () =
  with_file
    {|{"schema":"olia-bench/1","quick":true,"entries":[{"name":"micro/a","value":1.0,"units":"ns/run"}]}|}
    (fun path ->
      match Snapshot.read ~path with
      | Ok _ -> Alcotest.fail "accepted a schema-1 snapshot"
      | Error e ->
        Alcotest.(check string)
          "names the schema"
          {|unsupported snapshot schema "olia-bench/1" (expected "olia-bench/2")|}
          e)

(* --- flight-recorder reports ------------------------------------------ *)

module Report = Repro_obs.Report
module Profile = Repro_obs.Profile

let member name = function
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some j -> j
    | None -> Alcotest.fail ("report is missing field " ^ name))
  | _ -> Alcotest.fail ("not an object while looking up " ^ name)

let as_int name j =
  match j with
  | Json.Int i -> i
  | _ -> Alcotest.fail (name ^ " is not an int")

let test_report_accumulates () =
  let acc = Report.create () in
  let enq seq =
    Trace.Pkt_enqueue
      {
        time = 0.1 *. float_of_int seq;
        queue = "q";
        flow = 0;
        subflow = 0;
        seq;
        kind = "data";
        backlog = 1;
      }
  and drop seq cause =
    Trace.Pkt_drop
      {
        time = 0.1 *. float_of_int seq;
        queue = "q";
        flow = 0;
        subflow = 0;
        seq;
        kind = "data";
        cause;
      }
  and fwd seq =
    Trace.Pkt_forward
      {
        time = 0.1 *. float_of_int seq;
        queue = "q";
        flow = 0;
        subflow = 0;
        seq;
        kind = "data";
        bytes = 1500;
        qdelay = 0.01;
      }
  in
  (* a closed run of 3 drops (burst), then a trailing open run of 1 *)
  List.iter (Report.feed acc)
    [
      enq 0;
      drop 1 Trace.Overflow;
      drop 2 Trace.Overflow;
      drop 3 Trace.Red_early;
      fwd 4;
      drop 5 Trace.Random_loss;
      Trace.Rtt_sample { time = 1.0; flow = 1; subflow = 0; rtt = 0.1; srtt = 0.1 };
      Trace.Rtt_sample { time = 1.1; flow = 1; subflow = 0; rtt = 0.2; srtt = 0.15 };
      Trace.Rtt_sample { time = 1.2; flow = 1; subflow = 0; rtt = 0.3; srtt = 0.2 };
    ];
  let j = Report.to_json acc in
  Alcotest.(check int)
    "total events" 9
    (as_int "total" (member "total" (member "events" j)));
  let q = member "q" (member "queues" j) in
  Alcotest.(check int) "enqueued" 1 (as_int "enqueued" (member "enqueued" q));
  Alcotest.(check int) "forwarded" 1 (as_int "forwarded" (member "forwarded" q));
  let drops = member "drops" q in
  Alcotest.(check int) "drops total" 4 (as_int "total" (member "total" drops));
  Alcotest.(check int)
    "overflow split" 2
    (as_int "overflow" (member "overflow" drops));
  Alcotest.(check int)
    "red split" 1
    (as_int "red_early" (member "red_early" drops));
  let bursts = member "drop_bursts" q in
  Alcotest.(check int)
    "one closed burst; the trailing single drop is not one" 1
    (as_int "bursts" (member "bursts" bursts));
  Alcotest.(check int)
    "max run" 3
    (as_int "max_run" (member "max_run" bursts));
  Alcotest.(check int)
    "qdelay sample count" 1
    (as_int "n" (member "n" (member "qdelay_s" q)));
  let sub = member "1/0" (member "subflows" j) in
  Alcotest.(check int)
    "rtt sample count" 3
    (as_int "n" (member "n" (member "rtt_s" sub)));
  (* to_json never mutates: rendering twice is byte-identical, and the
     open drop run is still extendable afterwards *)
  Alcotest.(check string)
    "to_json is pure"
    (Json.to_string j)
    (Json.to_string (Report.to_json acc));
  Report.feed acc (drop 6 Trace.Random_loss);
  let bursts' = member "drop_bursts" (member "q" (member "queues" (Report.to_json acc))) in
  Alcotest.(check int)
    "trailing run grew into a burst" 2
    (as_int "bursts" (member "bursts" bursts'))

let test_report_jsonl_round_trip () =
  let path = Filename.temp_file "olia_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iteri
        (fun i ev ->
          (* a blank line mid-file must be skipped, not rejected *)
          if i = 2 then output_string oc "\n";
          output_string oc (Json.to_string (Trace.to_json ev));
          output_string oc "\n")
        every_variant;
      close_out oc;
      let direct = Report.create () in
      List.iter (Report.feed direct) every_variant;
      match Report.load_jsonl ~path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
        Alcotest.(check string)
          "offline replay equals the live accumulator"
          (Json.to_string (Report.to_json direct))
          (Json.to_string (Report.to_json loaded)))

let test_report_jsonl_rejects_bad_line () =
  let path = Filename.temp_file "olia_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        (Json.to_string (Trace.to_json (List.hd every_variant)));
      output_string oc "\nnot json at all\n";
      close_out oc;
      match Report.load_jsonl ~path with
      | Ok _ -> Alcotest.fail "accepted a malformed trace line"
      | Error e ->
        let has_sub sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          ("error names the file and line: " ^ e)
          true
          (has_sub (path ^ ":2:") e))

(* Two identical runs must render byte-identical report JSON: reports
   are a pure function of the trace stream, which is a pure function of
   the seed. *)
let test_report_deterministic_across_runs () =
  let render () =
    let acc = Report.create () in
    let (), events =
      Trace.capture ~capacity:(1 lsl 16) (fun () -> ignore (S.Scen_a.run small))
    in
    List.iter (Report.feed acc) events;
    Json.to_string (Report.to_json acc)
  in
  let first = render () in
  let second = render () in
  Alcotest.(check bool) "report JSON is byte-identical" true (first = second);
  Alcotest.(check bool)
    "and non-trivial" true
    (String.length first > 100)

let as_float name j =
  match j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.fail (name ^ " is not a number")

(* [feed] caches the last queue's accumulator by physical name; a JSONL
   replay carries a fresh string per event, so equal names that are
   physically distinct must still land in one accumulator. *)
let test_report_queue_name_fallback () =
  let fresh () = String.concat "-" [ "fallback"; "q" ] in
  let a = fresh () and b = fresh () in
  Alcotest.(check bool) "names physically distinct" false (a == b);
  let enq time queue =
    Trace.Pkt_enqueue
      {
        time; queue; flow = 0; subflow = 0; seq = 0; kind = "data";
        backlog = 1;
      }
  in
  let acc = Report.create () in
  List.iter (Report.feed acc)
    [ enq 0.1 a; enq 0.2 b; enq 0.3 "other-q"; enq 0.4 b; enq 0.5 a ];
  let queues = member "queues" (Report.to_json acc) in
  (match queues with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "one accumulator per name"
      [ "fallback-q"; "other-q" ] (List.map fst fields)
  | _ -> Alcotest.fail "queues is not an object");
  Alcotest.(check int) "every enqueue counted" 4
    (as_int "enqueued" (member "enqueued" (member "fallback-q" queues)))

(* A subflow dwells in no state while removed, and a re-added subflow's
   open state runs to the end of the stream: add@0, CA@1, remove@2,
   add@3, FR@4, last event @10. *)
let test_report_readded_subflow_dwell () =
  let acc = Report.create () in
  let state time from_state to_state =
    Trace.Tcp_state { time; flow = 7; subflow = 0; from_state; to_state }
  in
  List.iter (Report.feed acc)
    [
      Trace.Subflow_add { time = 0.; flow = 7; subflow = 0 };
      state 1. Trace.Slow_start Trace.Congestion_avoidance;
      Trace.Subflow_remove { time = 2.; flow = 7; subflow = 0 };
      Trace.Subflow_add { time = 3.; flow = 7; subflow = 0 };
      state 4. Trace.Congestion_avoidance Trace.Fast_recovery;
      Trace.Rto_fired { time = 10.; flow = 8; subflow = 0; rto = 1. };
    ];
  let sub = member "7/0" (member "subflows" (Report.to_json acc)) in
  let dwell = member "state_dwell_s" sub in
  List.iter
    (fun (name, want) ->
      Alcotest.(check (float 0.)) name want (as_float name (member name dwell)))
    [ ("slow_start", 1.); ("congestion_avoidance", 2.); ("fast_recovery", 6.) ]

(* --- sweeps ------------------------------------------------------------ *)

(* Tracing is per-worker: each sweep domain binds its own ring, so a
   multi-worker sweep runs armed, and untraced afterwards. *)
let test_sweep_rings () =
  let (module Sc : S.Registry.SCENARIO) = S.Registry.find "scenario-a" in
  let point seed =
    [
      ("duration", Repro_exp.Spec.Float 2.);
      ("warmup", Repro_exp.Spec.Float 0.5);
      ("seed", Repro_exp.Spec.Int seed);
    ]
  in
  (* Two points so the ~domains:2 request actually spawns two workers;
     a single point degrades to the sequential path. *)
  let pts = [ point 1; point 2 ] in
  Trace.arm_rings ~capacity:(1 lsl 16) ();
  (Fun.protect
     ~finally:(fun () -> Trace.disarm_rings ())
     (fun () ->
       match Repro_exp.Sweep.run ~domains:2 (module Sc) pts with
       | ps ->
         Alcotest.(check int) "ring-traced sweep covers every point" 2
           (List.length ps);
         Alcotest.(check int) "nothing dropped" 0 (Trace.rings_dropped ());
         Alcotest.(check bool)
           "worker rings captured events" true
           (List.length (Trace.decode_rings ()) > 0)));
  match Repro_exp.Sweep.run ~domains:2 (module Sc) pts with
  | ps ->
    Alcotest.(check int) "untraced sweep covers every point" 2
      (List.length ps);
    List.iter
      (fun p ->
        Alcotest.(check bool)
          "untraced sweep runs fine" true
          (Repro_exp.Outcome.metric p.Repro_exp.Sweep.outcome "obs_events"
          > 0.))
      ps

(* --- trace rings -------------------------------------------------------- *)

module Ring = Repro_obs.Ring

(* Circular-buffer mechanics: a ring past capacity keeps
   exactly the newest [capacity] records, counts the overwritten ones,
   and [slot_of_index] walks the survivors oldest-to-newest. The second
   capacity spans two full 4096-record chunks and a partial third, so
   the survivors cross chunk boundaries and the wrap; after a reset the
   next records land from slot 0 again. *)
let test_ring_wraparound () =
  let fill r ~from n =
    for i = from to from + n - 1 do
      let s = Ring.claim r in
      Ring.set_i r s 0 i;
      Ring.set_i r s 12 (-i);
      Ring.set_f r s 0 (float_of_int i);
      Ring.set_f r s 3 (float_of_int (2 * i))
    done
  in
  let lanes r =
    List.init (Ring.length r) (fun i ->
        let s = Ring.slot_of_index r i in
        ( (Ring.get_i r s 0, Ring.get_i r s 12),
          (Ring.get_f r s 0, Ring.get_f r s 3) ))
  in
  let expect lo n =
    List.init n (fun i ->
        let v = lo + i in
        ((v, -v), (float_of_int v, float_of_int (2 * v))))
  in
  let words =
    Alcotest.(list (pair (pair int int) (pair (float 0.) (float 0.))))
  in
  let r = Ring.create ~shard:0 ~capacity:8 in
  fill r ~from:0 20;
  Alcotest.(check int) "length capped at capacity" 8 (Ring.length r);
  Alcotest.(check int) "overwritten records counted" 12 (Ring.dropped r);
  Alcotest.(check int) "written counts every claim" 20 (Ring.written r);
  Alcotest.(check words) "retains the newest, oldest-to-newest, both lanes"
    (expect 12 8) (lanes r);
  Ring.reset r;
  Alcotest.(check int) "reset forgets the records" 0 (Ring.length r);
  Alcotest.(check int) "and the drop count" 0 (Ring.dropped r);
  let cap = (2 * 4096) + 5 in
  let r = Ring.create ~shard:0 ~capacity:cap in
  let n = cap + 4096 + 7 in
  fill r ~from:0 n;
  Alcotest.(check int) "chunked: length capped" cap (Ring.length r);
  Alcotest.(check int) "chunked: overwritten counted" (n - cap)
    (Ring.dropped r);
  Alcotest.(check words) "chunked: newest records in order on both lanes"
    (expect (n - cap) cap) (lanes r);
  Ring.reset r;
  fill r ~from:1 5000;
  Alcotest.(check int) "after reset: from slot 0" 0 (Ring.slot_of_index r 0);
  Alcotest.(check int) "after reset: nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check words) "after reset: the new records, in order"
    (expect 1 5000) (lanes r)

(* The null ring (an unbound domain) refuses every record. *)
let test_ring_null_refuses () =
  match Ring.claim Ring.null with
  | _ -> Alcotest.fail "null ring accepted a record"
  | exception Ring.Full -> ()

(* One event of each shape, with fields derived from the index and a
   strictly increasing timestamp so the decoder's sort is total. *)
let mk_event tag i =
  let time = float_of_int (i + 1) *. 1e-3 in
  let q = "rq" ^ string_of_int (i mod 3) in
  let kind = if i mod 2 = 0 then "data" else "ack" in
  match tag mod 9 with
  | 0 ->
    Trace.Pkt_enqueue
      { time; queue = q; flow = i; subflow = i mod 2; seq = i; kind;
        backlog = i mod 7 }
  | 1 ->
    Trace.Pkt_drop
      { time; queue = q; flow = i; subflow = 0; seq = i; kind;
        cause =
          (match i mod 4 with
          | 0 -> Trace.Overflow
          | 1 -> Trace.Red_early
          | 2 -> Trace.Random_loss
          | _ -> Trace.Link_down) }
  | 2 ->
    Trace.Pkt_forward
      { time; queue = q; flow = i; subflow = 0; seq = i; kind; bytes = 1500;
        qdelay = float_of_int i *. 1e-4 }
  | 3 ->
    Trace.Tcp_state
      { time; flow = i; subflow = 0; from_state = Trace.Slow_start;
        to_state = Trace.Congestion_avoidance }
  | 4 ->
    Trace.Cwnd_update
      { time; flow = i; subflow = 0; cwnd = float_of_int i;
        ssthresh = float_of_int i /. 2. }
  | 5 -> Trace.Rto_fired { time; flow = i; subflow = 0; rto = 0.25 }
  | 6 -> Trace.Rtt_sample { time; flow = i; subflow = 0; rtt = 0.01; srtt = 0.02 }
  | 7 -> Trace.Subflow_add { time; flow = i; subflow = 1 }
  | _ -> Trace.Subflow_remove { time; flow = i; subflow = 1 }

(* The merge property under the sharded CI gate, minus the simulator:
   however events are partitioned across per-shard rings, the decode is
   the one a single ring would produce. Timestamps are distinct, so the
   canonical order is unique and the test is exact. *)
let prop_decode_partition_invariant =
  QCheck.Test.make ~name:"ring decode is partition-invariant" ~count:75
    QCheck.(pair (small_list (pair (int_bound 8) (int_bound 3))) (int_range 1 4))
    (fun (cells, shards) ->
      let tagged =
        List.mapi (fun i (tag, s) -> (mk_event tag i, s mod shards)) cells
      in
      let decode groups =
        Trace.arm_rings ~capacity:4096 ();
        Fun.protect
          ~finally:(fun () -> Trace.disarm_rings ())
          (fun () ->
            Trace.set_dispatch_ctx ~sched:0. ~cls:0 ~flow:0 ~subflow:0 ~pseq:0
              ~kind:0;
            List.iter
              (fun (shard, evs) ->
                Trace.bind_ring ~shard;
                List.iter Trace.emit evs)
              groups;
            Trace.unbind_ring ();
            Trace.decode_rings ())
      in
      let single = decode [ (0, List.map fst tagged) ] in
      let sharded =
        decode
          (List.init shards (fun s ->
               ( s,
                 List.filter_map
                   (fun (ev, s') -> if s' = s then Some ev else None)
                   tagged )))
      in
      single = sharded)

(* One dispatch's records decode in the order they were written, even
   where structural order would flip them (a [Pkt_enqueue] sorts before
   a [Subflow_add]). The golden Reno run opens with the [tcp.start]
   dispatch: the subflow comes up, then its first segments queue. *)
let test_decode_keeps_dispatch_order () =
  let at = 0.5 in
  let (), events =
    Trace.capture ~capacity:16 (fun () ->
        Trace.set_dispatch_ctx ~sched:0. ~cls:0 ~flow:0 ~subflow:0 ~pseq:0
          ~kind:0;
        Trace.subflow_add ~time:at ~flow:1 ~subflow:0;
        Trace.pkt_enqueue ~time:at ~queue:(Trace.intern "order-q") ~flow:1
          ~subflow:0 ~seq:0 ~kind:0 ~backlog:1)
  in
  (match events with
  | [ Trace.Subflow_add _; Trace.Pkt_enqueue _ ] -> ()
  | _ -> Alcotest.fail "one dispatch's records were reordered");
  match Repro_check.Golden.record "reno-droptail" with
  | Trace.Subflow_add { time = 0.; flow = 0; subflow = 0 }
    :: Trace.Pkt_enqueue _ :: _ ->
    ()
  | _ -> Alcotest.fail "reno-droptail does not open with subflow_add"

(* A wired queue writes each departure record at admission, in the
   middle of the admitting dispatch. The record is a group of its own,
   keyed as the serve event it stands for, and the records around it
   stay one group: split in two, the dispatch's halves would share a
   key and re-sort by content (cwnd 1 before cwnd 2). *)
let test_decode_departure_keeps_dispatch () =
  let q = Trace.intern "depart-q" in
  let (), events =
    Trace.capture ~capacity:16 (fun () ->
        Trace.set_dispatch_ctx ~sched:0.25 ~cls:1 ~flow:3 ~subflow:0 ~pseq:7
          ~kind:0;
        Trace.cwnd_update ~time:1. ~flow:3 ~subflow:0 ~cwnd:2. ~ssthresh:9.;
        Trace.pkt_depart ~time:1.5 ~sched:1. ~queue:q ~flow:3 ~subflow:0
          ~seq:8 ~kind:0 ~bytes:1500 ~qdelay:0.5;
        Trace.cwnd_update ~time:1. ~flow:3 ~subflow:0 ~cwnd:1. ~ssthresh:9.;
        (* a later dispatch at the departure's own instant, armed after
           the departure's service started: the departure sorts first *)
        Trace.set_dispatch_ctx ~sched:1.25 ~cls:0 ~flow:0 ~subflow:0 ~pseq:0
          ~kind:0;
        Trace.subflow_add ~time:1.5 ~flow:4 ~subflow:0)
  in
  match events with
  | [
   Trace.Cwnd_update { cwnd = 2.; _ };
   Trace.Cwnd_update { cwnd = 1.; _ };
   Trace.Pkt_forward
     { time = 1.5; queue = "depart-q"; seq = 8; bytes = 1500; qdelay = 0.5; _ };
   Trace.Subflow_add { flow = 4; _ };
  ] ->
    ()
  | _ ->
    Alcotest.fail
      (Printf.sprintf "decoded %s"
         (String.concat "; "
            (List.map (fun e -> Json.to_string (Trace.to_json e)) events)))

(* A departure later than the ring's last horizon is a packet still
   queued when the run stopped: its serve event never ran, so the
   decode drops it. Without a noted horizon nothing is dropped. *)
let test_decode_drops_departures_past_horizon () =
  let q = Trace.intern "horizon-q" in
  let depart time =
    Trace.pkt_depart ~time ~sched:(time -. 0.5) ~queue:q ~flow:1 ~subflow:0
      ~seq:(int_of_float time) ~kind:0 ~bytes:1500 ~qdelay:0.5
  in
  let times evs =
    List.map
      (function Trace.Pkt_forward { time; _ } -> time | _ -> nan)
      evs
  in
  let (), kept =
    Trace.capture ~capacity:16 (fun () ->
        depart 2.;
        depart 3.;
        depart 4.;
        Trace.note_horizon 3.)
  in
  Alcotest.(check (list (float 0.))) "at or before the horizon" [ 2.; 3. ]
    (times kept);
  let (), all =
    Trace.capture ~capacity:16 (fun () ->
        depart 2.;
        depart 4.)
  in
  Alcotest.(check (list (float 0.))) "no horizon noted" [ 2.; 4. ] (times all);
  (* end to end: a wired queue with packets still queued at the
     horizon forwards, in the decode, exactly what it forwarded *)
  let sim = Sim.create () in
  let q =
    Queue.create ~sim ~rng:(Rng.create ~seed:1) ~rate_bps:12e6 ~buffer_pkts:20
      ~discipline:Queue.Droptail ~name:"horizon-wired" ()
  in
  let pipe = Pipe.create ~sim ~delay:0.01 in
  let route =
    [| Queue.wired_hop q (Queue.Pipe pipe); Pipe.hop pipe; Packet.free |]
  in
  let (), evs =
    Trace.capture ~capacity:256 (fun () ->
        Sim.schedule_at ~src:"test" sim 0.1 (fun () ->
            for i = 0 to 9 do
              Packet.forward
                (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0.1 ~route)
            done);
        (* 1 ms per packet: four have left by 0.1045 *)
        Sim.run_until sim 0.1045)
  in
  let forwards =
    List.filter (function Trace.Pkt_forward _ -> true | _ -> false) evs
  in
  Alcotest.(check int) "decoded forwards" 4 (List.length forwards);
  Alcotest.(check int) "queue's own count" (4 * Packet.data_size)
    (Queue.bytes_forwarded q);
  Alcotest.(check int) "still queued" 6 (Queue.backlog q)

(* The decoder against an oracle that restates the order it must
   produce, the simplest way: every ring's records cut into groups (one
   dispatch's run of records, departures skipped over and kept alone,
   departures past the horizon dropped), all groups sorted with
   [List.sort] on (time, sched, class, packet identity, content, ring
   registration, position), and their events concatenated. Batches draw
   few distinct keys, so groups tie on (time, sched), closure groups tie
   on the whole key with different content, packet groups share
   identities, departures land mid-dispatch and on both sides of the
   horizon, and the rings' order is arbitrary. *)
type oracle_record =
  | Written of Trace.event  (** by the dispatch, at the event's time *)
  | Departure of { time : float; sched : float; seq : int }

type oracle_dispatch = {
  d_sched : float;
  d_cls : int;
  d_id : int * int * int * int;  (** flow, subflow, pseq, kind *)
  d_records : oracle_record list;
}

type oracle_ring = {
  o_shard : int;
  o_horizon : float option;
  o_dispatches : oracle_dispatch list;
}

let departure_event ~time ~seq =
  Trace.Pkt_forward
    { time; queue = "oracle-q"; flow = 9; subflow = 0; seq; kind = "data";
      bytes = 1500; qdelay = 0.25 }

let gen_oracle_rings =
  let open QCheck.Gen in
  let event time =
    oneof
      [
        map2
          (fun flow cwnd ->
            Trace.Cwnd_update { time; flow; subflow = 0; cwnd; ssthresh = 8. })
          (int_bound 1) (oneofl [ 1.; 2. ]);
        map
          (fun flow -> Trace.Subflow_add { time; flow; subflow = 0 })
          (int_bound 1);
        map2
          (fun queue seq ->
            Trace.Pkt_enqueue
              {
                time; queue; flow = 0; subflow = 0; seq; kind = "data";
                backlog = 1;
              })
          (oneofl [ "oracle-a"; "oracle-b" ]) (int_bound 1);
      ]
  in
  let record time =
    frequency
      [
        (3, map (fun e -> Written e) (event time));
        (* a record written at a later instant splits its dispatch *)
        (1, map (fun e -> Written e) (event (time +. 0.25)));
        ( 2,
          map3
            (fun time sched seq -> Departure { time; sched; seq })
            (oneofl [ 1.; 1.5; 2.; 2.5 ]) (oneofl [ 0.5; 1. ]) (int_bound 1) );
      ]
  in
  let dispatch =
    oneofl [ 1.; 2. ] >>= fun time ->
    oneofl [ 0.; 0.5 ] >>= fun d_sched ->
    int_bound 1 >>= fun d_cls ->
    (if d_cls = 0 then return (0, 0, 0, 0)
     else
       map3 (fun f p k -> (f, 0, p, k)) (int_bound 1) (int_bound 1)
         (int_bound 1))
    >>= fun d_id ->
    list_size (int_range 1 3) (record time) >|= fun d_records ->
    { d_sched; d_cls; d_id; d_records }
  in
  int_range 1 4 >>= fun nr ->
  shuffle_l (List.init nr Fun.id) >>= fun shards ->
  flatten_l
    (List.map
       (fun o_shard ->
         map2
           (fun o_horizon o_dispatches -> { o_shard; o_horizon; o_dispatches })
           (opt (oneofl [ 1.5; 2. ]))
           (list_size (int_bound 6) dispatch))
       shards)

let emit_oracle_rings rings =
  List.iter
    (fun o ->
      Trace.bind_ring ~shard:o.o_shard;
      List.iter
        (fun d ->
          let flow, subflow, pseq, kind = d.d_id in
          Trace.set_dispatch_ctx ~sched:d.d_sched ~cls:d.d_cls ~flow ~subflow
            ~pseq ~kind;
          List.iter
            (function
              | Written e -> Trace.emit e
              | Departure { time; sched; seq } ->
                Trace.pkt_depart ~time ~sched ~queue:(Trace.intern "oracle-q")
                  ~flow:9 ~subflow:0 ~seq ~kind:0 ~bytes:1500 ~qdelay:0.25)
            d.d_records)
        o.o_dispatches;
      Option.iter Trace.note_horizon o.o_horizon)
    rings

let oracle_decode rings =
  let event_time = function
    | Trace.Cwnd_update { time; _ }
    | Trace.Subflow_add { time; _ }
    | Trace.Pkt_enqueue { time; _ } -> time
    | _ -> assert false
  in
  (* the dispatch ordinal counts dispatches across rings, as the
     emitting domain does; a group is (time, key, events, rank, pos) *)
  let ordinal = ref 0 in
  let ring_groups rank o =
    let horizon = Option.value o.o_horizon ~default:infinity in
    let pos = ref 0 and groups = ref [] and open_group = ref None in
    let close () =
      Option.iter
        (fun (_, t, k, evs, p) ->
          groups := (t, k, List.rev evs, rank, p) :: !groups)
        !open_group;
      open_group := None
    in
    List.iter
      (fun d ->
        incr ordinal;
        let flow, subflow, pseq, kind = d.d_id in
        let key = (d.d_sched, d.d_cls, flow, subflow, pseq, kind) in
        List.iter
          (fun r ->
            (match r with
            | Departure { time; sched; seq } ->
              if time <= horizon then
                groups :=
                  ( time, (sched, 0, 0, 0, 0, 0),
                    [ departure_event ~time ~seq ], rank, !pos )
                  :: !groups
            | Written e -> (
              let time = event_time e in
              match !open_group with
              | Some (ord, t, k, evs, p)
                when ord = !ordinal && Float.equal t time ->
                open_group := Some (ord, t, k, e :: evs, p)
              | _ ->
                close ();
                open_group := Some (!ordinal, time, key, [ e ], !pos)));
            incr pos)
          d.d_records)
      o.o_dispatches;
    close ();
    !groups
  in
  let compare_group (t1, (s1, c1, f1, u1, p1, k1), e1, r1, q1)
      (t2, (s2, c2, f2, u2, p2, k2), e2, r2, q2) =
    let ( >>> ) c next = if c <> 0 then c else next () in
    Float.compare t1 t2 >>> fun () ->
    Float.compare s1 s2 >>> fun () ->
    compare (c1, f1, u1, p1, k1) (c2, f2, u2, p2, k2) >>> fun () ->
    compare e1 e2 >>> fun () -> compare (r1, q1) (r2, q2)
  in
  List.concat_map
    (fun (_, _, evs, _, _) -> evs)
    (List.sort compare_group (List.concat (List.mapi ring_groups rings)))

let prop_decode_matches_oracle =
  QCheck.Test.make ~name:"ring decode matches the sorting oracle" ~count:300
    (QCheck.make gen_oracle_rings) (fun rings ->
      let decoded =
        Trace.arm_rings ~capacity:256 ();
        Fun.protect ~finally:Trace.disarm_rings (fun () ->
            emit_oracle_rings rings;
            Trace.unbind_ring ();
            Trace.decode_rings ())
      in
      decoded = oracle_decode rings)

(* An armed emission needs a ring: on a domain that never bound one it
   raises instead of vanishing. *)
let test_unbound_emission_raises () =
  Trace.arm_rings ~capacity:16 ();
  Fun.protect ~finally:Trace.disarm_rings (fun () ->
      Alcotest.check_raises "unbound domain" Ring.Full (fun () ->
          Trace.subflow_add ~time:0. ~flow:0 ~subflow:0))

(* A capture that outgrows its rings fails with the drop count and the
   capacity the run needs, instead of returning a truncated decode. *)
let test_capture_overflow () =
  (match
     Trace.capture ~capacity:8 (fun () ->
         for i = 1 to 20 do
           Trace.subflow_add ~time:(float_of_int i) ~flow:i ~subflow:0
         done)
   with
  | _ -> Alcotest.fail "an overflowed capture returned events"
  | exception Trace.Overflow { dropped; needed } ->
    Alcotest.(check int) "dropped" 12 dropped;
    Alcotest.(check int) "needed" 20 needed);
  Alcotest.(check bool) "disarmed after the overflow" false (Trace.enabled ())

(* Same build probe as test_timer.ml: dev builds pass [-opaque], which
   discards the cross-module inlining info the unboxed call paths rely
   on. Probe with Sim's own inlined schedule path to classify. *)
let build_inlines_hot_paths () =
  let sim = Repro_netsim.Sim.create () in
  let fn () = () in
  let sched i =
    Repro_netsim.Sim.Timer.cancel sim
      (Repro_netsim.Sim.schedule_after ~src:"canary" sim
         (float_of_int i *. 1e-9) fn)
  in
  for i = 1 to 100 do
    sched i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    sched i
  done;
  let w1 = Gc.minor_words () in
  w1 -. w0 < 100.

(* The tentpole's allocation contract, Gc-asserted: armed ring-mode
   emission writes fixed-width records without touching the minor heap.
   Exact in inlining (release) builds; dev builds box each float
   argument at the non-inlined call boundary, so a loose per-event
   bound still catches a record or closure picked up per event. The
   measured burst crosses two 4096-record chunk boundaries, so the
   first-lap chunk allocations it makes must land in the major heap. *)
let test_armed_emission_zero_alloc () =
  Trace.arm_rings ~capacity:(1 lsl 14) ();
  Fun.protect
    ~finally:(fun () -> Trace.disarm_rings ())
    (fun () ->
      Trace.bind_ring ~shard:0;
      let q = Trace.intern "zeroalloc-q" in
      Trace.set_dispatch_ctx ~sched:0. ~cls:1 ~flow:1 ~subflow:0 ~pseq:0
        ~kind:0;
      let burst n =
        for i = 1 to n do
          let t = float_of_int i *. 1e-6 in
          Trace.pkt_forward ~time:t ~queue:q ~flow:1 ~subflow:0 ~seq:i ~kind:0
            ~bytes:1500 ~qdelay:t;
          Trace.cwnd_update ~time:t ~flow:1 ~subflow:0 ~cwnd:t ~ssthresh:t;
          Trace.rtt_sample ~time:t ~flow:1 ~subflow:0 ~rtt:t ~srtt:t;
          Trace.pkt_depart ~time:t ~sched:t ~queue:q ~flow:1 ~subflow:0 ~seq:i
            ~kind:0 ~bytes:1500 ~qdelay:t
        done
      in
      burst 200 (* warm-up: allocate chunk 0, populate DLS *);
      let w0 = Gc.minor_words () in
      burst 2000;
      let w1 = Gc.minor_words () in
      let events = 4 * 2000 in
      Alcotest.(check int) "no overflow during the burst" 0
        (Trace.rings_dropped ());
      Alcotest.(check bool) "records landed in the ring" true
        (List.length (Trace.decode_rings ()) = 4 * 2200);
      if Sys.backend_type = Sys.Native then
        if build_inlines_hot_paths () then
          Alcotest.(check (float 0.))
            (Printf.sprintf "minor words for %d armed emissions" events)
            0. (w1 -. w0)
        else begin
          let per_ev = (w1 -. w0) /. float_of_int events in
          Alcotest.(check bool)
            (Printf.sprintf "minor words per event (%.1f) < 16" per_ev)
            true (per_ev < 16.)
        end)

(* The decode and the fold allocate a fixed amount per record, counted
   with [Gc.allocated_bytes] (which also sees the decoder's major-heap
   arrays) on the golden report's Scenario B capture. That counter only
   sees the minor heap up to its last collection, so each reading
   empties it first. The bounds sit just above the counts this code
   makes (release: 18.2 words per record for the decode, 1.5 for the
   fold; the sort-based decoder and the tuple-keyed fold made 52.6 and
   8.3): the decode allocates its events, their list and its group
   arrays, the fold little beyond the cwnd timelines' growth. Dev
   builds box float reads at the non-inlined ring accessors, so their
   decode bound is looser. *)
let test_decode_feed_alloc () =
  let config =
    { S.Scen_b.default with n = 4; cx_mbps = 8.; ct_mbps = 10.; duration = 8.;
      warmup = 2. }
  in
  let allocated_words () =
    Gc.minor ();
    Gc.allocated_bytes () /. 8.
  in
  Trace.arm_rings ~capacity:(1 lsl 16) ();
  Fun.protect ~finally:Trace.disarm_rings (fun () ->
      Trace.bind_ring ~shard:0;
      ignore (S.Scen_b.run config);
      let w0 = allocated_words () in
      let events = Trace.decode_rings () in
      let w1 = allocated_words () in
      let acc = Report.create () in
      List.iter (Report.feed acc) events;
      let w2 = allocated_words () in
      let records = float_of_int (List.length events) in
      let decode = (w1 -. w0) /. records and feed = (w2 -. w1) /. records in
      let strict =
        Sys.backend_type = Sys.Native && build_inlines_hot_paths ()
      in
      let check what words bound =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.2f words per record <= %g" what words bound)
          true (words <= bound)
      in
      Alcotest.(check bool) "a real capture" true (records > 20_000.);
      check "decode_rings" decode (if strict then 18.5 else 25.);
      check "Report.feed" feed 1.5)

(* A ring's storage follows its records: creating one allocates only
   its chunk table, the first claim allocates one 4096-record chunk (13
   int and 4 float words a record), and the rest of that chunk's claims
   allocate nothing. Words come from [Gc.allocated_bytes] read after
   emptying the minor heap (as in [test_decode_feed_alloc]), less what
   an empty measurement counts. *)
let test_ring_storage_follows_records () =
  let words f =
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    f ();
    Gc.minor ();
    (Gc.allocated_bytes () -. b0) /. 8.
  in
  let base = words ignore in
  let ring = ref Ring.null in
  let create =
    words (fun () -> ring := Ring.create ~shard:0 ~capacity:(1 lsl 22))
    -. base
  in
  let r = !ring in
  Alcotest.(check bool)
    (Printf.sprintf "a 2^22-record ring arms in %.0f words < 64 KiB" create)
    true
    (create *. 8. < 65536.);
  let first = words (fun () -> ignore (Ring.claim r : int)) -. base in
  let chunk = float_of_int (4096 * (13 + 4)) in
  Alcotest.(check bool)
    (Printf.sprintf "the first claim allocates one chunk (%.0f words)" first)
    true
    (first >= chunk && first < chunk +. 64.);
  let rest =
    words (fun () ->
        for _ = 2 to 4096 do
          ignore (Ring.claim r : int)
        done)
    -. base
  in
  Alcotest.(check (float 0.)) "the next 4095 claims allocate nothing" 0. rest;
  Alcotest.(check int) "one chunk written" 4096 (Ring.length r)

(* --- event-loop profiler ----------------------------------------------- *)

let test_profile_accounting () =
  Alcotest.(check bool) "tests run unprofiled" false (Profile.enabled ());
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      Profile.dispatch ~src:"a" (fun () -> ());
      Profile.dispatch ~src:"a" (fun () -> ());
      Profile.dispatch ~src:"b" (fun () -> ());
      let entries = Profile.report () in
      let find src =
        match List.find_opt (fun e -> e.Profile.src = src) entries with
        | Some e -> e
        | None -> Alcotest.fail ("no profile entry for " ^ src)
      in
      Alcotest.(check int) "a dispatched twice" 2 (find "a").Profile.count;
      Alcotest.(check int) "b dispatched once" 1 (find "b").Profile.count;
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (e.Profile.src ^ " wall time non-negative")
            true (e.Profile.wall_s >= 0.))
        entries;
      Profile.reset ();
      Alcotest.(check int) "reset drops totals" 0
        (List.length (Profile.report ())))

let test_profile_attributes_sim_sources () =
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed:1 in
      let q =
        Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:5
          ~discipline:Queue.Droptail ()
      in
      let sink (_ : Packet.t) = () in
      let route = [| Queue.hop q; sink |] in
      Sim.schedule_at ~src:"test.burst" sim 0. (fun () ->
          for i = 0 to 19 do
            Packet.forward
              (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route)
          done);
      Sim.run sim;
      let entries = Profile.report () in
      (match List.find_opt (fun e -> e.Profile.src = "queue.serve") entries with
      | None -> Alcotest.fail "no attribution for queue.serve"
      | Some e ->
        Alcotest.(check bool) "queue.serve dispatched" true (e.Profile.count > 0));
      (* the burst scheduled above has a bucket of its own *)
      (match List.find_opt (fun e -> e.Profile.src = "test.burst") entries with
      | None -> Alcotest.fail "no attribution for test.burst"
      | Some e -> Alcotest.(check int) "one burst dispatch" 1 e.Profile.count);
      let table = Repro_stats.Table.to_string (Profile.to_table entries) in
      Alcotest.(check bool)
        "table renders the hot source" true
        (let sub = "queue.serve" in
         let n = String.length sub and m = String.length table in
         let rec go i = i + n <= m && (String.sub table i n = sub || go (i + 1)) in
         go 0))

let suite =
  [
    Alcotest.test_case "every event variant round-trips JSONL" `Quick
      test_event_round_trip;
    Alcotest.test_case "malformed events rejected" `Quick test_event_bad_json;
    Alcotest.test_case "JSONL file sink" `Quick test_jsonl_sink;
    Alcotest.test_case "meter counters agree with Monitor and Queue" `Quick
      test_counters_match_monitor;
    Alcotest.test_case "scenario runs export obs_* metrics" `Quick
      test_scenario_metrics_exported;
    Alcotest.test_case "tracing changes nothing but emits events" `Quick
      test_tracing_off_noop;
    Alcotest.test_case "snapshot round-trips" `Quick test_snapshot_round_trip;
    Alcotest.test_case "snapshot read rejects foreign schemas" `Quick
      test_snapshot_read_rejects;
    Alcotest.test_case "regression gate flags slowdowns" `Quick
      test_regressions_flag_slowdowns;
    Alcotest.test_case "regression gate derives tolerance from spread" `Quick
      test_regressions_derive_tolerance;
    Alcotest.test_case "report accumulates queue and subflow stats" `Quick
      test_report_accumulates;
    Alcotest.test_case "report replays JSONL traces offline" `Quick
      test_report_jsonl_round_trip;
    Alcotest.test_case "report rejects malformed trace lines" `Quick
      test_report_jsonl_rejects_bad_line;
    Alcotest.test_case "report JSON byte-identical across runs" `Quick
      test_report_deterministic_across_runs;
    Alcotest.test_case "sweeps run with trace rings armed" `Slow
      test_sweep_rings;
    Alcotest.test_case "ring wraparound keeps the newest records" `Quick
      test_ring_wraparound;
    Alcotest.test_case "null ring refuses records" `Quick
      test_ring_null_refuses;
    QCheck_alcotest.to_alcotest prop_decode_partition_invariant;
    Alcotest.test_case "decode keeps each dispatch's order" `Quick
      test_decode_keeps_dispatch_order;
    Alcotest.test_case "departure record does not split its dispatch" `Quick
      test_decode_departure_keeps_dispatch;
    Alcotest.test_case "decode drops departures past the horizon" `Quick
      test_decode_drops_departures_past_horizon;
    Alcotest.test_case "unbound armed emission raises" `Quick
      test_unbound_emission_raises;
    Alcotest.test_case "ring overflow fails the capture" `Quick
      test_capture_overflow;
    Alcotest.test_case "armed ring emission stays off the minor heap" `Quick
      test_armed_emission_zero_alloc;
    Alcotest.test_case "profiler accounts dispatches per source" `Quick
      test_profile_accounting;
    Alcotest.test_case "profiler attributes event-loop sources" `Quick
      test_profile_attributes_sim_sources;
    Alcotest.test_case "gate reports an ungated entry" `Quick
      test_gate_reports_ungated;
    Alcotest.test_case "gate fails a missing entry" `Quick
      test_gate_fails_missing_entry;
    Alcotest.test_case "gate fails a non-finite or non-positive value" `Quick
      test_gate_fails_invalid_value;
    Alcotest.test_case "snapshot read refuses schema 1 by name" `Quick
      test_snapshot_read_refuses_schema_1;
    (* Cases added later go below, so the ones above keep their indices. *)
    Alcotest.test_case "report folds equal queue names into one" `Quick
      test_report_queue_name_fallback;
    Alcotest.test_case "report: a re-added subflow dwells again" `Quick
      test_report_readded_subflow_dwell;
    QCheck_alcotest.to_alcotest prop_decode_matches_oracle;
    Alcotest.test_case "decode and fold allocate a bounded amount per record"
      `Quick test_decode_feed_alloc;
    Alcotest.test_case "ring storage follows the records written" `Quick
      test_ring_storage_follows_records;
  ]
