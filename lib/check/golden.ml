open Repro_netsim
module Trace = Repro_obs.Trace
module Json = Repro_stats.Json

(* Golden-trace regression: three small canonical runs whose full event
   streams are recorded under [test/golden/]. The comparator zeroes
   every timestamp before comparing, so a golden check pins the
   *semantic* event sequence — which packets were enqueued, forwarded,
   dropped (and why), every cwnd move and state transition — while
   timing-only refactors of the simulator stay invisible to it. *)

(* Every golden run captures through the trace rings, like
   `olia_sim run --trace`. The capacity holds the largest fixture (a
   report run, about 35k records) with room to spare; an overflow
   raises [Trace.Overflow] rather than pinning a truncated stream. *)
let ring_capacity = 1 lsl 16

let collect f = snd (Trace.capture ~capacity:ring_capacity f)

let one_way = 0.02

let mk_queue ~sim ~rng ~rate_bps ~buffer_pkts name =
  Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps ~buffer_pkts
    ~discipline:Queue.Droptail ~name ()

(* A short Reno transfer through one tight droptail bottleneck: slow
   start, overflow drops, fast recovery — the core single-path machinery
   in one trace. *)
let reno_droptail () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let q = mk_queue ~sim ~rng ~rate_bps:2e6 ~buffer_pkts:8 "gold-bneck" in
  let fwd = Pipe.create ~sim ~delay:one_way in
  let rev = Pipe.create ~sim ~delay:one_way in
  let paths =
    [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rev |] } |]
  in
  let _conn =
    Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths ~size_pkts:80
      ~flow_id:0 ()
  in
  Sim.run_until sim 60.

(* A short OLIA transfer over two asymmetric paths: exercises coupled
   window increases and the per-subflow event attribution. *)
let olia_two_path () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let q0 = mk_queue ~sim ~rng ~rate_bps:2e6 ~buffer_pkts:10 "gold-p0" in
  let q1 = mk_queue ~sim ~rng ~rate_bps:1e6 ~buffer_pkts:6 "gold-p1" in
  let pipe delay = Pipe.create ~sim ~delay in
  let fwd0 = pipe one_way and rev0 = pipe one_way in
  let fwd1 = pipe 0.035 and rev1 = pipe 0.035 in
  let paths =
    [|
      { Tcp.fwd = [| Queue.hop q0; Pipe.hop fwd0 |]; rev = [| Pipe.hop rev0 |] };
      { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd1 |]; rev = [| Pipe.hop rev1 |] };
    |]
  in
  let _conn =
    Tcp.create ~sim ~cc:(Repro_cc.Olia.create ()) ~paths ~size_pkts:120
      ~flow_id:0 ()
  in
  Sim.run_until sim 60.

(* A finite transfer through a flapping link: pins the fault-injection
   event stream — [link_down] drops during the outage, the RTO ladder,
   and recovery once the gate reopens. *)
let fault_flap () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:13 in
  let q = mk_queue ~sim ~rng ~rate_bps:2e6 ~buffer_pkts:10 "gold-flap" in
  let fwd = Pipe.create ~sim ~delay:one_way in
  let rev = Pipe.create ~sim ~delay:one_way in
  let gate = Fault.create ~sim ~rng:(Rng.split rng) ~name:"gold-gate" () in
  let paths =
    [|
      {
        Tcp.fwd = [| Fault.hop gate; Queue.hop q; Pipe.hop fwd |];
        rev = [| Pipe.hop rev |];
      };
    |]
  in
  let _conn =
    (* 600 pkts at 2 Mb/s ≈ 3.6 s of traffic: the transfer straddles the
       [2 s, 4 s) outage, so the trace contains link_down drops, the RTO
       ladder and the post-outage recovery. *)
    Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths ~size_pkts:600
      ~flow_id:0 ()
  in
  Fault.schedule_flap gate ~down_at:2. ~up_at:4.;
  Sim.run_until sim 120.

(* The same two-path transfer on the fixed-point kernel twin: pins the
   integer CC's event stream byte-for-byte, so every cwnd move the
   scaled arithmetic produces is deterministic across runs (and trivially
   across shard counts — the trace is a single-wheel run). *)
let olia_fp_two_path () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let q0 = mk_queue ~sim ~rng ~rate_bps:2e6 ~buffer_pkts:10 "gold-p0" in
  let q1 = mk_queue ~sim ~rng ~rate_bps:1e6 ~buffer_pkts:6 "gold-p1" in
  let pipe delay = Pipe.create ~sim ~delay in
  let fwd0 = pipe one_way and rev0 = pipe one_way in
  let fwd1 = pipe 0.035 and rev1 = pipe 0.035 in
  let paths =
    [|
      { Tcp.fwd = [| Queue.hop q0; Pipe.hop fwd0 |]; rev = [| Pipe.hop rev0 |] };
      { Tcp.fwd = [| Queue.hop q1; Pipe.hop fwd1 |]; rev = [| Pipe.hop rev1 |] };
    |]
  in
  let _conn =
    Tcp.create ~sim ~cc:(Repro_cc.Olia_fp.create ()) ~paths ~size_pkts:120
      ~flow_id:0 ()
  in
  Sim.run_until sim 60.

let scenarios =
  [
    ("reno-droptail", reno_droptail);
    ("olia-two-path", olia_two_path);
    ("olia-fp-two-path", olia_fp_two_path);
    ("fault-flap", fault_flap);
  ]

let names = List.map fst scenarios

let record name =
  match List.assoc_opt name scenarios with
  | Some f -> collect f
  | None ->
      invalid_arg
        (Printf.sprintf "Golden.record: unknown scenario %S (have: %s)" name
           (String.concat ", " names))

(* Timestamps carry no semantic weight here: they are kept in the golden
   files for human debugging but zeroed on both sides before comparing. *)
let canon : Trace.event -> Trace.event = function
  | Trace.Pkt_enqueue r -> Trace.Pkt_enqueue { r with time = 0. }
  | Trace.Pkt_drop r -> Trace.Pkt_drop { r with time = 0. }
  | Trace.Pkt_forward r -> Trace.Pkt_forward { r with time = 0. }
  | Trace.Tcp_state r -> Trace.Tcp_state { r with time = 0. }
  | Trace.Cwnd_update r -> Trace.Cwnd_update { r with time = 0. }
  | Trace.Rto_fired r -> Trace.Rto_fired { r with time = 0. }
  | Trace.Rtt_sample r -> Trace.Rtt_sample { r with time = 0. }
  | Trace.Subflow_add r -> Trace.Subflow_add { r with time = 0. }
  | Trace.Subflow_remove r -> Trace.Subflow_remove { r with time = 0. }

let path ~dir name = Filename.concat dir (name ^ ".jsonl")

let update ~dir name = Trace.write_jsonl ~path:(path ~dir name) (record name)

let load ~dir name =
  let file = path ~dir name in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "golden file %s missing (run with --update-golden)" file)
  else
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc lineno =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | line -> (
              match Json.of_string line with
              | Error e ->
                  Error (Printf.sprintf "%s:%d: bad JSON: %s" file lineno e)
              | Ok j -> (
                  match Trace.of_json j with
                  | Error e ->
                      Error
                        (Printf.sprintf "%s:%d: bad event: %s" file lineno e)
                  | Ok ev -> go (ev :: acc) (lineno + 1)))
        in
        go [] 1)

let show e = Json.to_string (Trace.to_json (canon e))

(* First-divergence diff over the canonicalized streams. Events are
   compared in their serialized form: non-finite floats print as [null]
   on both sides (a recorded [infinity] ssthresh reads back as nan), so
   comparing the JSON lines is what makes recording round-trip. *)
let compare_events ~name ~want ~got =
  let rec go i want got =
    match (want, got) with
    | [], [] -> Ok ()
    | w :: _, [] ->
        Error
          (Printf.sprintf "%s: trace truncated at event %d; golden has %s" name
             i (show w))
    | [], g :: _ ->
        Error
          (Printf.sprintf "%s: %d extra event(s) past the golden trace; first: %s"
             name (List.length got) (show g))
    | w :: ws, g :: gs ->
        if show w = show g then go (i + 1) ws gs
        else
          Error
            (Printf.sprintf "%s: first divergence at event %d:\n  golden: %s\n  got:    %s"
               name i (show w) (show g))
  in
  go 0 want got

let check ~dir name =
  match load ~dir name with
  | Error _ as e -> e
  | Ok want -> compare_events ~name ~want ~got:(record name)

(* --- golden reports --------------------------------------------------- *)

(* One canonical flight-recorder report: a small fixed-seed Scenario B
   run analyzed with Obs.Report. Unlike the traces above, the report
   keeps its timestamps — the document is a pure function of the seed,
   so it is byte-reproducible and CI can regenerate it from the CLI:

     olia_sim run scenario-b -p n=4 -p cx=8 -p ct=10 \
       -p duration=8 -p warmup=2 --report report_ci.json *)

let report_scen_b_config =
  {
    Repro_scenarios.Scen_b.default with
    n = 4;
    cx_mbps = 8.;
    ct_mbps = 10.;
    duration = 8.;
    warmup = 2.;
  }

let report_of config =
  let acc = Repro_obs.Report.create () in
  List.iter (Repro_obs.Report.feed acc)
    (collect (fun () -> ignore (Repro_scenarios.Scen_b.run config)));
  Repro_obs.Report.to_json acc

let report_scen_b () = report_of report_scen_b_config

(* The Scenario B fixture again with the olia-fp backend: the golden
   report is a pure function of the seed and the integer update rules,
   so it pins the fixed-point path end to end through the flight
   recorder. *)
let report_scen_b_olia_fp () =
  report_of { report_scen_b_config with algo = "olia-fp" }

let report_scenarios =
  [
    ("report-scen-b", report_scen_b);
    ("report-scen-b-olia-fp", report_scen_b_olia_fp);
  ]
let report_names = List.map fst report_scenarios

let record_report name =
  match List.assoc_opt name report_scenarios with
  | Some f -> f ()
  | None ->
      invalid_arg
        (Printf.sprintf "Golden.record_report: unknown report %S (have: %s)"
           name
           (String.concat ", " report_names))

let report_path ~dir name = Filename.concat dir (name ^ ".json")

let update_report ~dir name =
  (* lint: allow R11 -- the scenario meters its run (wall time shown to the operator), but the JSON tree written here holds only seeded simulation outputs, byte-compared in CI *)
  Json.write ~path:(report_path ~dir name) (record_report name)

(* Semantic comparison: both sides are parsed and re-serialized through
   the Json printer, so formatting differences (whitespace, a hand-
   edited golden file) don't register — only value changes do. The
   error pinpoints the first diverging byte of the canonical forms. *)
let compare_json ~name ~want ~got =
  let w = Json.to_string want and g = Json.to_string got in
  if w = g then Ok ()
  else begin
    let n = Stdlib.min (String.length w) (String.length g) in
    let i = ref 0 in
    while !i < n && w.[!i] = g.[!i] do incr i done;
    let ctx s =
      let from = Stdlib.max 0 (!i - 30) in
      let len = Stdlib.min 60 (String.length s - from) in
      String.sub s from len
    in
    Error
      (Printf.sprintf
         "%s: report diverges from golden at byte %d:\n  golden: …%s…\n  \
          got:    …%s…"
         name !i (ctx w) (ctx g))
  end

let check_report ~dir name =
  let file = report_path ~dir name in
  if not (Sys.file_exists file) then
    Error
      (Printf.sprintf "golden report %s missing (run with --update-golden)"
         file)
  else
    match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
    | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" file e)
    | Ok want -> compare_json ~name ~want ~got:(record_report name)

let update_all ~dir =
  List.iter (fun (n, _) -> update ~dir n) scenarios;
  List.iter (fun (n, _) -> update_report ~dir n) report_scenarios
