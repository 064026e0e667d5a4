open Repro_netsim
module Trace = Repro_obs.Trace
module Json = Repro_stats.Json

(* Golden regression: small canonical runs recorded under
   [test/golden/]. Four hand-built rigs pin their full event streams;
   the comparator zeroes every timestamp before comparing, so a golden
   trace pins the *semantic* event sequence — which packets were
   enqueued, forwarded, dropped (and why), every cwnd move and state
   transition — while timing-only refactors of the simulator stay
   invisible to it. Two flight-recorder reports and the outcome of
   every registry scenario are pinned beside them. *)

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

(* A short transfer over two asymmetric paths under [cc]: exercises
   coupled window increases and the per-subflow event attribution. Run
   with OLIA and with its fixed-point kernel twin, it pins the integer
   CC's event stream byte-for-byte too, so every cwnd move the scaled
   arithmetic produces is deterministic across runs (and trivially
   across shard counts — the trace is a single-wheel run). *)
let two_path cc () =
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
    Tcp.create ~sim ~cc:(cc ()) ~paths ~size_pkts:120 ~flow_id:0 ()
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

(* --- reports ------------------------------------------------------------ *)

(* One canonical flight-recorder report: a small fixed-seed Scenario B
   run analyzed with Obs.Report. Unlike the traces above, the report
   keeps its timestamps — the document is a pure function of the seed,
   so it is byte-reproducible and CI can regenerate it from the CLI:

     olia_sim run scenario-b -p n=4 -p cx=8 -p ct=10 \
       -p duration=8 -p warmup=2 --report report_ci.json

   Its olia-fp twin pins the fixed-point path end to end through the
   flight recorder. *)
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

(* --- outcomes ----------------------------------------------------------- *)

(* Every registry scenario at small parameters, recorded as the document
   [olia_sim run <scenario> -p ... --out <file>] writes: the scenario
   name, its resolved parameters and its [Outcome.to_json]. Each CC of
   [Repro_cc.Registry] runs on scenario B; the set takes about a
   second. *)
let outcome_runs =
  let testbed = [ "duration=10"; "warmup=2" ] in
  let tree = [ "k=4"; "duration=3"; "warmup=1" ] in
  let sharded = [ "k=4"; "flows_per_host=2"; "duration=2"; "warmup=0.5" ] in
  let algo a =
    let a = if a = "coupled:<eps>" then "coupled:1" else a in
    ( "scenario-b-" ^ String.map (function ':' -> '-' | c -> c) a,
      "scenario-b",
      ("algo=" ^ a) :: testbed )
  in
  [
    ("scenario-a", "scenario-a", testbed);
    ("scenario-b", "scenario-b", testbed);
    ("scenario-c", "scenario-c", testbed);
    ("two-bottleneck", "two-bottleneck", [ "duration=10" ]);
    ( "responsiveness",
      "responsiveness",
      [ "duration=10"; "shock_at=3"; "relief_at=6" ] );
    ("wireless", "wireless", testbed);
    ("fattree", "fattree", tree);
    ("fattree-dynamic", "fattree-dynamic", tree);
    ("fattree-sharded-1", "fattree-sharded", "shards=1" :: sharded);
    ("fattree-sharded-2", "fattree-sharded", "shards=2" :: sharded);
  ]
  @ List.map algo (List.filter (( <> ) "olia") Repro_cc.Registry.names)
  @ [
      ("scenario-b-singlepath", "scenario-b", "red_multipath=false" :: testbed);
      ("scenario-c-background", "scenario-c", "background=3" :: testbed);
      ("scenario-c-path-manager", "scenario-c", "path_manager=true" :: testbed);
    ]

let outcome_of scenario params =
  let (module Sc : Repro_scenarios.Registry.SCENARIO) =
    Repro_scenarios.Registry.find scenario
  in
  let bindings = List.map (Repro_exp.Spec.parse_assign Sc.spec) params in
  Json.Obj
    [
      ("scenario", Json.String scenario);
      ("params", Repro_exp.Spec.to_json Sc.spec bindings);
      ("outcome", Repro_exp.Outcome.to_json (Sc.run bindings));
    ]

(* --- comparison --------------------------------------------------------- *)

(* Timestamps carry no semantic weight in a trace: they are kept in the
   golden files for human debugging but zeroed on both sides before
   comparing. *)
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

let load_events file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line -> (
          match Result.bind (Json.of_string line) Trace.of_json with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" file lineno e)
          | Ok ev -> go (ev :: acc) (lineno + 1))
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

(* Semantic comparison of JSON documents: both sides are parsed and
   re-serialized through the Json printer, so formatting differences
   (whitespace, a hand-edited golden file) don't register — only value
   changes do. The error pinpoints the first diverging byte of the
   canonical forms. *)
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
         "%s: diverges from golden at byte %d:\n  golden: …%s…\n  \
          got:    …%s…"
         name !i (ctx w) (ctx g))
  end

(* Outcomes compare field by field ([Outcome.bitwise_diff]) after both
   sides went through JSON: a non-finite value compares as the [null]
   it prints as, so it matches any non-finite value and no finite one.
   With no field differing, the documents must still be identical,
   which pins the parameters and the field order. *)
let compare_outcome ~name ~want ~got =
  let module O = Repro_exp.Outcome in
  let outcome = function
    | Json.Obj fields when List.mem_assoc "outcome" fields ->
      O.of_json (List.assoc "outcome" fields)
    | _ -> Error "no outcome"
  in
  match (outcome want, outcome got) with
  | Error e, _ | _, Error e -> Error (Printf.sprintf "%s: %s" name e)
  | Ok w, Ok g -> (
    match
      List.filter
        (fun (d : O.field_diff) -> d.differing > 0)
        (O.bitwise_diff ~exempt:[] w g)
    with
    | [] -> compare_json ~name ~want ~got
    | diffs ->
      Error
        (String.concat "\n  "
           (Printf.sprintf "%s: %d field(s) differ from the golden:" name
              (List.length diffs)
           :: List.map
                (fun (d : O.field_diff) ->
                  Printf.sprintf "%s: %d of %d value(s), max |diff| %.6g"
                    d.field d.differing d.values d.max_abs_diff)
                diffs)))

(* --- the golden registry ------------------------------------------------ *)

(* A trace rig pins its decoded events; a report or an outcome pins a
   JSON document, recorded by its thunk and compared by its own
   comparator. *)
type golden =
  | Trace of (unit -> unit)
  | Json of
      (unit -> Json.t)
      * (name:string -> want:Json.t -> got:Json.t -> (unit, string) result)

let goldens =
  let report config = Json ((fun () -> report_of config), compare_json) in
  [
    ("reno-droptail", Trace reno_droptail);
    ("olia-two-path", Trace (two_path Repro_cc.Olia.create));
    ("olia-fp-two-path", Trace (two_path Repro_cc.Olia_fp.create));
    ("fault-flap", Trace fault_flap);
    ("report-scen-b", report report_scen_b_config);
    ("report-scen-b-olia-fp", report { report_scen_b_config with algo = "olia-fp" });
  ]
  @ List.map
      (fun (name, scenario, params) ->
        ( "outcomes/" ^ name,
          Json ((fun () -> outcome_of scenario params), compare_outcome) ))
      outcome_runs

let names = List.map fst goldens

let find name =
  match List.assoc_opt name goldens with
  | Some g -> g
  | None ->
    invalid_arg
      (Printf.sprintf "Golden: unknown golden %S (have: %s)" name
         (String.concat ", " names))

let record name =
  match find name with
  | Trace f -> collect f
  | Json _ -> invalid_arg ("Golden.record: not a trace: " ^ name)

let path ~dir name =
  Filename.concat dir
    (name ^ match find name with Trace _ -> ".jsonl" | Json _ -> ".json")

let update ~dir name =
  let path = path ~dir name in
  if not (Sys.file_exists (Filename.dirname path)) then
    Sys.mkdir (Filename.dirname path) 0o755;
  match find name with
  | Trace f -> Trace.write_jsonl ~path (collect f)
  | Json (doc, _) ->
    (* lint: allow R11 -- the scenarios meter their runs (wall time shown to the operator), but the JSON trees written here hold only seeded simulation outputs, byte-compared in CI *)
    Json.write ~path (doc ())

let update_all ~dir = List.iter (update ~dir) names

let check ~dir name =
  let file = path ~dir name in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "golden %s missing (run with --update-golden)" file)
  else
    match find name with
    | Trace f ->
      Result.bind (load_events file) (fun want ->
          compare_events ~name ~want ~got:(collect f))
    | Json (doc, compare) -> (
      match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
      | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" file e)
      | Ok want -> compare ~name ~want ~got:(doc ()))
