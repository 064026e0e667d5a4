(* The repository benchmark. One process runs one workload on one
   domain, as a closed batch: one simulation at a time, no host-side
   arrivals.

     main.exe --workload <ft-perm|ft-short|paper-report> --seed <n>
              --seconds <s> --trace <0|1>

   --trace 0 times the workload and prints the end-to-end metrics;
   --trace 1 is a separate run that wraps each layer's entry points in
   spans and prints the per-layer metrics. Either way every pass's
   simulated outcome is checked against the reference for the seed, and
   the last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. perfbench/README.md
   lists the metrics and what each should move. *)

open Repro_netsim
module Trace = Repro_obs.Trace
module Report = Repro_obs.Report
module Profile = Repro_obs.Profile
module Json = Repro_stats.Json
module Outcome = Repro_exp.Outcome

(* --- metric catalogue (must match BENCHMARK.json; checked each run) --- *)

let end_to_end =
  [
    ("wall_per_sim_s", "s/s");
    ("ns_per_pkt", "ns");
    ("setup_s", "s");
    ("report_s", "s");
    ("peak_heap_mb", "MiB");
    ("alloc_words_per_pkt", "words");
  ]

let per_layer =
  [
    ("sim.events_per_pkt", "events/pkt");
    ("sim.max_pending", "timers");
    ("sim.self_ns_per_pkt", "ns");
    ("queue.hops_per_pkt", "hops/pkt");
    ("queue.drop_ratio", "ratio");
    ("queue.self_ns_per_pkt", "ns");
    ("pipe.self_ns_per_pkt", "ns");
    ("tcp.self_ns_per_pkt", "ns");
    ("tcp.retx_ratio", "ratio");
    ("tcp.timeouts", "count");
    ("tcp.create_us", "us");
    ("cc.calls_per_pkt", "calls/pkt");
    ("cc.ns_per_call", "ns");
    ("cc.self_ns_per_pkt", "ns");
    ("other.self_ns_per_pkt", "ns");
    ("prof.bookkeeping_ns_per_pkt", "ns");
    ("topology.build_s", "s");
    ("topology.paths_us_per_conn", "us");
    ("workload.gen_s", "s");
    ("trace.records_per_event", "records/event");
    ("trace.emit_ns_per_record", "ns");
    ("trace.decode_ns_per_record", "ns");
    ("report.feed_ns_per_record", "ns");
    ("trace.dropped", "records");
    ("gc.promoted_words_per_pkt", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("shard.windows_per_sim_s", "1/s");
    ("shard.msgs_per_window", "msgs");
    ("shard.barrier_share", "share");
    ("host.steal_share", "share");
    ("host.cpu_share", "share");
    ("host.window_p10_ms", "ms");
    ("host.window_p90_ms", "ms");
    ("host.window_p99_ms", "ms");
    ("host.windows", "count");
    ("trace_overhead", "x");
    ("traced.ns_per_pkt", "ns");
    ("layers.sum_share", "share");
  ]

(* The per-layer self times must add up to the traced total within this
   share of it (and none may be negative by more). *)
let sum_margin = 0.05

(* Set-up is timed this many times per run; the median is reported. *)
let setup_reps = 9

(* Outcome renders per report sample on the fattree workloads (five
   samples a pass; one decode-and-render sample on paper-report). *)
let render_batch = 50

(* --- checks: every comparison is an op; a mismatch is a failure --- *)

type check = { mutable ops : int; mutable failed : int; mutable notes : string list }

let new_check () = { ops = 0; failed = 0; notes = [] }

let op chk ok msg =
  chk.ops <- chk.ops + 1;
  if not ok then begin
    chk.failed <- chk.failed + 1;
    if List.length chk.notes < 25 then chk.notes <- msg () :: chk.notes
  end

(* The simulated outcome of one pass. *)
type outcome = {
  delivered : int array;  (** per connection: unique acknowledged data packets *)
  drops : int array;  (** per queue, since the warm-up reset *)
  events : int;
  result : string;  (** the registry scenario's outcome, rendered *)
  report : string;  (** the flight-recorder report JSON; paper-report only *)
}

(* Each flow is one op; per-queue drops, the event count and the
   rendered outcome together are one; the report is one. *)
let compare_outcome chk ~what ~(reference : outcome) (o : outcome) =
  let nf = Array.length reference.delivered in
  if Array.length o.delivered <> nf then
    op chk false (fun () ->
        Printf.sprintf "%s: %d flows, reference %d" what (Array.length o.delivered) nf)
  else
    Array.iteri
      (fun i d ->
        op chk (o.delivered.(i) = d) (fun () ->
            Printf.sprintf "%s: flow %d delivered %d packets, reference %d" what i
              o.delivered.(i) d))
      reference.delivered;
  op chk
    (o.drops = reference.drops && o.events = reference.events && o.result = reference.result)
    (fun () ->
      Printf.sprintf "%s: network outcome differs (events %d vs %d, drops %d vs %d)" what
        o.events reference.events
        (Array.fold_left ( + ) 0 o.drops)
        (Array.fold_left ( + ) 0 reference.drops));
  if reference.report <> "" then
    op chk (o.report = reference.report) (fun () -> what ^ ": rendered report differs")

(* --- one pass: build, run in timed windows, check, render --- *)

type pass = {
  outcome : outcome;
  win_ns : int array;  (** host ns per window *)
  win_events : int array;
  win_sim : float array;  (** simulated seconds per window *)
  win_kernel : int array;
      (** reference-kernel ns timed just before the window; 0 where it
          was not timed *)
  pkts : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  max_pending : int;
  arrivals : int;
  retx : int;
  timeouts : int;
  records : int;
  dropped : int;
  report_ns : float array;  (** samples of the report phase, scaled *)
  decode_ns : int;
  feed_ns : int;
}

let rings w = w = Wl.Paper_report

let arm_rings () =
  Trace.arm_rings ~capacity:Wl.ring_capacity ();
  Trace.bind_ring ~shard:0

let disarm_rings () =
  Trace.unbind_ring ();
  Trace.disarm_rings ()

let horizons w =
  let d = Wl.duration w and step = Wl.window w in
  let n = int_of_float (Float.ceil ((d /. step) -. 1e-6)) in
  List.init n (fun i -> if i = n - 1 then d else float_of_int (i + 1) *. step)

(* The reference kernel is timed before every fourth window: often
   enough to follow host phases, seldom enough that its cache footprint
   leaves most windows alone. *)
let kernel_every = 4

(* A sample of a one-shot phase (set-up, report) at the reference
   speed: the median of three kernel runs just before it sets the
   scale. *)
let scaled_sample f =
  let kernel_ns = Robust.median (Array.init 3 (fun _ -> float_of_int (Kernel.time_ns ()))) in
  let t0 = Clock.now_ns () in
  let r = f () in
  let dt = Clock.now_ns () - t0 in
  (float_of_int dt *. Kernel.ref_ns /. kernel_ns, r)

(* The timed loop. Horizons are pre-boxed in a list so the loop itself
   allocates nothing and the minor-word count is the simulator's own;
   the kernel allocates nothing either. *)
let rec timed_windows sim ~kernel hs i win_ns win_ev win_k =
  match hs with
  | [] -> ()
  | h :: rest ->
    if kernel && i mod kernel_every = 0 then win_k.(i) <- Kernel.time_ns ();
    let e0 = Sim.events_processed sim in
    let t0 = Clock.now_ns () in
    Sim.run_until sim h;
    let t1 = Clock.now_ns () in
    win_ns.(i) <- t1 - t0;
    win_ev.(i) <- Sim.events_processed sim - e0;
    timed_windows sim ~kernel rest (i + 1) win_ns win_ev win_k

(* Decode the rings, fold them into a report and render it: the report
   JSON, the record count, and the decode and feed times. *)
let render_report () =
  let t0 = Clock.now_ns () in
  let events = Trace.decode_rings () in
  let t1 = Clock.now_ns () in
  let acc = Report.create () in
  List.iter (Report.feed acc) events;
  let t2 = Clock.now_ns () in
  (Json.to_string (Report.to_json acc), List.length events, t1 - t0, t2 - t1)

(* [timed]: pair windows and report samples with the reference kernel
   (the traced run reports raw times). *)
let run_pass ?(timed = false) w ~seed ~traced =
  if rings w then arm_rings ();
  let b = Wl.build ~traced ~seed w in
  let hs = horizons w in
  let n = List.length hs in
  let win_ns = Array.make n 0 and win_events = Array.make n 0 and win_kernel = Array.make n 0 in
  let ha = Array.of_list hs in
  let win_sim = Array.mapi (fun i h -> h -. if i = 0 then 0. else ha.(i - 1)) ha in
  let s0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  timed_windows b.Wl.sim ~kernel:timed hs 0 win_ns win_events win_kernel;
  let mw1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  let delivered = Array.map Tcp.total_acked b.Wl.conns in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let subflow_sum f =
    sum (fun c -> List.fold_left ( + ) 0 (List.init (Tcp.subflow_count c) (f c))) b.Wl.conns
  in
  let render () = Json.to_string (Outcome.to_json (b.Wl.outcome ())) in
  let result = render () in
  let sample f =
    if timed then scaled_sample f
    else begin
      let t0 = Clock.now_ns () in
      let r = f () in
      (float_of_int (Clock.now_ns () - t0), r)
    end
  in
  let report, records, report_ns, decode_ns, feed_ns =
    if rings w then
      let dt, (s, records, decode_ns, feed_ns) = sample render_report in
      (s, records, [| dt |], decode_ns, feed_ns)
    else
      (* The user-facing output of a fattree run is its outcome JSON;
         one render takes tens of microseconds, so a sample times a
         batch. *)
      let batch () =
        for _ = 1 to render_batch do
          ignore (Sys.opaque_identity (render ()))
        done
      in
      ("", 0, Array.init 5 (fun _ -> fst (sample batch) /. float_of_int render_batch), 0, 0)
  in
  let dropped = if rings w then Trace.rings_dropped () else 0 in
  if rings w then disarm_rings ();
  {
    outcome =
      {
        delivered;
        drops = Array.map Queue.drops b.Wl.queues;
        events = Sim.events_processed b.Wl.sim;
        result;
        report;
      };
    win_ns;
    win_events;
    win_sim;
    win_kernel;
    pkts = Array.fold_left ( + ) 0 delivered;
    minor_words = mw1 -. mw0;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    max_pending = Sim.max_heap_depth b.Wl.sim;
    arrivals = sum Queue.arrivals b.Wl.queues;
    retx = subflow_sum Tcp.subflow_retransmits;
    timeouts = subflow_sum Tcp.subflow_timeouts;
    records;
    dropped;
    report_ns;
    decode_ns;
    feed_ns;
  }

(* --- reference checks --- *)

(* The registry scenario at the same parameters and seed, rendered: its
   outcome and, on paper-report, its report through the ring path that
   [olia_sim run scenario-b --report] uses. *)
let registry_outcome w ~seed =
  if rings w then arm_rings ();
  let r = Wl.registry w ~seed in
  let report = if rings w then (let s, _, _, _ = render_report () in s) else "" in
  if rings w then disarm_rings ();
  (Json.to_string (Outcome.to_json r), report)

(* The benchmark's build must reproduce it outcome for outcome. *)
let check_registry chk w ~seed (result, report) (o : outcome) =
  op chk (result = o.result) (fun () ->
      Printf.sprintf "registry %s seed %d: outcome differs from the benchmark build"
        (Wl.registry_name w) seed);
  if rings w then
    op chk (report = o.report) (fun () ->
        Printf.sprintf "registry %s --report seed %d: report differs" (Wl.registry_name w) seed)

(* The ring path at the golden parameters must reproduce the committed
   golden report byte for byte (as CI's report smoke step checks). *)
let golden_path = "test/golden/report-scen-b.json"

let check_golden chk =
  let cfg =
    {
      Repro_scenarios.Scen_b.default with
      n = 4;
      cx_mbps = 8.;
      ct_mbps = 10.;
      duration = 8.;
      warmup = 2.;
      seed = 1;
    }
  in
  arm_rings ();
  let b = Wl.paper_report ~cfg ~traced:false ~seed:1 () in
  Sim.run_until b.Wl.sim b.Wl.duration;
  let s, _, _, _ = render_report () in
  disarm_rings ();
  let golden = In_channel.with_open_bin golden_path In_channel.input_all in
  op chk (String.trim golden = s) (fun () -> "golden report " ^ golden_path ^ " not reproduced")

(* --- harness self-tests --- *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s

(* Names match [A-Za-z0-9_.-]+, and the catalogue above matches
   BENCHMARK.json (names, units, workloads). *)
let selftest_names chk =
  let all = List.map fst end_to_end @ List.map fst per_layer @ List.map fst Wl.names in
  op chk (List.for_all valid_name all) (fun () -> "a metric or workload name is malformed");
  let file = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let entries key =
    match Json.of_string file with
    | Ok (Json.Obj fields) -> (
      match List.assoc_opt key fields with
      | Some (Json.List l) ->
        List.filter_map
          (function
            | Json.Obj e -> (
              match (List.assoc_opt "name" e, List.assoc_opt "unit" e) with
              | Some (Json.String n), Some (Json.String u) -> Some (n, u)
              | Some (Json.String n), None -> Some (n, "")
              | _ -> None)
            | _ -> None)
          l
      | _ -> [])
    | _ -> []
  in
  let same a b = List.sort compare a = List.sort compare b in
  op chk (same (entries "end_to_end") end_to_end) (fun () ->
      "BENCHMARK.json end_to_end differs from the harness catalogue");
  op chk (same (entries "per_layer") per_layer) (fun () ->
      "BENCHMARK.json per_layer differs from the harness catalogue");
  op chk
    (same (List.map fst (entries "workloads")) (List.map fst Wl.names))
    (fun () -> "BENCHMARK.json workloads differ from the harness")

(* The window statistic must survive stalls injected into a minority
   of windows: 2000 synthetic windows of cost 1 +/- 3 %, 30 % of them
   slowed 3-20x, must keep their median and weighted median within 5 %
   (the mean moves by several times that). *)
let selftest_stall chk =
  let st = ref 12345 in
  let rnd () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !st /. float_of_int 0x40000000
  in
  let n = 2000 in
  let clean = Array.init n (fun _ -> 1.0 +. (0.06 *. (rnd () -. 0.5))) in
  let stalled =
    Array.map (fun c -> if rnd () < 0.3 then c *. (3. +. (17. *. rnd ())) else c) clean
  in
  let weights = Array.init n (fun i -> float_of_int (1 + (i mod 7))) in
  let rel a b = Float.abs (a -. b) /. b in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  op chk
    (rel (Robust.median stalled) (Robust.median clean) <= 0.05
    && rel (Robust.weighted_median stalled weights) (Robust.weighted_median clean weights) <= 0.05
    && rel (mean stalled) (mean clean) > 0.05)
    (fun () -> "window statistic does not survive injected stalls")

(* A perturbed reference must produce failures: one per perturbed flow,
   one for the network outcome, one for the report. *)
let selftest_perturbed chk (o : outcome) =
  let probe = new_check () in
  let delivered = Array.copy o.delivered in
  delivered.(0) <- delivered.(0) + 1;
  let report = if o.report = "" then "" else o.report ^ " " in
  let perturbed = { o with delivered; events = o.events + 1; report } in
  compare_outcome probe ~what:"self-test" ~reference:perturbed o;
  let expected = 2 + if o.report <> "" then 1 else 0 in
  op chk (probe.failed = expected) (fun () ->
      Printf.sprintf "perturbed reference gave %d failures, expected %d" probe.failed expected)

(* --- statistics over timed windows --- *)

let concat_map f passes = Array.concat (List.map f passes)
let per_ms ns = float_of_int ns /. 1e6

type window_stats = {
  wall_per_sim : float;  (** median host s per simulated s over windows *)
  ns_per_event : float;  (** event-weighted median host ns per event *)
  p10_ms : float;
  p90_ms : float;
  p99_ms : float;
  count : int;
}

(* Per-window factor to the reference speed: [ref_ns] over the running
   median of the pass's kernel samples (five either side), each window
   taking the latest sample at or before it. 1 when the pass was not
   paired with the kernel. *)
let speed_factors p =
  let n = Array.length p.win_ns in
  let at = List.filter (fun i -> p.win_kernel.(i) > 0) (List.init n Fun.id) |> Array.of_list in
  let m = Array.length at in
  if m = 0 then Array.make n 1.
  else begin
    let smooth =
      Array.init m (fun j ->
          let lo = Stdlib.max 0 (j - 5) and hi = Stdlib.min (m - 1) (j + 5) in
          Robust.median (Array.init (hi - lo + 1) (fun d -> float_of_int p.win_kernel.(at.(lo + d)))))
    in
    let f = Array.make n (Kernel.ref_ns /. smooth.(0)) in
    Array.iteri (fun j i -> Array.fill f i (n - i) (Kernel.ref_ns /. smooth.(j))) at;
    f
  end

let window_stats ~scaled passes =
  let factors p = if scaled then speed_factors p else Array.make (Array.length p.win_ns) 1. in
  let ns = concat_map (fun p -> Array.map2 (fun x f -> float_of_int x *. f) p.win_ns (factors p)) passes in
  let ev = concat_map (fun p -> p.win_events) passes in
  let sim = concat_map (fun p -> p.win_sim) passes in
  let per_sim = Array.mapi (fun i x -> x /. 1e9 /. sim.(i)) ns in
  let busy = List.filter (fun i -> ev.(i) > 0) (List.init (Array.length ns) Fun.id) in
  let busy = Array.of_list busy in
  let ratio = Array.map (fun i -> ns.(i) /. float_of_int ev.(i)) busy in
  let weight = Array.map (fun i -> float_of_int ev.(i)) busy in
  let ms = Robust.sorted (concat_map (fun p -> Array.map per_ms p.win_ns) passes) in
  {
    wall_per_sim = Robust.median per_sim;
    ns_per_event = Robust.weighted_median ratio weight;
    p10_ms = Robust.quantile_sorted ms 0.10;
    p90_ms = Robust.quantile_sorted ms 0.90;
    p99_ms = Robust.quantile_sorted ms 0.99;
    count = Array.length ns;
  }

(* --- output --- *)

let print_result chk metrics =
  let ok = chk.failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  List.iter (fun m -> Printf.eprintf "perfbench: FAILED %s\n" m) (List.rev chk.notes);
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %14.6g %s\n" name v unit) metrics;
  let m =
    List.map
      (fun (name, unit, v) ->
        ( name,
          Json.Obj
            [ ("value", Json.Float (if Float.is_finite v then v else 0.)); ("unit", Json.String unit) ]
        ))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Int (Stdlib.max 1 chk.ops));
            ("failed", Json.Int chk.failed);
            ("metrics", Json.Obj m);
          ]))

let with_units catalogue values =
  List.map (fun (name, unit) -> (name, unit, List.assoc name values)) catalogue

let print_host (a : Host.mark) (b : Host.mark) (ws : window_stats) =
  Printf.printf
    "  host: steal %.1f%% of all CPU, process CPU/wall %.2f, window p10/p90/p99 %.3f/%.3f/%.3f ms over %d windows\n"
    (100. *. Host.steal_share a b)
    (Host.cpu_share a b) ws.p10_ms ws.p90_ms ws.p99_ms ws.count

(* Self-tests and reference checks shared by both modes; returns the
   registry outcome of each scenario seed. *)
let prelude chk w ~seeds =
  selftest_names chk;
  selftest_stall chk;
  if rings w then check_golden chk;
  Array.map (fun seed -> registry_outcome w ~seed) seeds

(* The first pass of a scenario seed becomes its reference: it must
   match the registry scenario, and a perturbed copy of it must make
   the outcome check fail. *)
let reference chk w ~seed registry (p : pass) ~first =
  check_registry chk w ~seed registry p.outcome;
  if first then selftest_perturbed chk p.outcome;
  op chk (p.dropped = 0) (fun () -> Printf.sprintf "trace rings dropped %d records" p.dropped)

(* Peak heap of one build and one run, each in a fresh process (the
   top-heap counter only grows), averaged over the scenario seeds. Two
   probes run at a time; the counts do not depend on timing. *)
let heap_probe w ~seed =
  ignore (run_pass w ~seed ~traced:false);
  Printf.printf "%d\n" (Gc.quick_stat ()).Gc.top_heap_words

let peak_heap_mb w ~seeds =
  let exe = Sys.executable_name in
  let spawn seed =
    Unix.open_process_args_in exe
      [| exe; "--heap-probe"; "--workload"; Wl.to_string w; "--seed"; string_of_int seed |]
  in
  let words ic =
    let line = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> float_of_int (int_of_string (String.trim line))
    | _ -> failwith "perfbench: heap probe failed"
  in
  let n = Array.length seeds in
  let rec go i acc =
    if i >= n then acc
    else if i + 1 = n then acc +. words (spawn seeds.(i))
    else
      let a = spawn seeds.(i) and b = spawn seeds.(i + 1) in
      let wa = words a in
      go (i + 2) (acc +. wa +. words b)
  in
  go 0 0. /. float_of_int n *. 8. /. 1048576.

let check_pass chk ~what (p0 : pass) (p : pass) =
  compare_outcome chk ~what ~reference:p0.outcome p.outcome;
  op chk (p.dropped = 0) (fun () ->
      Printf.sprintf "%s: trace rings dropped %d records" what p.dropped)

(* --- --trace 0: the timed run --- *)

let timed w ~seed ~seconds =
  let chk = new_check () in
  let seeds = Wl.scenario_seeds w ~seed in
  let m = Array.length seeds in
  let registry = prelude chk w ~seeds in
  let peak_mb = peak_heap_mb w ~seeds in
  Kernel.init ();
  (* one sample builds every scenario seed once; reported per build *)
  let setup =
    Array.init setup_reps (fun _ ->
        Gc.full_major ();
        let dt, () =
          scaled_sample (fun () ->
              Array.iter
                (fun seed ->
                  if rings w then arm_rings ();
                  ignore (Sys.opaque_identity (Wl.build ~traced:false ~seed w));
                  if rings w then disarm_rings ())
                seeds)
        in
        dt /. 1e9 /. float_of_int m)
  in
  let refs = Array.make m None in
  (* [steady.(j)]: the second pass of scenario seed [j] (the first may
     still warm process-wide pools); every later pass of that seed must
     allocate exactly as much *)
  let steady = Array.make m None in
  let count = Array.make m 0 in
  let h0 = Host.mark () in
  let rec loop k acc =
    let j = k mod m in
    Gc.full_major ();
    let p = run_pass ~timed:true w ~seed:seeds.(j) ~traced:false in
    count.(j) <- count.(j) + 1;
    (match refs.(j) with
    | None ->
      reference chk w ~seed:seeds.(j) registry.(j) p ~first:(k = 0);
      refs.(j) <- Some p
    | Some r -> check_pass chk ~what:(Printf.sprintf "pass %d (seed %d)" (k + 1) seeds.(j)) r p);
    (match steady.(j) with
    | Some s ->
      op chk
        (p.minor_words = s.minor_words && p.minor_gcs = s.minor_gcs
        && p.promoted_words = s.promoted_words)
        (fun () ->
          Printf.sprintf "nondeterminism: seed %d pass %d allocated %.0f words, earlier %.0f"
            seeds.(j) count.(j) p.minor_words s.minor_words)
    | None -> if count.(j) = 2 then steady.(j) <- Some p);
    let acc = p :: acc in
    (* whole rounds only, so every scenario seed weighs the same *)
    if (k + 1) mod m = 0
       && k + 1 >= 2 * m
       && float_of_int (Clock.now_ns () - h0.Host.wall_ns) /. 1e9 >= float_of_int seconds
    then List.rev acc
    else loop (k + 1) acc
  in
  let passes = loop 0 [] in
  let h1 = Host.mark () in
  (* Each scenario seed gets its own robust estimate from its own
     passes; the run averages them, so every seed's content weighs the
     same. *)
  let of_seed j = List.filteri (fun k _ -> k mod m = j) passes in
  let get = function Some p -> p | None -> assert false in
  let refs = Array.map get refs and steady = Array.map get steady in
  let sum f = Array.fold_left (fun a x -> a +. f x) 0. in
  let pkts = sum (fun p -> float_of_int p.pkts) refs in
  let split ~scaled =
    let per_seed = Array.init m (fun j -> window_stats ~scaled (of_seed j)) in
    ( sum (fun s -> s.wall_per_sim) per_seed /. float_of_int m,
      sum Fun.id (Array.mapi (fun j s -> s.ns_per_event *. float_of_int refs.(j).outcome.events) per_seed)
      /. pkts )
  in
  let wall_per_sim, ns_per_pkt = split ~scaled:true in
  let raw_wall_per_sim, raw_ns_per_pkt = split ~scaled:false in
  let report_s =
    sum Fun.id
      (Array.init m (fun j -> Robust.median (concat_map (fun p -> p.report_ns) (of_seed j))))
    /. float_of_int m /. 1e9
  in
  Printf.printf
    "perfbench %s seed %d: %d timed passes of %g simulated s over %d scenario seeds, %d ops, %d failed\n"
    (Wl.to_string w) seed (List.length passes) (Wl.duration w) m chk.ops chk.failed;
  Printf.printf "  unscaled: wall_per_sim_s %.6g, ns_per_pkt %.6g (times below are at the reference host speed)\n"
    raw_wall_per_sim raw_ns_per_pkt;
  print_host h0 h1 (window_stats ~scaled:false passes);
  print_result chk
    (with_units end_to_end
       [
         ("wall_per_sim_s", wall_per_sim);
         ("ns_per_pkt", ns_per_pkt);
         ("setup_s", Robust.median setup);
         ("report_s", report_s);
         ("peak_heap_mb", peak_mb);
         ("alloc_words_per_pkt", sum (fun p -> p.minor_words) steady /. pkts);
       ])

(* --- --trace 1: the traced run --- *)

(* Cost of one armed ring emission, in a tight loop. *)
let emit_ns_per_record () =
  Trace.arm_rings ~capacity:65536 ();
  Trace.bind_ring ~shard:0;
  let batch = 200_000 in
  let samples =
    Array.init 5 (fun _ ->
        let t0 = Clock.now_ns () in
        for i = 1 to batch do
          Trace.pkt_enqueue ~time:1.0 ~queue:0 ~flow:i ~subflow:0 ~seq:i ~kind:0 ~backlog:1
        done;
        float_of_int (Clock.now_ns () - t0) /. float_of_int batch)
  in
  disarm_rings ();
  Robust.median samples

(* The profiler's own bookkeeping per dispatch, outside the span it
   times (table lookup, the clock reads' far halves, the per-packet
   wrapper closure), which lands in "outside every dispatch". *)
let profile_ns_per_dispatch () =
  let sink = ref 0 in
  Profile.set_enabled true;
  let batch = 100_000 in
  let samples =
    Array.init 7 (fun _ ->
        Profile.reset ();
        let t0 = Clock.now_ns () in
        for i = 1 to batch do
          Profile.dispatch ~src:"perfbench.calib" (fun () -> sink := !sink + i)
        done;
        let dt = float_of_int (Clock.now_ns () - t0) in
        let inside = List.fold_left (fun a e -> a +. e.Profile.wall_s) 0. (Profile.report ()) in
        (dt -. (inside *. 1e9)) /. float_of_int batch)
  in
  Profile.set_enabled false;
  Profile.reset ();
  ignore (Sys.opaque_identity !sink);
  Robust.median samples

(* A 2-shard pass of the sharded FatTree (ft-perm's tree and load, one
   8-subflow flow per host), checked against its 1-shard run. Never
   gated: on a small VM it measures the hypervisor's scheduler. *)
let shard_pass chk ~seed =
  let module Fs = Repro_scenarios.Fattree_sharded in
  let cfg =
    {
      Fs.default with
      k = Wl.k;
      subflows = 8;
      flows_per_host = 1;
      duration = Wl.duration Wl.Ft_perm;
      warmup = Wl.warmup Wl.Ft_perm;
      seed;
    }
  in
  let r1 = Fs.run { cfg with shards = 1 } in
  Profile.reset ();
  Profile.set_enabled true;
  let t0 = Clock.now_ns () in
  let r2 = Fs.run { cfg with shards = 2 } in
  let wall = float_of_int (Clock.now_ns () - t0) /. 1e9 in
  Profile.set_enabled false;
  let barrier =
    List.fold_left
      (fun a e -> if e.Profile.src = "shard.barrier" then a +. e.Profile.wall_s else a)
      0. (Profile.report ())
  in
  Profile.reset ();
  (* The simulated outcome must match bit for bit; the loop counters
     (events, pending high-water mark) are per-shard by design. *)
  let outcome r =
    Json.to_string
      (Json.List
         (List.map
            (fun f -> Json.Float f)
            (r.Fs.aggregate_mbps :: r.Fs.mean_core_loss :: Array.to_list r.Fs.flow_mbps)))
  in
  op chk (outcome r1 = outcome r2) (fun () -> "2-shard pass differs from the 1-shard run");
  let lookahead = cfg.Fs.delay_ms /. 1000. in
  let windows = cfg.Fs.duration /. lookahead in
  [
    ("shard.windows_per_sim_s", 1. /. lookahead);
    ("shard.msgs_per_window", float_of_int r2.Fs.cut_messages /. windows);
    ("shard.barrier_share", barrier /. (2. *. wall));
  ]

let traced w ~seed =
  let chk = new_check () in
  let seed = (Wl.scenario_seeds w ~seed).(0) in
  let registry = prelude chk w ~seeds:[| seed |] in
  Gc.full_major ();
  let p0 = run_pass w ~seed ~traced:false in
  reference chk w ~seed registry.(0) p0 ~first:true;
  Gc.full_major ();
  let h0 = Host.mark () in
  let p1 = run_pass w ~seed ~traced:false in
  check_pass chk ~what:"untraced pass" p0 p1;
  let emit_ns = emit_ns_per_record () in
  let prof_ns = profile_ns_per_dispatch () in
  Gc.full_major ();
  Span.reset ();
  Wl.reset_phases ();
  Profile.reset ();
  Profile.set_enabled true;
  let pt = run_pass w ~seed ~traced:true in
  Profile.set_enabled false;
  let entries = Profile.report () in
  Profile.reset ();
  let h1 = Host.mark () in
  check_pass chk ~what:"traced pass" p0 pt;
  (* attribution *)
  let total = float_of_int (Array.fold_left ( + ) 0 pt.win_ns) in
  let prof = Array.make Span.n_classes 0. in
  let dispatches =
    List.fold_left
      (fun n e ->
        let c = Span.class_of_src e.Profile.src in
        prof.(c) <- prof.(c) +. (e.Profile.wall_s *. 1e9);
        n + e.Profile.count)
      0 entries
  in
  let disp_self c = prof.(c) -. float_of_int Span.top_in.(c) in
  let span_self l = float_of_int Span.self_ns.(l) in
  let bookkeeping = float_of_int dispatches *. prof_ns in
  let parts =
    [
      ("sim", total -. Array.fold_left ( +. ) 0. prof -. bookkeeping);
      ("queue", span_self Span.queue +. disp_self Span.cls_queue);
      ("pipe", span_self Span.pipe +. disp_self Span.cls_pipe);
      ("tcp", span_self Span.tcp +. disp_self Span.cls_tcp);
      ("cc", span_self Span.cc);
      ("other", disp_self Span.cls_other);
      ("prof", bookkeeping);
    ]
  in
  let sum_share = List.fold_left (fun a (_, v) -> a +. Float.max 0. v) 0. parts /. total in
  List.iter
    (fun (name, v) ->
      op chk (v >= -.sum_margin *. total) (fun () ->
          Printf.sprintf "layer %s self time %.0f ns is negative beyond the %.0f%% margin" name v
            (100. *. sum_margin)))
    parts;
  op chk
    (Float.abs (sum_share -. 1.) <= sum_margin)
    (fun () -> Printf.sprintf "layer self times sum to %.3f of the traced total" sum_share);
  let pkts = float_of_int p0.pkts in
  let part n = List.assoc n parts in
  let per_pkt n = part n /. pkts in
  let shard =
    if w = Wl.Ft_perm then shard_pass chk ~seed
    else [ ("shard.windows_per_sim_s", 0.); ("shard.msgs_per_window", 0.); ("shard.barrier_share", 0.) ]
  in
  let ws_u = window_stats ~scaled:false [ p1 ] and ws_t = window_stats ~scaled:false [ pt ] in
  let records = float_of_int p0.records in
  let nconns = float_of_int (Array.length p0.outcome.delivered) in
  let ph n = float_of_int Wl.phase_ns.(n) in
  Printf.printf
    "perfbench %s seed %d (traced): layer shares of the traced total %.3f s:" (Wl.to_string w) seed
    (total /. 1e9);
  List.iter (fun (n, v) -> Printf.printf " %s %.1f%%" n (100. *. v /. total)) parts;
  Printf.printf "; sum %.3f (margin %.2f); tracing overhead %.2fx\n" sum_share sum_margin
    (ws_t.wall_per_sim /. ws_u.wall_per_sim);
  print_host h0 h1 ws_u;
  let calls l = float_of_int Span.calls.(l) in
  print_result chk
    (with_units per_layer
       ([
          ("sim.events_per_pkt", float_of_int p0.outcome.events /. pkts);
          ("sim.max_pending", float_of_int p0.max_pending);
          ("sim.self_ns_per_pkt", per_pkt "sim");
          ("queue.hops_per_pkt", calls Span.queue /. pkts);
          ( "queue.drop_ratio",
            float_of_int (Array.fold_left ( + ) 0 p0.outcome.drops)
            /. float_of_int (Stdlib.max 1 p0.arrivals) );
          ("queue.self_ns_per_pkt", per_pkt "queue");
          ("pipe.self_ns_per_pkt", per_pkt "pipe");
          ("tcp.self_ns_per_pkt", per_pkt "tcp");
          ("tcp.retx_ratio", float_of_int p0.retx /. pkts);
          ("tcp.timeouts", float_of_int p0.timeouts);
          ( "tcp.create_us",
            ph Wl.ph_tcp_create /. 1e3 /. float_of_int (Stdlib.max 1 Wl.phase_calls.(Wl.ph_tcp_create)) );
          ("cc.calls_per_pkt", calls Span.cc /. pkts);
          ("cc.ns_per_call", span_self Span.cc /. Float.max 1. (calls Span.cc));
          ("cc.self_ns_per_pkt", per_pkt "cc");
          ("other.self_ns_per_pkt", per_pkt "other");
          ("prof.bookkeeping_ns_per_pkt", per_pkt "prof");
          ("topology.build_s", ph Wl.ph_topology /. 1e9);
          ("topology.paths_us_per_conn", ph Wl.ph_paths /. 1e3 /. nconns);
          ("workload.gen_s", ph Wl.ph_workload /. 1e9);
          ("trace.records_per_event", records /. float_of_int p0.outcome.events);
          ("trace.emit_ns_per_record", emit_ns);
          ( "trace.decode_ns_per_record",
            if records > 0. then float_of_int p1.decode_ns /. records else 0. );
          ( "report.feed_ns_per_record",
            if records > 0. then float_of_int p1.feed_ns /. records else 0. );
          ("trace.dropped", float_of_int (p0.dropped + p1.dropped + pt.dropped));
          ("gc.promoted_words_per_pkt", p1.promoted_words /. pkts);
          ("gc.minor_collections", float_of_int p1.minor_gcs);
          ("gc.major_collections", float_of_int p1.major_gcs);
          ("host.steal_share", Host.steal_share h0 h1);
          ("host.cpu_share", Host.cpu_share h0 h1);
          ("host.window_p10_ms", ws_u.p10_ms);
          ("host.window_p90_ms", ws_u.p90_ms);
          ("host.window_p99_ms", ws_u.p99_ms);
          ("host.windows", float_of_int ws_u.count);
          ("trace_overhead", ws_t.wall_per_sim /. ws_u.wall_per_sim);
          ("traced.ns_per_pkt", total /. pkts);
          ("layers.sum_share", sum_share);
        ]
       @ shard))

(* --- entry point --- *)

let usage = "main.exe --workload <ft-perm|ft-short|paper-report> --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let probe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed passes");
      ("--trace", Arg.Set_int trace, "0|1 timed (0) or traced (1) run");
      ("--heap-probe", Arg.Set probe, " one build and run; print the top heap in words");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload Wl.names with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some w ->
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    if !probe then heap_probe w ~seed:!seed
    else if !trace = 0 then timed w ~seed:!seed ~seconds:!seconds
    else traced w ~seed:!seed
