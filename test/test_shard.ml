(* Tests of the sharded simulation runtime: pod-cut extraction on the
   FatTree, deterministic cross-shard merge order, the shards=1 window
   loop against sequential dispatch (golden), the registry fattree
   scenario against a 2-shard run of the same load, exact shard-count
   invariance, determinism of sharded runs, the up-front warm-up check,
   byte-identical trace decode across shard counts, and the outcome
   comparison behind the shard-invariance gate. *)

open Mptcp_repro.Netsim
module Fattree = Mptcp_repro.Topology.Fattree
module Fs = Mptcp_repro.Scenarios.Fattree_sharded
module Profile = Mptcp_repro.Obs.Profile
module Workload = Mptcp_repro.Workload

let seq_pool thunks = Array.iter (fun f -> f ()) thunks

let make_tree ?(sim = Sim.create ()) ?(k = 4) ?(shards = 2) ?(seed = 1) () =
  Fattree.create ~sim ~shards ~rng:(Rng.create ~seed) ~k ~rate_bps:10e6
    ~delay:0.001 ~buffer_pkts:100 ~discipline:Queue.Droptail ()

(* --- pod-cut extraction ------------------------------------------------ *)

let test_cut_k4 () =
  let sim = Sim.create () in
  let t = make_tree ~sim ~k:4 ~shards:2 () in
  Alcotest.(check int) "hosts" 16 (Fattree.host_count t);
  Alcotest.(check int) "shards" 2 (Shard.shard_count (Fattree.group t));
  Alcotest.(check (list int)) "pod blocks" [ 0; 0; 1; 1 ]
    (List.map (Fattree.shard_of_pod t) [ 0; 1; 2; 3 ]);
  (* hosts 0-7 live in pods 0-1 (shard 0, on [sim]), hosts 8-15 in pods
     2-3 (shard 1, on a fresh simulator) *)
  Alcotest.(check bool) "host 0 on sim" true (Fattree.sim_of_host t 0 == sim);
  Alcotest.(check bool) "host 7 on sim" true (Fattree.sim_of_host t 7 == sim);
  Alcotest.(check bool) "host 8 on shard 1" true
    (Fattree.sim_of_host t 8 == Shard.sim (Fattree.group t) 1
    && Fattree.sim_of_host t 8 != sim);
  (* path multiplicity matches the uncut tree *)
  Alcotest.(check int) "same edge" 1 (Fattree.path_count t ~src:0 ~dst:1);
  Alcotest.(check int) "same pod" 2 (Fattree.path_count t ~src:0 ~dst:2);
  Alcotest.(check int) "cross pod" 4 (Fattree.path_count t ~src:0 ~dst:15);
  (* the cut replaces the agg->core pipe with a channel hop: same length *)
  let plain = make_tree ~k:4 ~shards:1 () in
  let len p = Array.length p.Tcp.fwd + Array.length p.Tcp.rev in
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "hop count"
        (len (Fattree.all_paths plain ~src:0 ~dst:15).(i))
        (len p))
    (Fattree.all_paths t ~src:0 ~dst:15)

let test_cut_k8 () =
  let t = make_tree ~k:8 ~shards:4 () in
  Alcotest.(check int) "hosts" 128 (Fattree.host_count t);
  Alcotest.(check (list int)) "pod blocks" [ 0; 0; 1; 1; 2; 2; 3; 3 ]
    (List.map (Fattree.shard_of_pod t) [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  (* one channel per ordered shard pair, none on the diagonal *)
  let chans = ref 0 in
  for s = 0 to 3 do
    for d = 0 to 3 do
      match Fattree.channel t ~src:s ~dst:d with
      | Some _ ->
        incr chans;
        Alcotest.(check bool) "off-diagonal" true (s <> d)
      | None -> Alcotest.(check bool) "diagonal" true (s = d)
    done
  done;
  Alcotest.(check int) "channel count" 12 !chans;
  Alcotest.(check int) "cross pod paths" 16
    (Fattree.path_count t ~src:0 ~dst:127)

let test_cut_rejects_bad_shards () =
  Alcotest.check_raises "3 does not divide 4"
    (Invalid_argument
       "Fattree.create: shards must divide k (k = 4, shards = 3)")
    (fun () -> ignore (make_tree ~k:4 ~shards:3 ()));
  Alcotest.check_raises "more shards than pods"
    (Invalid_argument
       "Fattree.create: shards must divide k (k = 4, shards = 8)")
    (fun () -> ignore (make_tree ~k:4 ~shards:8 ()))

(* --- merge order -------------------------------------------------------- *)

(* Each message carries its channel in [flow] and its per-channel send
   index in [pkt_seq]: payload fields the merge never reads. *)
let msg ~arrival ~src_shard ~src_seq ~chan_id ~chan_seq =
  {
    Shard.arrival; egress = arrival; src_shard; src_seq;
    kind = Packet.Data;
    pkt_seq = chan_seq; flow = chan_id; subflow = 0; hop = 0; route = [||];
    ackno = 0; sack_lo = 0; sack_hi = 0; sent_at = 0.; enqueued_at = 0.;
    echo = 0.;
  }

(* Per-channel batches (arrival non-decreasing, chan_seq increasing,
   src_seq increasing per source shard, as the runtime produces them):
   the merged dispatch order is the unique global (arrival, egress,
   src_shard, src_seq) order, however the batches are arranged. *)
let prop_merge_is_sequential_order =
  QCheck.Test.make ~name:"shard: merge = sequential dispatch order" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (pair (pair (int_range 0 3) (int_range 0 7))
           (small_list (int_range 0 20))))
    (fun chans ->
      let counters = Array.make 4 0 in
      let batches =
        List.mapi
          (fun chan_id ((src_shard, _), deltas) ->
            let t = ref 0. in
            List.mapi
              (fun chan_seq d ->
                t := !t +. float_of_int d;
                let src_seq = counters.(src_shard) in
                counters.(src_shard) <- src_seq + 1;
                msg ~arrival:!t ~src_shard ~src_seq ~chan_id ~chan_seq)
              deltas)
          chans
      in
      let merged = Shard.merge batches in
      let sequential = List.sort Shard.compare_msg (List.concat batches) in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          Shard.compare_msg a b <= 0 && sorted rest
        | _ -> true
      in
      merged = sequential && sorted merged
      (* within a channel the runtime order (chan_seq) survives the merge *)
      && List.for_all
           (fun batch ->
             let kept =
               List.filter
                 (fun m ->
                   match batch with
                   | [] -> false
                   | b :: _ -> m.Shard.flow = b.Shard.flow)
                 merged
             in
             List.map (fun m -> m.Shard.pkt_seq) kept
             = List.map (fun m -> m.Shard.pkt_seq) batch)
           batches)

let test_windows () =
  Alcotest.(check int) "exact" 10 (Shard.windows ~lookahead:0.001 ~horizon:0.01);
  Alcotest.(check int) "ragged" 11 (Shard.windows ~lookahead:0.001 ~horizon:0.0101);
  Alcotest.(check int) "sub-window" 1 (Shard.windows ~lookahead:1. ~horizon:0.5);
  Alcotest.(check int) "empty" 0 (Shard.windows ~lookahead:1. ~horizon:0.);
  (* 11 *. 1e-3 = 0.011 falls one ulp short of 110 *. 1e-4 *)
  Alcotest.(check int)
    "quotient rounds down" 12
    (Shard.windows ~lookahead:1e-3 ~horizon:(110. *. 1e-4));
  Alcotest.(check int)
    "one ulp past a boundary" 3001
    (Shard.windows ~lookahead:1e-3 ~horizon:(Float.succ 3.0))

(* --- channels fed at admission ------------------------------------------ *)

(* Two shards joined by one channel of 10 ms, fed by a wired queue of
   1 ms per packet on shard 0; [burst] packets enter the queue at
   0.5 s. *)
let channel_rig ?(burst = 3) () =
  let s0 = Sim.create () and s1 = Sim.create () in
  let group = Shard.create ~sims:[| s0; s1 |] ~lookahead:0.01 in
  let ch = Shard.open_channel group ~src:0 ~dst:1 in
  let q =
    Queue.create ~sim:s0 ~rng:(Rng.create ~seed:1) ~rate_bps:12e6
      ~buffer_pkts:10 ~discipline:Queue.Droptail ()
  in
  let arrived = ref [] in
  let sink (p : Packet.t) =
    arrived := Sim.now s1 :: !arrived;
    Packet.free p
  in
  let route =
    [| Queue.wired_hop q (Queue.Channel ch); Shard.send ch; sink |]
  in
  ignore
    (Sim.schedule_at ~src:"test" s0 0.5 (fun () ->
         for i = 0 to burst - 1 do
           Packet.forward
             (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0.5 ~route)
         done)
      : Sim.Timer.t);
  (group, ch, s1, arrived)

let sweep_pool = Mptcp_repro.Exp.Sweep.pool

(* The channel takes the packet when the queue admits it, but a message
   counts as sent only once its packet has left the queue: the one
   still queued at the horizon was never sent. *)
let test_cut_count_excludes_queued () =
  let group, ch, _, arrived = channel_rig () in
  (* departures at 0.501, 0.502 and 0.503 *)
  Shard.run_windows ~pool:sweep_pool group ~horizon:0.5025;
  Alcotest.(check int) "left before the horizon" 2 (Shard.sent_count ch);
  Alcotest.(check int) "none arrived yet" 0 (List.length !arrived);
  let group, ch, _, arrived = channel_rig () in
  Shard.run_windows ~pool:sweep_pool group ~horizon:1.;
  Alcotest.(check int) "all left" 3 (Shard.sent_count ch);
  Alcotest.(check (list (float 1e-12)))
    "arrival = departure + latency" [ 0.511; 0.512; 0.513 ]
    (List.rev !arrived)

(* A channel fed by anything but a wired queue would send at the
   packet's own instant, with no service time of lookahead to spare:
   the send refuses it. *)
let test_send_requires_wired_feed () =
  let s0 = Sim.create () and s1 = Sim.create () in
  let group = Shard.create ~sims:[| s0; s1 |] ~lookahead:0.01 in
  let ch = Shard.open_channel group ~src:0 ~dst:1 in
  let p =
    Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0.
      ~route:[| Shard.send ch |]
  in
  match Packet.forward p with
  | () -> Alcotest.fail "a send at the packet's own instant was accepted"
  | exception Invalid_argument _ -> ()

(* A message arriving behind the destination's clock is a lookahead
   violation: delivery raises instead of clamping the arrival, and the
   failing worker breaks the window barrier so the run fails instead
   of hanging. The destination is run ahead by hand to stage one. *)
let test_deliver_rejects_late_arrival () =
  let group, _, s1, _ = channel_rig ~burst:1 () in
  Sim.run_until s1 5.;
  match Shard.run_windows ~pool:sweep_pool group ~horizon:0.6 with
  | () -> Alcotest.fail "a late arrival was delivered"
  | exception Invalid_argument m ->
    Alcotest.(check bool) "names the delivery" true
      (String.starts_with ~prefix:"Shard.deliver" m)

(* --- shards=1 ≡ sequential golden --------------------------------------- *)

(* The same seed drives a one-shard tree twice, once under Sim.run_until
   and once under the window loop: identical construction, identical RNG
   stream, so per-flow delivered counts match exactly. *)
let run_workload ~mk_paths ~sim_of_host ~run ~seed =
  let rng = Rng.create ~seed in
  let hosts = 16 in
  let flows =
    Workload.permutation_long_flows ~rng:(Rng.split rng) ~hosts ~max_jitter:1.
  in
  let conns =
    List.mapi
      (fun i { Workload.start; src; dst; _ } ->
        Tcp.create ~sim:(sim_of_host src)
          ~cc:(Mptcp_repro.Cc.Olia.create ())
          ~paths:(mk_paths ~rng ~src ~dst)
          ~start ~flow_id:i ())
      flows
  in
  run ();
  List.map Tcp.total_acked conns

let test_shards1_matches_sequential () =
  let horizon = 3. in
  let seq =
    let sim = Sim.create () in
    let tree = make_tree ~sim ~k:4 ~shards:1 ~seed:7 () in
    run_workload ~seed:7
      ~mk_paths:(fun ~rng ~src ~dst ->
        Fattree.sample_paths tree ~rng ~src ~dst ~n:2)
      ~sim_of_host:(fun _ -> sim)
      ~run:(fun () -> Sim.run_until sim horizon)
  in
  let windowed =
    let t = make_tree ~k:4 ~shards:1 ~seed:7 () in
    run_workload ~seed:7
      ~mk_paths:(fun ~rng ~src ~dst ->
        Fattree.sample_paths t ~rng ~src ~dst ~n:2)
      ~sim_of_host:(Fattree.sim_of_host t)
      ~run:(fun () ->
        Shard.run_windows ~pool:seq_pool (Fattree.group t) ~horizon)
  in
  Alcotest.(check (list int)) "per-flow delivered packets" seq windowed;
  Alcotest.(check bool) "progress" true (List.exists (fun n -> n > 0) seq)

(* --- fattree through the sharded body ------------------------------------ *)

(* The registry fattree scenario runs the sharded permutation body at
   one shard and one flow per host, so a 2-shard run of the same load
   must reproduce it bit for bit. *)
let test_fattree_matches_two_shards () =
  let run name params =
    let (module Sc : Mptcp_repro.Scenarios.Registry.SCENARIO) =
      Mptcp_repro.Scenarios.Registry.find name
    in
    Sc.run
      (params
      @ Mptcp_repro.Exp.Spec.
          [
            ("k", Int 4); ("subflows", Int 2); ("duration", Float 2.);
            ("warmup", Float 0.5); ("seed", Int 7);
          ])
  in
  let seq = run "fattree" [] in
  let shd =
    run "fattree-sharded"
      Mptcp_repro.Exp.Spec.[ ("flows_per_host", Int 1); ("shards", Int 2) ]
  in
  let module O = Mptcp_repro.Exp.Outcome in
  Alcotest.(check (array (float 0.))) "per-flow goodput bitwise"
    (List.assoc "flow_mbps" seq.O.arrays)
    (List.assoc "flow_mbps" shd.O.arrays);
  List.iter
    (fun m ->
      Alcotest.(check (float 0.)) m (O.metric seq m) (O.metric shd m))
    [ "aggregate_pct_optimal"; "mean_core_loss" ];
  Alcotest.(check bool) "progress" true
    (O.metric seq "aggregate_pct_optimal" > 0.)

(* --- shard-count invariance and determinism ----------------------------- *)

let small_cfg shards =
  { Fs.default with Fs.k = 4; shards; flows_per_host = 1; duration = 2.;
    warmup = 0.5; seed = 3 }

(* Every simulated field is bitwise equal at any shard count, the event
   count included: the warm-up timers are armed per pod, not per shard.
   Only the cut traffic depends on the shard count. *)
let test_invariance_exact () =
  let r1 = Fs.run (small_cfg 1) in
  List.iter
    (fun shards ->
      let r = Fs.run (small_cfg shards) in
      let at what = Printf.sprintf "%s at %d shards" what shards in
      Alcotest.(check (array (float 0.))) (at "flow_mbps")
        r1.Fs.flow_mbps r.Fs.flow_mbps;
      Alcotest.(check (float 0.)) (at "aggregate_mbps")
        r1.Fs.aggregate_mbps r.Fs.aggregate_mbps;
      Alcotest.(check (float 0.)) (at "mean_core_loss")
        r1.Fs.mean_core_loss r.Fs.mean_core_loss;
      Alcotest.(check int) (at "obs_events")
        r1.Fs.obs.Mptcp_repro.Obs.Meter.events_processed
        r.Fs.obs.Mptcp_repro.Obs.Meter.events_processed;
      Alcotest.(check bool) (at "cut traffic") true (r.Fs.cut_messages > 0))
    [ 2; 4 ];
  Alcotest.(check int) "no cut traffic sequentially" 0 r1.Fs.cut_messages

(* A warm-up that leaves no measurement window is rejected by the
   registry before the tree is built: not one event is dispatched. *)
let test_rejects_warmup_before_running () =
  let (module Sc : Mptcp_repro.Scenarios.Registry.SCENARIO) =
    Mptcp_repro.Scenarios.Registry.find "fattree-sharded"
  in
  Profile.reset ();
  Profile.set_enabled true;
  let raised =
    match
      Sc.run
        Mptcp_repro.Exp.Spec.
          [
            ("shards", Int 2); ("k", Int 4); ("flows_per_host", Int 1);
            ("warmup", Float 2.); ("duration", Float 2.);
          ]
    with
    | _ -> None
    | exception Invalid_argument msg -> Some msg
  in
  Profile.set_enabled false;
  let dispatched = Profile.report () in
  Profile.reset ();
  Alcotest.(check (option string)) "rejected"
    (Some "fattree-sharded: warmup = 2 must be below duration = 2") raised;
  Alcotest.(check int) "events dispatched" 0
    (List.fold_left (fun n e -> n + e.Profile.count) 0 dispatched)

let test_sharded_run_deterministic () =
  let r1 = Fs.run (small_cfg 2) in
  let r2 = Fs.run (small_cfg 2) in
  Alcotest.(check (array (float 0.)) "per-flow goodput bitwise")
    r1.Fs.flow_mbps r2.Fs.flow_mbps;
  Alcotest.(check int) "cut messages" r1.Fs.cut_messages r2.Fs.cut_messages

(* --- sharded tracing ----------------------------------------------------- *)

(* Per-worker trace rings replaced the old run_windows tracing refusal:
   each worker domain binds its own pre-allocated ring, and the offline
   decoder merges them back into the scheduler's dispatch order. The
   check that matters is byte-level — a 2-shard traced run must decode
   to exactly the event stream of the 1-shard run. *)
let traced_lines shards =
  let _, events =
    Mptcp_repro.Obs.Trace.capture ~capacity:(1 lsl 19) (fun () ->
        Fs.run (small_cfg shards))
  in
  List.map
    (fun ev -> Repro_stats.Json.to_string (Mptcp_repro.Obs.Trace.to_json ev))
    events

let test_traced_decode_shard_invariant () =
  let base = traced_lines 1 in
  let shd = traced_lines 2 in
  Alcotest.(check int) "event counts" (List.length base) (List.length shd);
  Alcotest.(check bool) "decoded traces byte-identical" true (base = shd);
  Alcotest.(check bool) "non-trivial trace" true (List.length base > 1000)

(* --- the shard-invariance gate's comparison ------------------------------ *)

(* [olia_sim shard-invariance] runs a registry scenario at 1 and N shards
   and compares the whole outcomes with [Outcome.bitwise_diff]: between
   1 and 2 shards exactly the exempt pair differs, and a single changed
   goodput is flagged. *)
let test_outcome_diff_exempts_only_shard_dependent () =
  let module O = Mptcp_repro.Exp.Outcome in
  let (module Sc : Mptcp_repro.Scenarios.Registry.SCENARIO) =
    Mptcp_repro.Scenarios.Registry.find "fattree-sharded"
  in
  let run shards =
    Sc.run
      Mptcp_repro.Exp.Spec.
        [
          ("shards", Int shards); ("k", Int 4); ("flows_per_host", Int 2);
          ("duration", Float 1.5); ("warmup", Float 0.5);
        ]
  in
  let base = run 1 and shd = run 2 in
  let flagged ~exempt b =
    List.filter_map
      (fun (d : O.field_diff) ->
        if d.differing > 0 then Some (d.field, d.differing) else None)
      (O.bitwise_diff ~exempt base b)
  in
  Alcotest.(check (list (pair string int)))
    "unexempted, only the shard-dependent pair differs"
    (List.sort compare (List.map (fun m -> (m, 1)) O.shard_dependent))
    (List.sort compare (flagged ~exempt:[] shd));
  Alcotest.(check int) "11 metrics and flow_mbps compared" 12
    (List.length (O.bitwise_diff ~exempt:O.shard_dependent base shd));
  Alcotest.(check (list (pair string int))) "nothing else differs" []
    (flagged ~exempt:O.shard_dependent shd);
  let flows = Array.copy (List.assoc "flow_mbps" shd.O.arrays) in
  flows.(5) <- Float.succ flows.(5);
  Alcotest.(check (list (pair string int)))
    "one changed goodput is flagged" [ ("flow_mbps", 1) ]
    (flagged ~exempt:O.shard_dependent
       { shd with O.arrays = [ ("flow_mbps", flows) ] })

let suite =
  [
    Alcotest.test_case "pod cut k=4" `Quick test_cut_k4;
    Alcotest.test_case "pod cut k=8" `Quick test_cut_k8;
    Alcotest.test_case "rejects bad shard counts" `Quick
      test_cut_rejects_bad_shards;
    QCheck_alcotest.to_alcotest prop_merge_is_sequential_order;
    Alcotest.test_case "window count" `Quick test_windows;
    Alcotest.test_case "shards=1 = sequential (golden)" `Slow
      test_shards1_matches_sequential;
    Alcotest.test_case "fattree = fattree-sharded at 2 shards" `Slow
      test_fattree_matches_two_shards;
    Alcotest.test_case "shard-count invariance is exact" `Slow
      test_invariance_exact;
    Alcotest.test_case "warm-up checked before any event" `Quick
      test_rejects_warmup_before_running;
    Alcotest.test_case "sharded run deterministic" `Slow
      test_sharded_run_deterministic;
    Alcotest.test_case "traced decode is shard-count invariant" `Slow
      test_traced_decode_shard_invariant;
    Alcotest.test_case "cut messages count departures by the horizon" `Quick
      test_cut_count_excludes_queued;
    Alcotest.test_case "send requires a wired feed" `Quick
      test_send_requires_wired_feed;
    Alcotest.test_case "deliver rejects a late arrival" `Quick
      test_deliver_rejects_late_arrival;
    Alcotest.test_case "outcome diff exempts only the shard-dependent pair"
      `Slow test_outcome_diff_exempts_only_shard_dependent;
  ]
