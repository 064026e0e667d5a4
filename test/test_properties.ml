(* Property-based tests of cross-module invariants: conservation laws in
   the simulator, bounds from the paper's equations, and structural
   properties of the topology. *)

open Mptcp_repro.Netsim
module F = Mptcp_repro.Fluid
module Invariant = Mptcp_repro.Stats.Invariant
module Trace = Mptcp_repro.Obs.Trace
module Json = Mptcp_repro.Stats.Json

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at ~src sim t f = ignore (Sim.schedule_at ~src sim t f : Sim.Timer.t)
  let schedule_after ~src sim d f = ignore (Sim.schedule_after ~src sim d f : Sim.Timer.t)
end

(* --- simulator conservation -------------------------------------------- *)

let prop_queue_conserves_packets =
  QCheck.Test.make ~name:"queue: arrivals = forwarded + dropped + backlog"
    ~count:60
    QCheck.(
      triple (int_range 1 400) (int_range 1 50) (int_range 0 1000))
    (fun (n_packets, buffer, seed) ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed in
      let q =
        Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:buffer
          ~discipline:Queue.Droptail ()
      in
      let forwarded = ref 0 in
      let sink (_ : Packet.t) = incr forwarded in
      let route = [| Queue.hop q; sink |] in
      (* random arrival times in [0, 0.2): bursts stress the buffer *)
      for i = 0 to n_packets - 1 do
        Sim.schedule_at ~src:"test" sim
          (Rng.uniform rng 0.2)
          (fun () ->
            Packet.forward
              (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route))
      done;
      Sim.run_until sim 0.2;
      (* stop mid-drain: backlog may be non-zero *)
      Queue.arrivals q = !forwarded + Queue.drops q + Queue.backlog q)

let prop_red_drops_bounded_by_droptail_capacity =
  QCheck.Test.make
    ~name:"queue: RED never delivers more than the link can carry" ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed in
      let q =
        Queue.create ~sim ~rng ~rate_bps:1.2e6 ~buffer_pkts:100
          ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:1.2)) ()
      in
      let forwarded = ref 0 in
      let sink (_ : Packet.t) = incr forwarded in
      let route = [| Queue.hop q; sink |] in
      for i = 0 to 999 do
        Sim.schedule_at ~src:"test" sim
          (Rng.uniform rng 1.)
          (fun () ->
            Packet.forward
              (Packet.data ~flow:0 ~subflow:0 ~seq:i ~sent_at:0. ~route))
      done;
      Sim.run_until sim 1.;
      (* 1.2 Mb/s for 1 s = at most 100 packets (+1 boundary) *)
      !forwarded <= 101)

let prop_finite_flows_complete_exactly =
  QCheck.Test.make
    ~name:"tcp: finite transfers deliver exactly their size under any loss"
    ~count:25
    QCheck.(
      triple (int_range 20 300) (int_range 8 60) (int_range 0 1000))
    (fun (size, buffer, seed) ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed in
      let q =
        Queue.create ~sim ~rng ~rate_bps:4e6 ~buffer_pkts:buffer
          ~discipline:Queue.Droptail ()
      in
      let fwd = Pipe.create ~sim ~delay:0.02 in
      let rv = Pipe.create ~sim ~delay:0.02 in
      let conn =
        Tcp.create ~sim
          ~cc:(Mptcp_repro.Cc.Reno.create ())
          ~paths:
            [|
              {
                Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |];
                rev = [| Pipe.hop rv |];
              };
            |]
          ~size_pkts:size ~flow_id:0 ()
      in
      Sim.run_until sim 300.;
      Tcp.completed conn && Tcp.total_acked conn = size)

let prop_mptcp_split_sums_to_size =
  QCheck.Test.make
    ~name:"mptcp: subflow deliveries sum exactly to the transfer size"
    ~count:20
    QCheck.(pair (int_range 50 400) (int_range 0 1000))
    (fun (size, seed) ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed in
      let mk () =
        let q =
          Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:5e6
            ~buffer_pkts:50 ~discipline:Queue.Droptail ()
        in
        let fwd = Pipe.create ~sim ~delay:0.02 in
        let rv = Pipe.create ~sim ~delay:0.02 in
        {
          Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |];
          rev = [| Pipe.hop rv |];
        }
      in
      let conn =
        Tcp.create ~sim
          ~cc:(Mptcp_repro.Cc.Olia.create ())
          ~paths:[| mk (); mk () |]
          ~size_pkts:size ~flow_id:0 ()
      in
      Sim.run_until sim 300.;
      Tcp.completed conn
      && Tcp.subflow_acked conn 0 + Tcp.subflow_acked conn 1 = size)

(* --- wired queues --------------------------------------------------------- *)

(* A wired queue (the mode every Duplex link uses) computes each
   departure at admission and hands the packet straight to its wire; an
   unwired one schedules a serve event per packet. The two must be
   indistinguishable. Random small topologies are built twice, once per
   mode, and must agree on everything observable: per-flow ACKs, every
   queue's arrivals, drops, forwarded bytes and sampled backlog, and the
   decoded trace. Rates and delays are mostly dyadic, so times add up
   exactly and same-instant ties are everywhere: a packet reaching a
   queue at the instant its head departs, in both orders (delay below or
   above the service time), and equal-delay parallel paths that deliver
   at one instant. *)
type wlink = { rate : float; delay : float; red : bool; buffer : int }

type wcase = {
  links : wlink array;
  paths : int list array; (* link indices, sender to receiver *)
  flows : (string * int list * float) list; (* cc, path indices, start *)
  traced : bool;
  seed : int;
}

let gen_wcase =
  let open QCheck.Gen in
  let link =
    map
      (fun (rate, delay, red, buffer) -> { rate; delay; red; buffer })
      (quad
         (oneofl [ 1.536e6; 3.072e6; 12.288e6; 10e6 ])
         (oneofl [ 0.0009765625; 0.00390625; 0.0078125; 0.005 ])
         bool (int_range 4 40))
  in
  int_range 2 5 >>= fun nl ->
  array_repeat nl link >>= fun links ->
  let subset n =
    list_size (int_range 1 3) (int_bound (n - 1)) >|= List.sort_uniq compare
  in
  let path = subset nl in
  int_range 1 4 >>= fun np ->
  array_repeat np path >>= fun paths ->
  let flow =
    triple
      (oneofl [ "reno"; "lia"; "olia"; "balia" ])
      (subset np)
      (oneofl [ 0.; 0.0009765625; 0.0625 ])
  in
  list_size (int_range 1 3) flow >>= fun flows ->
  pair bool (int_bound 10_000) >|= fun (traced, seed) ->
  { links; paths; flows; traced; seed }

let print_wcase c =
  Printf.sprintf "links [%s] paths [%s] flows [%s] traced %b seed %d"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l ->
               Printf.sprintf "%g b/s %g s%s buf %d" l.rate l.delay
                 (if l.red then " red" else "")
                 l.buffer)
             c.links)))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun p -> String.concat "-" (List.map string_of_int p))
             c.paths)))
    (String.concat "; "
       (List.map
          (fun (cc, ps, st) ->
            Printf.sprintf "%s over %s from %g" cc
              (String.concat "," (List.map string_of_int ps))
              st)
          c.flows))
    c.traced c.seed

(* Everything observable about one run of a case. *)
let run_wcase ~wired c =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:c.seed in
  let queue l dir i =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:l.rate
      ~buffer_pkts:l.buffer
      ~discipline:
        (if l.red then Queue.Red (Queue.paper_red ~link_mbps:(l.rate /. 1e6))
         else Queue.Droptail)
      ~name:(Printf.sprintf "w%d%s" i dir) ()
  in
  let hops =
    Array.mapi
      (fun i l ->
        let fq = queue l ">" i and rq = queue l "<" i in
        let fp = Pipe.create ~sim ~delay:l.delay
        and rp = Pipe.create ~sim ~delay:l.delay in
        (* a wired queue's slot names its wire and arms it directly *)
        let slot q p =
          if wired then Queue.wired_hop q (Queue.Pipe p) else Queue.hop q
        in
        ( fq,
          rq,
          [| slot fq fp; Pipe.hop fp |],
          [| slot rq rp; Pipe.hop rp |] ))
      c.links
  in
  let queues =
    Array.concat
      (Array.to_list (Array.map (fun (f, r, _, _) -> [| f; r |]) hops))
  in
  let route pick links =
    Array.concat (List.map (fun i -> pick hops.(i)) links)
  in
  let tcp_path p =
    {
      Tcp.fwd = route (fun (_, _, f, _) -> f) p;
      rev = route (fun (_, _, _, r) -> r) (List.rev p);
    }
  in
  let mon = Monitor.create ~sim ~period:0.0173 () in
  Array.iteri (fun i q -> Monitor.watch_backlog mon (string_of_int i) q) queues;
  let run () =
    let conns =
      List.mapi
        (fun i (cc, ps, start) ->
          Tcp.create ~sim
            ~cc:(Mptcp_repro.Cc.Registry.create cc)
            ~paths:(Array.of_list (List.map (fun j -> tcp_path c.paths.(j)) ps))
            ~start ~flow_id:i ())
        c.flows
    in
    Sim.schedule_at ~src:"test" sim 0.5 (fun () ->
        Array.iter Queue.reset_stats queues);
    Sim.run_until sim 1.5;
    List.map Tcp.total_acked conns
  in
  let acked, trace =
    if c.traced then
      let acked, evs = Trace.capture ~capacity:(1 lsl 17) run in
      (acked, List.map (fun e -> Json.to_string (Trace.to_json e)) evs)
    else (run (), [])
  in
  let per_queue f = Array.to_list (Array.map f queues) in
  ( acked,
    per_queue (fun q ->
        [
          Queue.arrivals q;
          Queue.drops q;
          Queue.bytes_forwarded q;
          Queue.backlog q;
        ]),
    List.init (Array.length queues) (fun i ->
        Mptcp_repro.Stats.Timeseries.to_array
          (Monitor.series mon (string_of_int i))),
    trace )

let prop_wired_equals_unwired =
  QCheck.Test.make ~name:"queue: wired and unwired links give the same run"
    ~count:40
    (QCheck.make ~print:print_wcase gen_wcase)
    (fun c -> run_wcase ~wired:true c = run_wcase ~wired:false c)

(* --- algorithm bounds ---------------------------------------------------- *)

let views_gen =
  QCheck.(
    list_of_size (Gen.int_range 2 8)
      (pair (float_range 1. 60.) (float_range 0.01 0.6)))

let prop_olia_alpha_magnitude_bound =
  (* Eq. 6: |alpha_r| <= 1/|Ru| *)
  QCheck.Test.make ~name:"olia: |alpha| <= 1/|R|" ~count:300
    QCheck.(pair views_gen (list_of_size (Gen.int_range 2 8) (float_range 0. 1e5)))
    (fun (specs, ells) ->
      let views =
        Array.of_list
          (List.map (fun (w, r) -> { Mptcp_repro.Cc.Types.cwnd = w; rtt = r }) specs)
      in
      let n = Array.length views in
      let ell = Array.init n (fun i -> List.nth ells (i mod List.length ells)) in
      let alpha = Mptcp_repro.Cc.Olia.alpha_values ~ell views in
      Array.for_all (fun a -> abs_float a <= (1. /. float_of_int n) +. 1e-12) alpha)

let prop_coupled_increase_monotone_in_eps_at_large_w =
  (* for windows above 1, a larger epsilon (less coupling) gives a larger
     per-ACK increase on any subflow of a multi-subflow connection whose
     total exceeds its own window *)
  QCheck.Test.make ~name:"coupled: increase grows with epsilon (w > 1)"
    ~count:200
    QCheck.(pair (float_range 2. 50.) (float_range 2. 50.))
    (fun (w1, w2) ->
      let views =
        [|
          { Mptcp_repro.Cc.Types.cwnd = w1; rtt = 0.1 };
          { Mptcp_repro.Cc.Types.cwnd = w2; rtt = 0.1 };
        |]
      in
      let inc eps =
        (Mptcp_repro.Cc.Coupled.create ~epsilon:eps).Mptcp_repro.Cc.Types
          .increase ~views ~idx:0
      in
      inc 0. <= inc 1. +. 1e-12 && inc 1. <= inc 2. +. 1e-12)

let prop_balia_positive =
  QCheck.Test.make ~name:"balia: increase positive, decrease within bounds"
    ~count:200 views_gen
    (fun specs ->
      let views =
        Array.of_list
          (List.map (fun (w, r) -> { Mptcp_repro.Cc.Types.cwnd = w; rtt = r }) specs)
      in
      let cc = Mptcp_repro.Cc.Balia.create () in
      let ok = ref true in
      Array.iteri
        (fun idx v ->
          let inc = cc.Mptcp_repro.Cc.Types.increase ~views ~idx in
          let dec = cc.Mptcp_repro.Cc.Types.loss_decrease ~views ~idx in
          if inc <= 0. then ok := false;
          if dec < 0. || dec > 0.75 *. v.Mptcp_repro.Cc.Types.cwnd +. 1e-9 then
            ok := false)
        views;
      !ok)

(* --- fluid bounds ---------------------------------------------------------- *)

let prop_scenario_a_type2_never_gains =
  (* upgrading type-1 users can only hurt type-2 users: norm2 <= 1 *)
  QCheck.Test.make ~name:"scenario A: type-2 normalized throughput <= 1"
    ~count:200
    QCheck.(
      triple (int_range 1 50) (int_range 1 50)
        (pair (float_range 0.2 3.) (float_range 0.2 3.)))
    (fun (n1, n2, (c1, c2)) ->
      let r =
        F.Scenario_a.lia
          {
            F.Scenario_a.n1;
            n2;
            c1 = F.Units.pps_of_mbps c1;
            c2 = F.Units.pps_of_mbps c2;
            rtt = 0.15;
          }
      in
      r.F.Scenario_a.norm_type2 <= 1. +. 1e-9 && r.F.Scenario_a.norm_type2 > 0.)

let prop_scenario_c_lia_between_fair_and_greedy =
  QCheck.Test.make
    ~name:"scenario C: single-path share positive, multipath >= fair floor"
    ~count:200
    QCheck.(
      triple (int_range 1 40) (int_range 1 40)
        (pair (float_range 0.2 2.5) (float_range 0.2 2.5)))
    (fun (n1, n2, (c1, c2)) ->
      let params =
        {
          F.Scenario_c.n1;
          n2;
          c1 = F.Units.pps_of_mbps c1;
          c2 = F.Units.pps_of_mbps c2;
          rtt = 0.15;
        }
      in
      let r = F.Scenario_c.lia params in
      r.F.Scenario_c.y > 0.
      && r.F.Scenario_c.x1 +. r.F.Scenario_c.x2 >= r.F.Scenario_c.x1 -. 1e-9)

let prop_scenario_c_optimum_dominates_lia_for_singles =
  QCheck.Test.make
    ~name:"scenario C: optimum never worse than LIA for single-path users"
    ~count:200
    QCheck.(pair (int_range 1 40) (float_range 0.34 2.5))
    (fun (n1, c1) ->
      let params =
        {
          F.Scenario_c.n1;
          n2 = 10;
          c1 = F.Units.pps_of_mbps c1;
          c2 = F.Units.pps_of_mbps 1.;
          rtt = 0.15;
        }
      in
      let lia = F.Scenario_c.lia params in
      let opt = F.Scenario_c.optimum_with_probing params in
      opt.F.Scenario_c.norm_single >= lia.F.Scenario_c.norm_single -. 1e-9)

let prop_scenario_b_regimes_consistent =
  QCheck.Test.make ~name:"scenario B: loss ratio matches the declared regime"
    ~count:200
    QCheck.(float_range 0.1 3.)
    (fun ratio ->
      let r =
        F.Scenario_b.lia_red_multipath
          {
            F.Scenario_b.n = 15;
            cx = F.Units.pps_of_mbps (36. *. ratio);
            ct = F.Units.pps_of_mbps 36.;
            rtt = 0.15;
          }
      in
      match r.F.Scenario_b.regime with
      | F.Scenario_b.X_more_congested ->
        r.F.Scenario_b.px >= r.F.Scenario_b.pt -. 1e-9
      | F.Scenario_b.T_more_congested ->
        r.F.Scenario_b.pt >= r.F.Scenario_b.px -. 1e-9)

let prop_lia_rates_positive_and_bounded =
  QCheck.Test.make ~name:"Eq.2: all LIA path rates positive, sum = best"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (pair (float_range 1e-4 0.5) (float_range 0.01 1.)))
    (fun specs ->
      let paths =
        List.map (fun (l, r) -> { F.Tcp_model.loss = l; rtt = r }) specs
      in
      let rates = F.Tcp_model.lia_rates paths in
      let total = List.fold_left ( +. ) 0. rates in
      let best = F.Tcp_model.best_path_rate paths in
      List.for_all (fun x -> x > 0.) rates
      && abs_float (total -. best) <= 1e-6 *. best)

(* --- topology ----------------------------------------------------------------- *)

let prop_fattree_sample_within_all =
  QCheck.Test.make ~name:"fattree: sampled paths are a subset by count"
    ~count:60
    QCheck.(
      triple (int_range 0 15) (int_range 0 15) (int_range 1 10))
    (fun (src, dst, n) ->
      src = dst
      ||
      let sim = Sim.create () in
      let rng = Rng.create ~seed:1 in
      let tree =
        Mptcp_repro.Topology.Fattree.create ~sim ~rng ~k:4 ~rate_bps:1e6
          ~delay:0.001 ~buffer_pkts:10 ~discipline:Queue.Droptail ()
      in
      let all =
        Array.length (Mptcp_repro.Topology.Fattree.all_paths tree ~src ~dst)
      in
      let sampled =
        Array.length
          (Mptcp_repro.Topology.Fattree.sample_paths tree
             ~rng:(Rng.create ~seed:2) ~src ~dst ~n)
      in
      sampled = Stdlib.min n all)

let prop_workload_poisson_sorted_within_duration =
  QCheck.Test.make ~name:"workload: poisson arrivals sorted and bounded"
    ~count:100
    QCheck.(pair (int_range 0 1000) (float_range 1. 50.))
    (fun (seed, duration) ->
      let rng = Rng.create ~seed in
      let flows =
        Mptcp_repro.Workload.poisson_short_flows ~rng ~src:0 ~dst:1
          ~mean_interval:0.3 ~size_pkts:47 ~duration
      in
      let rec sorted prev = function
        | [] -> true
        | f :: rest ->
          f.Mptcp_repro.Workload.start >= prev
          && f.Mptcp_repro.Workload.start < duration
          && sorted f.Mptcp_repro.Workload.start rest
      in
      sorted 0. flows)

(* --- congestion-control update rules ----------------------------------- *)

let views_of specs =
  Array.of_list
    (List.map (fun (w, r) -> { Mptcp_repro.Cc.Types.cwnd = w; rtt = r }) specs)

let prop_olia_increase_bounded =
  (* Eq. 5: the Kelly-voice term is at most 1/w_r (since Σ w_p/rtt_p >=
     w_r/rtt_r) and |alpha_r| <= 1/|R|, so a fresh OLIA instance's
     per-ACK increase never exceeds (1 + 1/|R|)/w_r *)
  QCheck.Test.make ~name:"olia: per-ACK increase <= (1 + 1/n)/w" ~count:300
    views_gen
    (fun specs ->
      let views = views_of specs in
      let n = float_of_int (Array.length views) in
      let cc = Mptcp_repro.Cc.Olia.create () in
      Array.for_all
        (fun idx ->
          let inc = cc.Mptcp_repro.Cc.Types.increase ~views ~idx in
          inc >= 0.
          && inc <= ((1. +. (1. /. n)) /. views.(idx).Mptcp_repro.Cc.Types.cwnd) +. 1e-12)
        (Array.init (Array.length views) Fun.id))

let prop_lia_increase_at_most_reno =
  (* Eq. 1 takes the min with 1/w_r, so on any subflow with w >= 1 LIA
     is never more aggressive than a regular TCP flow on that path *)
  QCheck.Test.make ~name:"lia: increase <= Reno's 1/w on each subflow"
    ~count:300 views_gen
    (fun specs ->
      let views = views_of specs in
      Array.for_all
        (fun idx ->
          Mptcp_repro.Cc.Lia.increase_formula views idx
          <= (1. /. views.(idx).Mptcp_repro.Cc.Types.cwnd) +. 1e-12)
        (Array.init (Array.length views) Fun.id))

let prop_cwnd_floor_after_losses =
  (* after any pattern of random losses the window of every subflow
     stays at or above 1 MSS; run with the simulator invariants armed so
     internal consistency checks fire too (saving/restoring the flag) *)
  QCheck.Test.make ~name:"tcp: cwnd never below 1 MSS under random loss"
    ~count:25
    QCheck.(
      triple (int_range 0 1000) (int_range 0 2) (float_range 0.01 0.25))
    (fun (seed, algo_ix, loss_prob) ->
      let was_armed = Invariant.enabled () in
      Invariant.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Invariant.set_enabled was_armed)
        (fun () ->
          let sim = Sim.create () in
          let rng = Rng.create ~seed in
          let q =
            Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:4e6
              ~buffer_pkts:30 ~discipline:Queue.Droptail ()
          in
          let lossy = Fault.create ~sim ~rng:(Rng.split rng) () in
          Fault.set_mode lossy (Fault.Burst { loss_prob });
          let fwd = Pipe.create ~sim ~delay:0.02 in
          let rv = Pipe.create ~sim ~delay:0.02 in
          let cc =
            match algo_ix with
            | 0 -> Mptcp_repro.Cc.Reno.create ()
            | 1 -> Mptcp_repro.Cc.Lia.create ()
            | _ -> Mptcp_repro.Cc.Olia.create ()
          in
          let conn =
            Tcp.create ~sim ~cc
              ~paths:
                [|
                  {
                    Tcp.fwd = [| Fault.hop lossy; Queue.hop q; Pipe.hop fwd |];
                    rev = [| Pipe.hop rv |];
                  };
                |]
              ~flow_id:0 ()
          in
          Sim.run_until sim 20.;
          Fault.dropped lossy > 0 && Tcp.subflow_cwnd conn 0 >= 1.))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_queue_conserves_packets;
      prop_red_drops_bounded_by_droptail_capacity;
      prop_finite_flows_complete_exactly;
      prop_mptcp_split_sums_to_size;
      prop_olia_alpha_magnitude_bound;
      prop_olia_increase_bounded;
      prop_lia_increase_at_most_reno;
      prop_cwnd_floor_after_losses;
      prop_coupled_increase_monotone_in_eps_at_large_w;
      prop_balia_positive;
      prop_scenario_a_type2_never_gains;
      prop_scenario_c_lia_between_fair_and_greedy;
      prop_scenario_c_optimum_dominates_lia_for_singles;
      prop_scenario_b_regimes_consistent;
      prop_lia_rates_positive_and_bounded;
      prop_fattree_sample_within_all;
      prop_workload_poisson_sorted_within_duration;
      prop_wired_equals_unwired;
    ]
