open Repro_netsim

type config = {
  c_mbps : float;
  n_shock : int;
  shock_at : float;
  relief_at : float;
  duration : float;
  algo : string;
  seed : int;
}

let default =
  {
    c_mbps = 10.;
    n_shock = 8;
    shock_at = 60.;
    relief_at = 120.;
    duration = 180.;
    algo = "olia";
    seed = 1;
  }

let run cfg =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.c_mbps *. 1e6 in
  let mk name =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
  in
  let q1 = mk "path1" and q2 = mk "path2" in
  let one_way = Common.paper_propagation_delay /. 2. in
  let fwd_pipe = Pipe.create ~sim ~delay:one_way in
  let rev_pipe = Pipe.create ~sim ~delay:one_way in
  let rev = [| Pipe.hop rev_pipe |] in
  let path q = { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd_pipe |]; rev } in
  let mp =
    Tcp.create ~sim
      ~cc:(Common.factory_of_name cfg.algo ())
      ~paths:[| path q1; path q2 |]
      ~flow_id:0 ()
  in
  (* a permanent TCP companion on each path keeps both links busy *)
  let mk_tcp q start flow_id size =
    Tcp.create ~sim ~cc:(Repro_cc.Reno.create ()) ~paths:[| path q |] ~start
      ?size_pkts:size ~flow_id ()
  in
  let _ = mk_tcp q1 0.2 1 None and _ = mk_tcp q2 0.4 2 None in
  (* the shock: n TCP flows hammer path 2 between shock_at and relief_at;
     they are finite but large enough to outlast the window, and are
     silenced at relief by disabling their subflow *)
  let shock_flows =
    List.init cfg.n_shock (fun i ->
        mk_tcp q2
          (cfg.shock_at +. (0.1 *. float_of_int i))
          (100 + i) None)
  in
  ignore
    (Sim.schedule_at ~src:"responsiveness.relief" sim cfg.relief_at (fun () ->
         List.iter (fun c -> Tcp.set_subflow_enabled c 0 false) shock_flows)
      : Sim.Timer.t);
  (* sample the multipath user's path-2 window share; both windows stay
     at 1 packet or more *)
  let share_ts = Repro_stats.Timeseries.create () in
  let rec sample () =
    let w1 = Tcp.subflow_cwnd mp 0 and w2 = Tcp.subflow_cwnd mp 1 in
    Repro_stats.Timeseries.add share_ts ~time:(Sim.now sim) (w2 /. (w1 +. w2));
    if Sim.now sim +. 0.2 < cfg.duration then
      ignore
        (Sim.schedule_after ~src:"responsiveness.sample" sim 0.2 sample
          : Sim.Timer.t)
  in
  ignore
    (Sim.schedule_at ~src:"responsiveness.sample" sim 1. sample : Sim.Timer.t);
  (* goodput share probes: path 2's and the total delivered packets at
     each probe time, by position *)
  let probes =
    [| cfg.shock_at /. 2.; cfg.shock_at; cfg.relief_at; cfg.duration -. 0.1 |]
  in
  let acked = Array.make (Array.length probes) (0, 0) in
  Array.iteri
    (fun i t ->
      ignore
        (Sim.schedule_at ~src:"responsiveness.probe" sim t (fun () ->
             acked.(i) <- (Tcp.subflow_acked mp 1, Tcp.total_acked mp))
          : Sim.Timer.t))
    probes;
  Sim.run_until sim cfg.duration;
  let share_between t0 t1 =
    Repro_stats.Timeseries.mean_over share_ts ~from:t0 ~until:t1
  in
  let pre = share_between (cfg.shock_at /. 2.) cfg.shock_at in
  (* first crossing of a threshold after a reference time *)
  let first_crossing ~after ~below threshold =
    let hit = ref nan in
    Repro_stats.Timeseries.fold share_ts ~init:() ~f:(fun () t v ->
        if Float.is_nan !hit && t >= after then
          if (below && v < threshold) || ((not below) && v > threshold) then
            hit := t -. after);
    !hit
  in
  let goodput_share i j =
    let a2, tot = acked.(i) and b2, tot' = acked.(j) in
    if tot' > tot then float_of_int (b2 - a2) /. float_of_int (tot' - tot)
    else nan
  in
  Repro_exp.Outcome.of_metrics
    [
      ("pre_shock_share", pre);
      ( "shock_response_s",
        first_crossing ~after:cfg.shock_at ~below:true (pre /. 2.) );
      ( "relief_response_s",
        first_crossing ~after:cfg.relief_at ~below:false (pre /. 2.) );
      ("post_relief_share", goodput_share 2 3);
    ]
