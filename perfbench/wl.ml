(* The three workloads, rebuilt from the same public calls their registry
   scenarios make (Topology, Workload, Cc.Registry, Tcp, Sim) so the
   benchmark owns the event loop and, in the traced run, can wrap each
   layer's entry points. Every build must reproduce its registry
   scenario outcome for outcome; [registry] runs the scenario itself so
   the caller can check that. Keep each build function in step with its
   scenario: the same calls, in the same order (the RNG stream and the
   scheduler's tie-break sequence depend on it). *)

open Repro_netsim
module Ft = Repro_topology.Fattree
module Workload = Repro_workload.Workload
module Common = Repro_scenarios.Common
module Outcome = Repro_exp.Outcome
module Spec = Repro_exp.Spec
module Fstatic = Repro_scenarios.Fattree_static
module Fdynamic = Repro_scenarios.Fattree_dynamic
module Scen_b = Repro_scenarios.Scen_b

type name = Ft_perm | Ft_short | Paper_report

let names = [ ("ft-perm", Ft_perm); ("ft-short", Ft_short); ("paper-report", Paper_report) ]
let to_string n = fst (List.find (fun (_, m) -> m = n) names)

(* Registry scenario, FatTree arity, simulated seconds and warm-up of
   one pass, and the simulated length of one timed window. The registry
   defaults stand except the duration and warm-up, shortened so a pass
   takes well under a second of host time, and the FatTree arity: the
   k=8 trees (default) keep a heap of about 8 MiB in the host's shared
   last-level cache, and on a shared VM other tenants' use of that
   cache moved their per-event cost by up to 2x in phases of seconds
   that no co-measured kernel follows (scaled per-pass cost still
   varied 11-15 %); the k=4 trees stay in the private caches, where the
   reference kernel follows host phases with correlation 0.98 (scaled
   per-pass cost within 4 %). *)
let registry_name = function
  | Ft_perm -> "fattree"
  | Ft_short -> "fattree-dynamic"
  | Paper_report -> "scenario-b"

let k = 4
let duration = function Ft_perm -> 4.0 | Ft_short -> 3.0 | Paper_report -> 10.0
let warmup = function Ft_perm -> 1.0 | Ft_short -> 1.0 | Paper_report -> 2.5
let window = function Ft_perm -> 0.005 | Ft_short -> 0.002 | Paper_report -> 0.05

(* The scenario seeds of one benchmark seed. A k=4 tree has 16 hosts,
   so one random permutation decides much of a run's cost (events per
   packet moved by 14-25 % from seed to seed); each run therefore
   cycles through 24 scenario seeds. Scenario B's thirty users on two
   queues vary little. *)
let scenario_seeds w ~seed =
  match w with
  | Paper_report -> [| seed |]
  | Ft_perm | Ft_short -> Array.init 24 (fun j -> (seed * 24) + j)

(* Ring capacity for paper-report: 10 simulated seconds emit about
   185,000 records, so nothing is dropped. *)
let ring_capacity = 1 lsl 18

(* --- set-up phase timing (traced run only) --- *)

let ph_topology = 0
let ph_paths = 1
let ph_workload = 2
let ph_tcp_create = 3
let phase_ns = Array.make 4 0
let phase_calls = Array.make 4 0

let reset_phases () =
  Array.fill phase_ns 0 4 0;
  Array.fill phase_calls 0 4 0

let phase traced ph f =
  if not traced then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    phase_ns.(ph) <- phase_ns.(ph) + (Clock.now_ns () - t0);
    phase_calls.(ph) <- phase_calls.(ph) + 1;
    r
  end

type built = {
  sim : Sim.t;
  conns : Tcp.conn array;  (** every connection, in creation order *)
  queues : Queue.t array;
  duration : float;
  outcome : unit -> Outcome.t;
      (** the registry scenario's outcome, computed from this build;
          call after the run *)
}

(* [Common.measure_conns] split at its event loop: schedule the warm-up
   snapshot now, compute the goodputs after the caller has run the
   simulation to [duration]. *)
let measure ~sim ~warmup ~duration conns =
  if warmup >= duration then invalid_arg "measure_conns: warmup >= duration";
  let conns_a = Array.of_list conns in
  let totals = Array.make (Array.length conns_a) 0 in
  let per_sf = Array.map (fun c -> Array.make (Tcp.subflow_count c) 0) conns_a in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim warmup (fun () ->
         Array.iteri
           (fun i c ->
             totals.(i) <- Tcp.total_acked c;
             Array.iteri (fun s _ -> per_sf.(i).(s) <- Tcp.subflow_acked c s) per_sf.(i))
           conns_a)
      : Sim.Timer.t);
  fun () ->
    let window = duration -. warmup in
    List.mapi
      (fun i c ->
        let pkts = Tcp.total_acked c - totals.(i) in
        let pps = float_of_int pkts /. window in
        let per_subflow_mbps =
          Array.mapi
            (fun s base ->
              Common.mbps_of_pps (float_of_int (Tcp.subflow_acked c s - base) /. window))
            per_sf.(i)
        in
        { Common.goodput_pps = pps; goodput_mbps = Common.mbps_of_pps pps; per_subflow_mbps })
      conns

let fattree_kinds n = Array.init n (fun i -> if i mod 2 = 0 then Span.Q else Span.P)

let wrap_path traced (p : Tcp.path) =
  if not traced then p
  else
    {
      Tcp.fwd = Span.route (fattree_kinds (Array.length p.Tcp.fwd)) p.Tcp.fwd;
      rev = Span.route (fattree_kinds (Array.length p.Tcp.rev)) p.Tcp.rev;
    }

let wrap_cc traced c = if traced then Span.cc_wrap c else c

(* Registry [fattree] (Fattree_static.run). *)
let ft_perm ~traced ~seed =
  let cfg = { Fstatic.default with k; duration = duration Ft_perm; warmup = warmup Ft_perm; seed } in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.rate_mbps *. 1e6 in
  let tree =
    phase traced ph_topology (fun () ->
        Ft.create ~sim ~rng:(Rng.split rng) ~k:cfg.k ~rate_bps:rate
          ~delay:(cfg.delay_ms /. 1000.) ~buffer_pkts:100 ~discipline:Queue.Droptail ())
  in
  let hosts = Ft.host_count tree in
  let flows =
    phase traced ph_workload (fun () ->
        Workload.permutation_long_flows ~rng:(Rng.split rng) ~hosts ~max_jitter:1.)
  in
  let factory =
    if cfg.subflows <= 1 then fun () -> Repro_cc.Reno.create ()
    else Common.factory_of_name cfg.algo
  in
  let conns =
    List.map
      (fun { Workload.start; src; dst; _ } ->
        let paths =
          phase traced ph_paths (fun () ->
              Ft.sample_paths tree ~rng ~src ~dst ~n:(Stdlib.max 1 cfg.subflows))
        in
        let paths = Array.map (wrap_path traced) paths in
        let cc = wrap_cc traced (factory ()) in
        phase traced ph_tcp_create (fun () ->
            Tcp.create ~sim ~cc ~paths ~start ~flow_id:src ()))
      flows
  in
  let core = Ft.core_queues tree in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim cfg.warmup (fun () ->
         List.iter Queue.reset_stats (Ft.all_queues tree))
      : Sim.Timer.t);
  let measured = measure ~sim ~warmup:cfg.warmup ~duration:cfg.duration conns in
  let outcome () =
    let flow_mbps = Array.of_list (List.map (fun m -> m.Common.goodput_mbps) (measured ())) in
    let total = Array.fold_left ( +. ) 0. flow_mbps in
    let optimal = float_of_int hosts *. cfg.rate_mbps in
    let ranked_pct =
      let a = Array.map (fun m -> 100. *. m /. cfg.rate_mbps) flow_mbps in
      Array.sort compare a;
      a
    in
    let losses = List.map Queue.loss_probability core in
    Outcome.of_metrics
      ~arrays:[ ("flow_mbps", flow_mbps); ("ranked_pct", ranked_pct) ]
      [
        ("aggregate_pct_optimal", 100. *. total /. optimal);
        ("mean_core_loss", Common.mean losses);
      ]
  in
  {
    sim;
    conns = Array.of_list conns;
    queues = Array.of_list (Ft.all_queues tree);
    duration = cfg.duration;
    outcome;
  }

(* Registry [fattree-dynamic] (Fattree_dynamic.run). *)
let ft_short ~traced ~seed =
  let cfg = { Fdynamic.default with k; duration = duration Ft_short; warmup = warmup Ft_short; seed } in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate = cfg.rate_mbps *. 1e6 in
  let tree =
    phase traced ph_topology (fun () ->
        Ft.create ~sim ~rng:(Rng.split rng) ~k:cfg.k ~rate_bps:rate
          ~delay:(cfg.delay_ms /. 1000.) ~buffer_pkts:100 ~discipline:Queue.Droptail
          ~oversubscription:cfg.oversubscription ())
  in
  let hosts = Ft.host_count tree in
  let wl_rng = Rng.split rng in
  let dest = Rng.derangement_permutation wl_rng hosts in
  let is_long src = src mod 3 = 0 in
  let factory =
    if cfg.subflows <= 1 || cfg.algo = "reno" then fun () -> Repro_cc.Reno.create ()
    else Common.factory_of_name cfg.algo
  in
  let all = ref [] in
  let long_conns = ref [] in
  let completions = ref [] in
  let started_shorts = ref 0 and finished_shorts = ref 0 in
  for src = 0 to hosts - 1 do
    if is_long src then begin
      let n = if cfg.algo = "reno" then 1 else cfg.subflows in
      let paths =
        phase traced ph_paths (fun () -> Ft.sample_paths tree ~rng ~src ~dst:dest.(src) ~n)
      in
      let paths = Array.map (wrap_path traced) paths in
      let start = Rng.uniform wl_rng 1. in
      let cc = wrap_cc traced (factory ()) in
      let conn =
        phase traced ph_tcp_create (fun () -> Tcp.create ~sim ~cc ~paths ~start ~flow_id:src ())
      in
      long_conns := conn :: !long_conns;
      all := conn :: !all
    end
    else begin
      let shorts =
        phase traced ph_workload (fun () ->
            Workload.poisson_short_flows ~rng:wl_rng ~src ~dst:dest.(src)
              ~mean_interval:cfg.mean_interval ~size_pkts:Workload.short_flow_pkts
              ~duration:cfg.duration)
      in
      List.iter
        (fun { Workload.start; size_pkts; src; dst } ->
          incr started_shorts;
          let paths = phase traced ph_paths (fun () -> Ft.sample_paths tree ~rng ~src ~dst ~n:1) in
          let paths = Array.map (wrap_path traced) paths in
          let on_complete t_end =
            incr finished_shorts;
            if start >= cfg.warmup then completions := ((t_end -. start) *. 1000.) :: !completions
          in
          let cc = wrap_cc traced (Repro_cc.Reno.create ()) in
          let conn =
            phase traced ph_tcp_create (fun () ->
                Tcp.create ~sim ~cc ~paths ?size_pkts ~start ~on_complete ~flow_id:src ())
          in
          all := conn :: !all)
        shorts
    end
  done;
  let core = Ft.core_queues tree in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim cfg.warmup (fun () ->
         List.iter Queue.reset_stats core)
      : Sim.Timer.t);
  let measured = measure ~sim ~warmup:cfg.warmup ~duration:cfg.duration !long_conns in
  let outcome () =
    let measured = measured () in
    let completion_times_ms = Array.of_list !completions in
    let summary = Repro_stats.Summary.of_array completion_times_ms in
    let utils =
      List.map (fun q -> Queue.utilization q ~since:cfg.warmup ~now:cfg.duration) core
    in
    Outcome.of_metrics
      ~arrays:[ ("completion_times_ms", completion_times_ms) ]
      [
        ("mean_completion_ms", Repro_stats.Summary.mean summary);
        ("stdev_completion_ms", Repro_stats.Summary.stdev summary);
        ("core_utilization_pct", 100. *. Common.mean utils);
        ("long_flow_mbps", Common.mean (List.map (fun m -> m.Common.goodput_mbps) measured));
        ("unfinished_shorts", float_of_int (!started_shorts - !finished_shorts));
      ]
  in
  {
    sim;
    conns = Array.of_list (List.rev !all);
    queues = Array.of_list (Ft.all_queues tree);
    duration = cfg.duration;
    outcome;
  }

(* Registry [scenario-b] (Scen_b.run). [cfg] defaults to the registry
   defaults with the benchmark's duration; the golden check passes the
   golden report's parameters. *)
let paper_report ?cfg ~traced ~seed () =
  let cfg =
    match cfg with
    | Some c -> c
    | None ->
      { Scen_b.default with duration = duration Paper_report; warmup = warmup Paper_report; seed }
  in
  let meter = Repro_obs.Meter.start () in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let rate_x = cfg.cx_mbps *. 1e6 and rate_t = cfg.ct_mbps *. 1e6 in
  let mk_queue rate name =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:rate
      ~buffer_pkts:(Common.bottleneck_buffer ~rate_bps:rate)
      ~discipline:(Common.red_for ~rate_bps:rate) ~name ()
  in
  let qx, qt =
    phase traced ph_topology (fun () ->
        let qx = mk_queue rate_x "ispX" and qt = mk_queue rate_t "ispT" in
        (qx, qt))
  in
  let one_way = Common.paper_propagation_delay /. 2. in
  let fwd_pipe = Pipe.create ~sim ~delay:one_way in
  let rev_pipe = Pipe.create ~sim ~delay:one_way in
  let route kinds hops = if traced then Span.route kinds hops else hops in
  let rev = [| Pipe.hop rev_pipe |] in
  let factory = Common.factory_of_name cfg.algo in
  let mk fwd kinds = { Tcp.fwd = route kinds fwd; rev = route [| Span.P |] rev } in
  let via_x () = mk [| Queue.hop qx; Pipe.hop fwd_pipe |] [| Span.Q; Span.P |] in
  let via_t () = mk [| Queue.hop qt; Pipe.hop fwd_pipe |] [| Span.Q; Span.P |] in
  let via_x_t () =
    mk [| Queue.hop qx; Queue.hop qt; Pipe.hop fwd_pipe |] [| Span.Q; Span.Q; Span.P |]
  in
  let blue =
    List.init cfg.n (fun i ->
        let paths = [| via_x (); via_t () |] in
        let start = Rng.uniform rng 2. in
        let cc = wrap_cc traced (factory ()) in
        phase traced ph_tcp_create (fun () -> Tcp.create ~sim ~cc ~paths ~start ~flow_id:i ()))
  in
  let red =
    List.init cfg.n (fun i ->
        let paths = if cfg.red_multipath then [| via_t (); via_x_t () |] else [| via_t () |] in
        let cc = if cfg.red_multipath then factory () else Repro_cc.Reno.create () in
        let cc = wrap_cc traced cc in
        let start = Rng.uniform rng 2. in
        phase traced ph_tcp_create (fun () ->
            Tcp.create ~sim ~cc ~paths ~start ~flow_id:(cfg.n + i) ()))
  in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim cfg.warmup (fun () ->
         Queue.reset_stats qx;
         Queue.reset_stats qt)
      : Sim.Timer.t);
  let measured = measure ~sim ~warmup:cfg.warmup ~duration:cfg.duration (blue @ red) in
  let outcome () =
    let measured = measured () in
    let rates = List.map (fun m -> m.Common.goodput_mbps) measured in
    let rb, rr = Common.split_at cfg.n rates in
    let mb, mr = Common.split_at cfg.n measured in
    let obs =
      Common.observe ~meter ~sim
        ~subflow_goodput_bps:
          (Common.subflow_goodput_bps ~label:"blue" ~subflows:2 mb
          @ Common.subflow_goodput_bps ~label:"red" ~subflows:2 mr)
        [ qx; qt ]
    in
    Outcome.add_metrics
      (Outcome.of_metrics
         [
           ("blue_rate", Common.mean rb);
           ("red_rate", Common.mean rr);
           ("aggregate", List.fold_left ( +. ) 0. rates);
           ("px", Queue.loss_probability qx);
           ("pt", Queue.loss_probability qt);
         ])
      (Repro_obs.Meter.metrics obs)
  in
  { sim; conns = Array.of_list (blue @ red); queues = [| qx; qt |]; duration = cfg.duration; outcome }

let build ~traced ~seed = function
  | Ft_perm -> ft_perm ~traced ~seed
  | Ft_short -> ft_short ~traced ~seed
  | Paper_report -> paper_report ~traced ~seed ()

(* The registry scenario itself at the same parameters and seed. *)
let registry w ~seed =
  let (module Sc : Repro_scenarios.Registry.SCENARIO) =
    Repro_scenarios.Registry.find (registry_name w)
  in
  let tree = match w with Paper_report -> [] | Ft_perm | Ft_short -> [ ("k", Spec.Int k) ] in
  Sc.run
    (tree
    @ [
      ("duration", Spec.Float (duration w));
      ("warmup", Spec.Float (warmup w));
      ("seed", Spec.Int seed);
    ])
