open Repro_netsim

type cc_factory = unit -> Repro_cc.Cc_types.t

let factory_of_name name () = Repro_cc.Registry.create name

type measured = {
  goodput_pps : float;
  goodput_mbps : float;
  per_subflow_mbps : float array;
}

let mbps_of_pps pps = pps *. 1500. *. 8. /. 1e6

(* An event loop run to a non-finite time never returns: its flows
   keep it busy forever. *)
let measure_conns ~sim ~warmup ~duration conns =
  if not (Float.is_finite duration) then
    invalid_arg
      (Printf.sprintf "measure_conns: duration must be finite (got %g)"
         duration);
  if warmup >= duration then invalid_arg "measure_conns: warmup >= duration";
  let conns_a = Array.of_list conns in
  let totals = Array.make (Array.length conns_a) 0 in
  let per_sf =
    Array.map (fun c -> Array.make (Tcp.subflow_count c) 0) conns_a
  in
  ignore
    (Sim.schedule_at ~src:"scenario.warmup" sim warmup (fun () ->
         Array.iteri
           (fun i c ->
             totals.(i) <- Tcp.total_acked c;
             Array.iteri
               (fun s _ -> per_sf.(i).(s) <- Tcp.subflow_acked c s)
               per_sf.(i))
           conns_a)
      : Sim.Timer.t);
  Sim.run_until sim duration;
  let window = duration -. warmup in
  List.mapi
    (fun i c ->
      let pkts = Tcp.total_acked c - totals.(i) in
      let pps = float_of_int pkts /. window in
      let per_subflow_mbps =
        Array.mapi
          (fun s base ->
            mbps_of_pps (float_of_int (Tcp.subflow_acked c s - base) /. window))
          per_sf.(i)
      in
      { goodput_pps = pps; goodput_mbps = mbps_of_pps pps; per_subflow_mbps })
    conns

(* One meter report per run: the simulator's own counters plus the
   drop split summed over the scenario's queues. No metered scenario
   has a random-loss hop, so [drops_random] is 0. *)
let observe ~meter ~sim ?(subflow_goodput_bps = []) queues =
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 queues in
  (* lint: allow R11 -- the meter reports elapsed wall time of the run by design (operator-facing); every simulation metric it carries is seeded *)
  Repro_obs.Meter.finish meter ~sim_s:(Sim.now sim)
    ~events_processed:(Sim.events_processed sim)
    ~max_heap_depth:(Sim.max_heap_depth sim)
    ~drops_overflow:(sum Queue.drops_overflow)
    ~drops_red:(sum Queue.drops_red)
    ~drops_random:0
    ~subflow_goodput_bps

let paper_rtt = 0.150
let paper_propagation_delay = 0.080

let red_for ~rate_bps =
  Queue.Red (Queue.paper_red ~link_mbps:(rate_bps /. 1e6))

let bottleneck_buffer ~rate_bps =
  Stdlib.max 50 (int_of_float (300. *. rate_bps /. 10e6))

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let rec split_at n l =
  match l with
  | rest when n = 0 -> ([], rest)
  | [] -> ([], [])
  | x :: rest ->
    let a, b = split_at (n - 1) rest in
    (x :: a, b)

(* Class mean of each subflow's goodput, as labelled bit/s pairs for
   Meter. [subflows] fixes the label set (missing subflows count 0) so
   a scenario exports the same metric names at every parameter point —
   Sweep aggregation relies on uniform metric sets. *)
let subflow_goodput_bps ~label ~subflows measured =
  List.init subflows (fun s ->
      ( Printf.sprintf "%s_sf%d" label s,
        1e6
        *. mean
             (List.map
                (fun m ->
                  if s < Array.length m.per_subflow_mbps then
                    m.per_subflow_mbps.(s)
                  else 0.)
                measured) ))
