(** Shared plumbing for the testbed scenarios: algorithm factories,
    warm-up handling and goodput measurement. *)

type cc_factory = unit -> Repro_cc.Cc_types.t
(** Fresh congestion-controller per connection. *)

val factory_of_name : string -> cc_factory
(** Every {!Repro_cc.Registry} name: ["reno"], ["lia"], ["olia"],
    ["balia"], ["cubic"], ["scalable"], ["wvegas"] and
    ["coupled:<eps>"]. Raises [Invalid_argument] on unknown names. *)

type measured = {
  goodput_pps : float;  (** packets per second over the measurement window *)
  goodput_mbps : float;
  per_subflow_mbps : float array;
      (** the same window split by subflow, indexed like the
          connection's paths *)
}

val measure_conns :
  sim:Repro_netsim.Sim.t ->
  warmup:float ->
  duration:float ->
  Repro_netsim.Tcp.conn list ->
  measured list
(** Run the simulation to [duration], snapshotting each connection's
    delivered packets at [warmup]; goodputs cover
    [\[warmup, duration\]]. Raises [Invalid_argument] on a non-finite
    [duration], which no event loop reaches, and on
    [warmup >= duration]. *)

val mbps_of_pps : float -> float
(** 1500-byte packets per second → Mbit/s. *)

val observe :
  meter:Repro_obs.Meter.t ->
  sim:Repro_netsim.Sim.t ->
  ?subflow_goodput_bps:(string * float) list ->
  Repro_netsim.Queue.t list ->
  Repro_obs.Meter.report
(** Finish a run's meter from the simulator's counters and the drop
    split summed over [queues], attaching any labelled per-subflow
    goodputs (see {!subflow_goodput_bps}). Call it after the event
    loop, before building the outcome. *)

val subflow_goodput_bps :
  label:string -> subflows:int -> measured list -> (string * float) list
(** [subflow_goodput_bps ~label ~subflows ms] averages
    [per_subflow_mbps] across the class [ms] and returns
    [("<label>_sf<i>", bit/s)] for [i < subflows]. The label set is
    fixed by [subflows] — connections lacking a subflow contribute 0 —
    so metric names stay uniform across parameter points. *)

val paper_rtt : float
(** 0.150 s — the testbed's operating-point RTT (80 ms propagation plus
    ≈70 ms of queueing). *)

val paper_propagation_delay : float
(** 0.080 s round-trip propagation ⇒ 0.040 s each way. *)

val red_for : rate_bps:float -> Repro_netsim.Queue.discipline
(** The paper's RED profile scaled to the link rate. *)

val bottleneck_buffer : rate_bps:float -> int
(** 300 packets for a 10 Mb/s link, proportionally adapted (min 50). *)

val mean : float list -> float
(** Arithmetic mean; [nan] on the empty list. *)

val split_at : int -> 'a list -> 'a list * 'a list
(** [split_at n l] is [(first n elements, rest)]. *)
