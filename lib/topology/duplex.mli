(** A bidirectional link: one queue + propagation pipe per direction.
    The building block for all testbed topologies.

    Both queues are wired: each one's route slot names its pipe
    ([Queue.wired_hop]), so the queue computes a packet's departure
    when it admits it and arms the far-end arrival on its pipe itself
    ([Pipe.send]) for departure + delay. A link hop therefore costs one
    scheduler event, not two, with results bit-identical to a queue
    that schedules its own service. *)

type t

val create :
  sim:Repro_netsim.Sim.t ->
  rng:Repro_netsim.Rng.t ->
  rate_bps:float ->
  delay:float ->
  buffer_pkts:int ->
  discipline:Repro_netsim.Queue.discipline ->
  ?name:string ->
  unit ->
  t
(** Both directions share the rate, delay, buffer and discipline. Each
    direction's two route slots are built here, once. *)

val fwd_hops : t -> Repro_netsim.Packet.hop array
(** The two slots traversing the link in the forward direction: the
    wired queue's, then its pipe's ({!Repro_netsim.Pipe.hop}), which the
    queue steps over and arms directly. The pipe slot keeps every hop
    index of a two-slot link; [Topology.Fattree] puts [Shard.send] on
    the channel there on a cut link, with the queue fed to the
    channel. The array and its closures are shared by every route
    through the link: copy it, never write to it. *)

val rev_hops : t -> Repro_netsim.Packet.hop array
(** The slots for the reverse direction, shared as {!fwd_hops}. *)

val fwd_queue : t -> Repro_netsim.Queue.t
(** The forward-direction queue, for loss and utilization statistics. *)

val rev_queue : t -> Repro_netsim.Queue.t

val one_way_delay : t -> float
