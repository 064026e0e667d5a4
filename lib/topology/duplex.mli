(** A bidirectional link: one queue + propagation pipe per direction.
    The building block for all testbed topologies.

    Both queues are wired ([Queue.create ~wired:true]): each computes a
    packet's departure when it admits it and hands the packet straight
    to the pipe, which arms the far-end arrival for departure + delay.
    A link hop therefore costs one scheduler event, not two, with
    results bit-identical to a queue that schedules its own service. *)

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
(** Both directions share the rate, delay, buffer and discipline. *)

val fwd_hops : t -> Repro_netsim.Packet.hop array
(** Hops (queue then pipe) traversing the link in the forward
    direction. The pipe slot must stay right after the queue: it is
    the wire the queue hands packets to ([Topology.Fattree] swaps it
    for a [Shard.egress] on a cut link). *)

val rev_hops : t -> Repro_netsim.Packet.hop array
(** Hops for the reverse direction. *)

val fwd_queue : t -> Repro_netsim.Queue.t
(** The forward-direction queue, for loss and utilization statistics. *)

val rev_queue : t -> Repro_netsim.Queue.t

val one_way_delay : t -> float
