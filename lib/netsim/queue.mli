(** Output queue of a link: serialization at the link rate plus a buffer
    with a queueing discipline — DropTail or the paper's RED profile.

    The RED profile of §III ("Testbed Setup"): the dropping probability is
    0 below [min_th], grows linearly to [max_p] at [max_th], then linearly
    to 1 at [2·max_th] (gentle mode); queue averaging uses an exponential
    weight. Thresholds are in packets. *)

type red_params = {
  min_th : float;
  max_th : float;
  max_p : float;
  weight : float;  (** EWMA weight of the average-queue estimator *)
}

val paper_red : link_mbps:float -> red_params
(** The paper's parameters, proportionally adapted to the link capacity:
    [min_th = 25], [max_th = 50] and [max_p = 0.1] for a 10 Mb/s link. *)

type discipline = Droptail | Red of red_params

type t

val create :
  sim:Sim.t ->
  rng:Rng.t ->
  rate_bps:float ->
  buffer_pkts:int ->
  discipline:discipline ->
  ?name:string ->
  unit ->
  t
(** A queue serving packets at [rate_bps]. Packets beyond [buffer_pkts]
    are always dropped (hard limit); RED drops probabilistically before
    that. Raises [Invalid_argument] unless [rate_bps] is finite and
    positive and [buffer_pkts] positive.

    The route slot makes the queue {e unwired} ({!hop}) or {e wired}
    ({!wired_hop}), and builds its storage: one queue takes slots of
    one kind only. An unwired queue schedules a serve event per packet
    and hands the packet to the next slot when its service ends. A
    wired queue feeds a wire directly and costs no event per packet.
    It computes each packet's departure when it admits it —
    [start +. size/rate], where [start] is the admission instant for an
    idle queue and the previous packet's departure otherwise, the same
    float operations the serve event would perform — stamps it in
    [times.departs], and arms its wire at once. It keeps one departure
    time and two bytes of size and kind per queued packet. Departures
    take effect lazily, before any admission or statistics read,
    through {!Sim.departed}: every result — drops, RED decisions,
    {!backlog}, {!bytes_forwarded} and the traced [Pkt_forward] — is
    bit-identical to the unwired queue's. [Topology.Duplex] wires every
    queue it builds. *)

val hop : t -> Packet.hop
(** The enqueue entry point of an unwired queue, to place on routes.
    Raises [Invalid_argument] on a wired queue: its slot names its
    wire. *)

(** What a wired queue feeds: a propagation pipe, or the channel that
    stands in for one on a link cut between shards. *)
type wire = Pipe of Pipe.t | Channel of Shard.channel

val wired_hop : t -> wire -> Packet.hop
(** The route slot of a wired queue, to place on routes right before
    its wire's own slot ({!Pipe.hop}, or {!Shard.send} on the channel).
    An admitted packet steps past the wire's slot, which it never
    enters, and the slot arms the wire directly: {!Pipe.send} or
    {!Shard.send}, which deliver to the slot after the wire's. The
    wire's slot keeps the route's hop indices those of a queue that
    schedules its own service. Raises [Invalid_argument] on a queue
    that already has an unwired slot ({!hop}). *)

val backlog : t -> int
(** Packets currently queued or in service. On a wired queue, packets
    whose departure the scheduler has passed ({!Sim.departed}) are
    retired first. *)

val capacity : t -> int
(** The [buffer_pkts] bound the queue was created with. *)

val arrivals : t -> int
(** Data-packet arrivals (ACKs are not counted in the loss statistics). *)

val drops : t -> int
(** Data packets dropped. *)

val drops_overflow : t -> int
(** Data packets dropped because the buffer was full; with
    [drops_red] this partitions [drops]. *)

val drops_red : t -> int
(** Data packets dropped by RED early marking (always 0 for DropTail). *)

val loss_probability : t -> float
(** [drops / arrivals] since creation (or since [reset_stats]). *)

val bytes_forwarded : t -> int
(** Payload bytes fully serialized, for utilization measurements (on a
    wired queue, retiring departed packets first, as {!backlog}). *)

val utilization : t -> since:float -> now:float -> float
(** Fraction of the link capacity used by forwarded bytes over the window
    [\[since, now\]]. Requires [reset_stats] to have been called at
    [since] for an exact figure. *)

val reset_stats : t -> unit
(** Zero the arrival/drop/byte counters (used after warm-up). *)
