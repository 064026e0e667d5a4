(** Fixed propagation delay element (htsim's "pipe"): forwards every
    packet after a constant latency, with unlimited capacity. *)

type t

val create : sim:Sim.t -> delay:float -> t
(** [delay] in seconds. Raises [Invalid_argument] unless it is finite
    and non-negative. *)

val hop : t -> Packet.hop
(** The entry point, to place on routes after an unwired queue or any
    other slot: the packet arrives at the next slot [delay] seconds
    after it reaches this one. *)

val send : t -> Packet.t -> unit
(** The wire of a wired queue ([Queue.wired_hop] with [Queue.Pipe]):
    the packet arrives at the next slot [delay] seconds after
    [times.departs], its departure from the queue, ordered as if armed
    at [departs] ([Sim.schedule_pkt ~sched:departs]) — the arrival
    {!hop} would have armed when the queue's serve event called it.
    The caller has already stepped the packet's hop index past this
    pipe's own slot. *)

val delay : t -> float
