(** Fixed propagation delay element (htsim's "pipe"): forwards every
    packet after a constant latency, with unlimited capacity. *)

type t

val create : sim:Sim.t -> delay:float -> t
(** [delay] in seconds. Raises [Invalid_argument] unless it is finite
    and non-negative. *)

val hop : t -> Packet.hop
(** The entry point, to place on routes. A packet arrives [delay]
    seconds after it reaches the hop; when its [times.departs] lies
    ahead of the clock (a wired queue handed it over at admission),
    it arrives [delay] after [departs] instead, ordered as if the hop
    had been reached at [departs]. *)

val delay : t -> float
