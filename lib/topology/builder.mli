(** Declarative topology construction: name the nodes, join them with
    duplex links, and extract ready-to-use MPTCP paths routed over the
    shortest / k-shortest / edge-disjoint routes of the resulting graph.

    This generalizes the hand-wired scenario topologies: any testbed the
    paper's Click router could emulate can be described here. *)

type t

val create :
  sim:Repro_netsim.Sim.t -> rng:Repro_netsim.Rng.t -> unit -> t

val add_node : t -> string -> unit
(** Declare a node. Raises [Invalid_argument] on duplicates. *)

val link : t -> string -> string -> rate_mbps:float -> delay_ms:float -> unit
(** Join two declared nodes with a duplex link: the paper's RED profile
    on a buffer of the scenario convention (300 packets at 10 Mb/s,
    scaled), routing weight 1. *)

val queue : t -> string -> string -> Repro_netsim.Queue.t
(** The queue serving the [a]→[b] direction of the link joining the two
    nodes. Raises [Not_found] if no such link exists. *)

val path : t -> src:string -> dst:string -> Repro_netsim.Tcp.path
(** Forward and reverse hop arrays along the shortest route. Raises
    [Not_found] if disconnected, [Invalid_argument] if [src = dst]. *)

val paths :
  t ->
  src:string ->
  dst:string ->
  ?disjoint:bool ->
  k:int ->
  unit ->
  Repro_netsim.Tcp.path array
(** Up to [k] routes: Yen's k-shortest by default, or a maximal
    edge-disjoint set when [disjoint] is set (at most [k] of them) —
    natural MPTCP subflow placements. *)
