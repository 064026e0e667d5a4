(** Generic undirected multigraph with shortest-path routing, used to
    build arbitrary testbed topologies beyond the hand-wired scenarios
    (Click's role in the paper's testbed).

    Vertices are dense integers [0 .. vertex_count-1]; each edge carries a
    client payload (typically a [Duplex.t]) and a weight. *)

type 'a t

val create : vertices:int -> 'a t
(** An edgeless graph. Raises [Invalid_argument] if [vertices <= 0]. *)

val vertex_count : 'a t -> int
val edge_count : 'a t -> int

val add_edge : 'a t -> u:int -> v:int -> ?weight:float -> 'a -> int
(** Add an undirected edge carrying a payload; returns its edge id.
    Parallel edges and self-loops are rejected
    ([Invalid_argument]). Default weight 1. *)

val edge_payload : 'a t -> int -> 'a
val edge_endpoints : 'a t -> int -> int * int
val find_edge : 'a t -> u:int -> v:int -> int option
(** The edge joining [u] and [v], if any. *)

type hop = { edge : int; from_u_to_v : bool }
(** One step of a path: the edge taken and its direction relative to the
    stored endpoints. *)

val shortest_path : 'a t -> src:int -> dst:int -> hop list option
(** Dijkstra by edge weight; [None] if disconnected, [Some []] if
    [src = dst]. *)

val k_shortest_paths : 'a t -> src:int -> dst:int -> k:int -> hop list list
(** Up to [k] loop-free paths in non-decreasing weight order (Yen's
    algorithm). *)

val edge_disjoint_paths : 'a t -> src:int -> dst:int -> hop list list
(** A maximal set of pairwise edge-disjoint shortest-ish paths, greedily:
    repeatedly take a shortest path and remove its edges. The natural
    notion of "independent MPTCP subflow paths". *)

val path_weight : 'a t -> hop list -> float
