(** k-ary FatTree topology (paper §VI-B; the htsim data-center setting:
    k = 8 gives 128 hosts and 80 switches), optionally cut into shards
    for conservative parallel simulation ({!Repro_netsim.Shard}).

    The tree has [k] pods, each with [k/2] edge and [k/2] aggregation
    switches, and [(k/2)²] core switches. Every adjacent pair is joined by
    a bidirectional link. Between two hosts in different pods there are
    [(k/2)²] equal-length paths (one per aggregation/core choice), which
    MPTCP subflows are spread across ECMP-style.

    Pods map to shards in contiguous blocks, and every link of a pod,
    its aggregation↔core links included, lives on its shard's
    simulator. The only inter-shard edges are the core traversals: a
    route between pods on different shards keeps the source pod's real
    aggregation→core queue (so contention there is exact) and replaces
    that link's propagation pipe with a cross-shard channel of the same
    latency. End-to-end path delay is unchanged, and the per-hop
    latency is exactly the group's lookahead. With one shard no channel
    exists and the tree is an ordinary single-loop topology; the link
    creation order, and so the RNG stream, is the same at every shard
    count. *)

type t

val create :
  sim:Repro_netsim.Sim.t ->
  ?shards:int ->
  rng:Repro_netsim.Rng.t ->
  k:int ->
  rate_bps:float ->
  delay:float ->
  buffer_pkts:int ->
  discipline:Repro_netsim.Queue.discipline ->
  ?oversubscription:float ->
  unit ->
  t
(** [k] must be even and ≥ 2. [delay] is the one-way latency of each hop.
    [oversubscription] divides the capacity of edge→aggregation and
    aggregation→core links (default 1., i.e. a full-bisection tree; Fig. 14
    uses 4). [shards] (default 1) must satisfy [1 ≤ shards ≤ k] and
    [k mod shards = 0]; shard 0 runs on [sim] and every other shard on a
    fresh simulator. [delay] doubles as the shard lookahead, so it must
    be positive when [shards > 1]. *)

val k : t -> int
val host_count : t -> int
val switch_count : t -> int

val group : t -> Repro_netsim.Shard.t
(** The shard group, to run with {!Repro_netsim.Shard.run_windows}. *)

val shard_of_pod : t -> int -> int
val pod_of_host : t -> int -> int

val sim_of_host : t -> int -> Repro_netsim.Sim.t
(** The simulator owning a host's links: the [sim] for senders and the
    [rcv_sim] for receivers rooted at that host. *)

val channel :
  t -> src:int -> dst:int -> Repro_netsim.Shard.channel option
(** The channel carrying shard [src] → shard [dst] traffic ([None] when
    [src = dst] or either is out of range), for cut statistics. *)

val path_count : t -> src:int -> dst:int -> int
(** Number of distinct shortest paths between two hosts. *)

val all_paths : t -> src:int -> dst:int -> Repro_netsim.Tcp.path array
(** Every shortest path, as ready-to-use forward/reverse hop arrays, cut
    at shard boundaries as described above. Raises [Invalid_argument] if
    [src = dst] or out of range. *)

val sample_paths :
  t -> rng:Repro_netsim.Rng.t -> src:int -> dst:int -> n:int ->
  Repro_netsim.Tcp.path array
(** [n] paths chosen uniformly without replacement (all of them if fewer
    than [n] exist) — the paper's "MPTCP with n subflows". *)

val pod_queues : t -> int -> Repro_netsim.Queue.t list
(** Queues of one pod's host, edge and aggregation↔core links, all on
    that pod's simulator, so a callback there can reset their warm-up
    statistics without touching another shard's state. *)

val core_queues : t -> Repro_netsim.Queue.t list
(** Queues of every aggregation→core and core→aggregation hop, for the
    network-core utilization figure of Table III. *)

val all_queues : t -> Repro_netsim.Queue.t list
