(** Traffic workload generators: declarative flow schedules consumed by
    the scenario builders. All generators are deterministic given the
    RNG. *)

type flow_spec = {
  start : float;  (** arrival time, seconds *)
  size_pkts : int option;  (** [None] = long-lived (runs forever) *)
  src : int;  (** host index (topology-dependent) *)
  dst : int;
}

val staggered_starts :
  rng:Repro_netsim.Rng.t -> n:int -> max_jitter:float -> float array
(** [n] start times uniform in [\[0, max_jitter)] — the paper's "flows are
    initiated in random order". *)

val permutation_long_flows :
  rng:Repro_netsim.Rng.t -> hosts:int -> max_jitter:float -> flow_spec list
(** One long-lived flow per host to a distinct random destination (no
    host sends to itself): the FatTree workload of Fig. 13. *)

val poisson_short_flows :
  rng:Repro_netsim.Rng.t ->
  src:int ->
  dst:int ->
  mean_interval:float ->
  size_pkts:int ->
  duration:float ->
  flow_spec list
(** Short flows of fixed size from [src] to [dst], arriving as a Poisson
    process of the given mean inter-arrival time, truncated at
    [duration] (Fig. 14: 70 kB every 200 ms on average). The schedule
    ends only for a finite, positive [mean_interval] and a finite
    [duration]; the dynamic FatTree scenario checks both first. *)

val short_flow_pkts : int
(** 70 kB in MSS-sized packets (= 47), the paper's short-flow size. *)
