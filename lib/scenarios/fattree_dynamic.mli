(** The dynamic short-flow experiment of paper §VI-B2 (Fig. 14,
    Table III): a 4:1 oversubscribed FatTree where one third of the hosts
    run a continuous flow (TCP or MPTCP with 8 subflows) and the remaining
    hosts send 70 kB TCP flows every 200 ms on average. *)

type config = {
  k : int;
  rate_mbps : float;
  delay_ms : float;
  oversubscription : float;
  algo : string;  (** long-flow transport; "reno" means plain TCP *)
  subflows : int;
  mean_interval : float;  (** short-flow inter-arrival mean, seconds *)
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** k = 8, 4:1 oversubscribed, 100 Mb/s hosts (the paper's rate — traffic
    here is bounded by the oversubscribed core, so this is affordable),
    OLIA long flows with 8 subflows, 200 ms short-flow arrivals. *)

val run : config -> Repro_exp.Outcome.t
(** Metrics, in order:
    - [mean_completion_ms], [stdev_completion_ms]: over the short flows
      started after the warm-up that finished;
    - [core_utilization_pct]: mean utilization of the aggregation↔core
      links after the warm-up;
    - [long_flow_mbps]: mean long-flow goodput;
    - [unfinished_shorts]: short flows still running at the end.

    Array: [completion_times_ms], the completion time of every short
    flow started after the warm-up that finished.

    The registry checks its inputs; called directly, it trusts them. *)
