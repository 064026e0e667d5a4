(** The htsim data-center experiment of paper §VI-B1 (Fig. 13): a FatTree
    where every host sends one long-lived flow to a random distinct host,
    using TCP or MPTCP (LIA/OLIA) with a given number of subflows spread
    over the equal-cost paths.

    This is {!Fattree_sharded} at one shard and one flow per host:
    [run] projects that run's result and ranks its goodputs. *)

type config = {
  k : int;  (** FatTree arity; k = 8 gives the paper's 128 hosts *)
  rate_mbps : float;  (** host link capacity *)
  delay_ms : float;  (** per-hop one-way latency *)
  subflows : int;  (** 1 = regular TCP *)
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** k = 8, 10 Mb/s links (a scaled-down stand-in for the paper's
    100 Mb/s; see DESIGN.md), 1 ms hops, 8 subflows, OLIA. *)

val run : config -> Repro_exp.Outcome.t
(** Metrics, in order: [aggregate_pct_optimal] (total goodput as % of
    [hosts·rate], the permutation optimum) and [mean_core_loss] (mean
    loss probability over the core queues). Arrays: [flow_mbps]
    (per-flow goodput, flow order) and [ranked_pct] (per-flow goodput
    as % of the host rate, ascending — Fig. 13(b)).

    The registry checks its inputs; called directly, it trusts them. *)
