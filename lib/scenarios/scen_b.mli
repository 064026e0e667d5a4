(** Testbed Scenario B (paper Fig. 3, Tables I–II): the four-ISP
    multihoming story. [n] Blue users are multihomed (one subflow through
    bottleneck ISP X, one through bottleneck ISP T); [n] Red users connect
    through T and may upgrade to MPTCP by adding a subflow through X
    (which then also crosses T, per the paper's capacity constraints). *)

type config = {
  n : int;
  cx_mbps : float;  (** total capacity of ISP X *)
  ct_mbps : float;  (** total capacity of ISP T *)
  red_multipath : bool;  (** have Red users upgraded to MPTCP? *)
  algo : string;  (** coupled algorithm of the multipath users *)
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** The Table I/II setting: 15+15 users, CX = 27, CT = 36 Mb/s. *)

val run : config -> Repro_exp.Outcome.t
(** One measurement (one seed). Metrics, in order:
    - [blue_rate], [red_rate]: mean per-user Blue and Red goodput,
      Mb/s;
    - [aggregate]: total goodput, Mb/s;
    - [px], [pt]: measured loss probability at X and at T;
    - the run's {!Repro_obs.Meter.metrics}, with per-subflow goodputs
      [obs_subflow_goodput_bps_blue_sf0], [..._blue_sf1],
      [..._red_sf0] and [..._red_sf1].

    The registry checks its inputs; called directly, it trusts them. *)
