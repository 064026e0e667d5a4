(** Testbed Scenario A (paper Fig. 2): N1 MPTCP streaming clients with a
    private path and an optional subflow through a shared AP used by N2
    regular-TCP clients.

    Router R1 emulates the server-side bottleneck of capacity [n1·c1];
    router R2 the shared AP of capacity [n2·c2]. A type-1 user's private
    path crosses R1; its shared path crosses R1 then R2. Type-2 users
    cross R2 only. *)

type config = {
  n1 : int;
  n2 : int;
  c1_mbps : float;  (** per-user capacity at the server bottleneck *)
  c2_mbps : float;  (** per-user capacity at the shared AP *)
  algo : string;  (** congestion control of type-1 users *)
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** N1 = N2 = 10, C1 = C2 = 1 Mb/s, OLIA, 120 s runs with 30 s warmup —
    the paper's operating point. *)

val run : config -> Repro_exp.Outcome.t
(** One measurement (one seed; the sweep's seed axis replicates it, as
    the paper's 5 repetitions do). Metrics, in order:
    - [norm_type1], [norm_type2]: mean type-1 goodput normalized by
      [c1], mean type-2 goodput normalized by [c2];
    - [p1], [p2]: measured loss probability at the server bottleneck
      and at the shared AP;
    - the run's {!Repro_obs.Meter.metrics}, with per-subflow goodputs
      [obs_subflow_goodput_bps_type1_sf0], [..._type1_sf1] and
      [..._type2_sf0].

    The registry checks its inputs; called directly, it trusts them. *)
