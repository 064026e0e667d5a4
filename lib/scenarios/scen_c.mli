(** Testbed Scenario C (paper Fig. 5): N1 multipath users connected to a
    private AP1 (capacity [n1·c1]) and to a shared AP2 (capacity
    [n2·c2]) that N2 single-path TCP users depend on. *)

type config = {
  n1 : int;
  n2 : int;
  c1_mbps : float;
  c2_mbps : float;
  algo : string;  (** congestion control of the multipath users *)
  duration : float;
  warmup : float;
  seed : int;
  background_mbps : float;
      (** CBR background traffic through AP2 (0 = none) — the paper's §VII
          "background traffic" factor *)
  with_path_manager : bool;
      (** attach a [Path_manager] to every multipath user — the §VII
          "discarding bad paths" refinement *)
}

val default : config
(** N1 = N2 = 10, C1 = C2 = 1 Mb/s, OLIA, 120 s / 30 s warmup. *)

val run : config -> Repro_exp.Outcome.t
(** One measurement (one seed). Metrics, in order:
    - [norm_multipath], [norm_single]: mean multipath goodput
      normalized by [c1], mean single-path goodput normalized by [c2];
    - [p1], [p2]: measured loss probability at AP1 and at AP2;
    - the run's {!Repro_obs.Meter.metrics}, with per-subflow goodputs
      [obs_subflow_goodput_bps_multipath_sf0], [..._multipath_sf1] and
      [..._single_sf0].

    The registry checks its inputs; called directly, it trusts them. *)
