(** The illustrative two-bottleneck example of paper §IV-C (Figs. 6–8):
    one two-path MPTCP user whose paths cross two separate links of equal
    capacity, shared with [n_tcp1] and [n_tcp2] regular TCP flows.

    With [n_tcp1 = n_tcp2] both paths are equally good and the multipath
    user should use both without flapping (Fig. 7); with 5 vs 10 TCP flows
    it should concentrate on the first path and keep a minimal window on
    the congested one (Fig. 8). *)

type config = {
  n_tcp1 : int;  (** TCP flows sharing bottleneck 1 *)
  n_tcp2 : int;  (** TCP flows sharing bottleneck 2 *)
  c_mbps : float;  (** capacity of each bottleneck *)
  delay1_ms : float;  (** one-way propagation of path 1 (default 40 ms) *)
  delay2_ms : float;  (** one-way propagation of path 2 *)
  algo : string;
  duration : float;
  sample_period : float;  (** window/α sampling interval *)
  seed : int;
}

val symmetric : config
(** Fig. 7: 5 TCP flows on each bottleneck, OLIA, 10 Mb/s, 120 s. *)

val asymmetric : config
(** Fig. 8: 5 vs 10 TCP flows. *)

val run : config -> Repro_exp.Outcome.t
(** Metrics, in order:
    - [goodput1_mbps], [goodput2_mbps]: multipath goodput via path 1 and
      via path 2, after a warm-up of [duration / 6];
    - [flip_count]: times the paths swapped window-size order with a
      margin of 2 packets — the flappiness indicator.

    Arrays, one entry per [sample_period] sample: [t] (the sample
    times), [w1] and [w2] (the multipath windows, packets), [alpha1]
    and [alpha2] (OLIA's α on each path; zero for other algorithms). *)
