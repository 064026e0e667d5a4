(** Responsiveness experiment: the paper's central design claim is that
    OLIA is "as responsive and non-flappy as LIA" despite being
    Pareto-optimal (§I, §II — the ε-tradeoff).

    One multipath user runs over two equal bottlenecks. Path 2 starts
    clean; at [shock_at] a burst of [n_shock] TCP flows joins it, and at
    [relief_at] they stop. We measure how quickly the multipath user
    moves traffic off the newly congested path and how quickly it
    reclaims the capacity when it frees up. *)

type config = {
  c_mbps : float;
  n_shock : int;  (** TCP flows that slam into path 2 *)
  shock_at : float;
  relief_at : float;
  duration : float;
  algo : string;
  seed : int;
}

val default : config
(** 10 Mb/s links, 8-flow shock at t = 60 s, relief at t = 120 s,
    180 s total, OLIA. *)

val run : config -> Repro_exp.Outcome.t
(** Metrics, in order:
    - [pre_shock_share]: path 2's share of the user's window before the
      shock;
    - [shock_response_s]: time after the shock until path 2's window
      share first drops below half its pre-shock level (nan = never);
    - [relief_response_s]: time after the relief until path 2's window
      share first rises back above half its pre-shock level (nan =
      never);
    - [post_relief_share]: path 2's goodput share after the relief —
      did the user reclaim it? *)
