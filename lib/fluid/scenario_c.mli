(** Fixed-point analysis of Scenario C (paper §III-C, Figs. 5, 11, 12).

    [n1] multipath users connect to a private AP1 (capacity [n1·c1]) and a
    shared AP2 (capacity [n2·c2]) on which [n2] single-path TCP users
    depend. Capacities are per-user, in packets per second; [rtt] common. *)

type params = { n1 : int; n2 : int; c1 : float; c2 : float; rtt : float }

type regime =
  | Balanced  (** [p1 ≥ p2]: every user gets the same total rate *)
  | Ap1_better  (** [p1 < p2]: the cubic fixed point of §III-C applies *)

type lia_point = {
  regime : regime;
  z : float;  (** [sqrt(p1/p2)] in the [Ap1_better] regime, 1 otherwise *)
  p1 : float;
  p2 : float;
  x1 : float;  (** multipath rate over AP1 *)
  x2 : float;  (** multipath rate over AP2 *)
  y : float;  (** single-path rate *)
  norm_multipath : float;  (** (x1+x2)/c1 *)
  norm_single : float;  (** y/c2 *)
}

val threshold : params -> float
(** The aggressiveness threshold [1/(2 + n1/n2)]: LIA takes more than a
    fair share of AP2 as soon as [c1/c2] exceeds it. *)

val lia : params -> lia_point
(** The LIA fixed point. In the [Ap1_better] regime [z] is the unique
    positive root of [z³ + (n1/n2)·z² + z − c2/c1]; in the [Balanced]
    regime all users receive [(n1·c1 + n2·c2)/(n1+n2)]. *)

type allocation = {
  multipath_total : float;
  single_total : float;
  norm_multipath : float;
  norm_single : float;
}

val fair_share : params -> float
(** The proportionally-fair per-user rate when both APs pool:
    [(n1·c1 + n2·c2)/(n1 + n2)]. *)

val optimum_with_probing : params -> allocation
(** The theoretical optimum with probing cost: multipath users receive
    [max(c1 + 1/rtt, fair_share)], single-path users
    [min(c2 − (n1/n2)/rtt, fair_share)]. *)


