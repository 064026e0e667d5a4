(** Fixed-point analysis of Scenario A (paper §III-A, Appendix A, Figs. 1,
    9, 10).

    [n1] type-1 users stream from a server of capacity [n1·c1] through a
    private AP and may open a second MPTCP subflow through a shared AP of
    capacity [n2·c2], which [n2] type-2 regular-TCP users depend on.
    All capacities are per-user, in packets per second; [rtt] in seconds
    and is common to all paths. *)

type params = { n1 : int; n2 : int; c1 : float; c2 : float; rtt : float }

type lia_point = {
  z : float;  (** [sqrt(p1/p2)], root of Eq. (10) *)
  p1 : float;  (** loss probability at the streaming-server link *)
  p2 : float;  (** loss probability at the shared AP *)
  x1 : float;  (** type-1 rate over the private path *)
  x2 : float;  (** type-1 rate over the shared AP *)
  y : float;  (** type-2 rate *)
  norm_type1 : float;  (** (x1+x2)/c1, always 1 in this scenario *)
  norm_type2 : float;  (** y/c2 *)
}

val lia : params -> lia_point
(** The unique fixed point of MPTCP-LIA: [z] solves
    [z + z²/(1+2z²)·N1/N2 = C2/C1] (Eq. 10); [p1 = 2/(rtt·c1)²];
    rates follow the loss-throughput formulas of §III-A. *)

type allocation = {
  type1_total : float;  (** per-user type-1 rate *)
  type2_total : float;  (** per-user type-2 rate *)
  norm1 : float;
  norm2 : float;
}

val optimum_with_probing : params -> allocation
(** The theoretical optimum with probing cost: type-1 users send exactly
    one MSS per RTT over the shared AP ([x2 = 1/rtt]), so
    [y = c2 − (n1/n2)/rtt] (Appendix A.2). *)


