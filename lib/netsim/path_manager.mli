(** Path management: periodically discard chronically bad subflows and
    re-probe them later — the refinement the paper's conclusion suggests
    ("discarding bad paths from the set of available paths") to push the
    probing overhead below 1 MSS/RTT. *)

type policy = {
  check_period : float;  (** seconds between quality checks *)
  discard_factor : float;
      (** discard a path whose loss-event rate exceeds this multiple of
          the best path's *)
  min_loss : float;  (** never discard below this absolute loss rate *)
  min_active : int;  (** number of subflows always kept active *)
  reprobe_period : float;  (** re-enable a discarded path after this long *)
}

val default_policy : policy
(** 5 s checks, factor 8, absolute floor 0.02, one path always active,
    30 s re-probe. *)

type t

val attach : sim:Sim.t -> policy:policy -> Tcp.conn -> t
(** Start managing a connection's subflows. Raises [Invalid_argument]
    unless [policy.check_period] is finite and positive. *)

val discards : t -> int
(** Times a path was discarded so far. *)

val reprobes : t -> int
(** Times a discarded path was re-enabled for probing. *)
