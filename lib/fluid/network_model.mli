(** Static fluid network model (paper §V-A): a set of links with
    load-dependent loss probabilities and a set of users, each owning a set
    of routes (link subsets) with fixed RTTs. *)

type link = {
  capacity : float;  (** packets per second *)
  sharpness : float;  (** exponent of the loss curve *)
  scale : float;  (** loss probability when the load equals the capacity *)
}
(** Loss model [p_l(y) = scale · (y/capacity)^sharpness]: smooth,
    increasing, and "sharp around C" for large [sharpness] (paper
    Remark 1). *)

type route = {
  links : int array;  (** indices into the network's link table *)
  rtt : float;  (** seconds *)
}

type user = { routes : route array }

type t = { links : link array; users : user array }

val link : ?sharpness:float -> ?scale:float -> float -> link
(** [link capacity] with defaults [sharpness = 12.] and [scale = 0.05]. *)

val route_count : t -> int
(** Total number of routes across all users. *)

val validate : t -> unit
(** Raises [Invalid_argument] if any route references an unknown link, any
    user has no route, or any parameter is non-positive. *)

val link_loads : t -> float array array -> float array
(** [link_loads t x] sums per-route rates [x.(u).(r)] over the routes
    crossing each link. *)

val link_loss : link -> float -> float
(** [p_l(y)], clamped to [\[0, 1\]]. *)

val route_losses : t -> float array -> float array array
(** Per-user, per-route end-to-end loss probabilities from per-link losses
    (sum approximation for small losses, as in §V-A). *)

val congestion_cost : t -> float array array -> float
(** The paper's congestion cost [C(x) = Σ_l ∫₀^load p_l(y) dy], computed
    in closed form for the power-law loss curves. *)

val utility_v : t -> float array array -> float
(** The equal-RTT utility [V] of §V-C, using each user's first-route RTT as
    its common [rtt_u]. *)
