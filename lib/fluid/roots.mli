(** Scalar root finding used by the fixed-point analyses. *)

val bisect : f:(float -> float) -> float -> float -> float
(** [bisect ~f lo hi] finds a root of [f] in [\[lo, hi\]], assuming
    [f lo] and [f hi] have opposite signs (raises [Invalid_argument]
    otherwise). It stops once the interval is narrower than [1e-12] or
    after 200 halvings. *)

val find_increasing_root : f:(float -> float) -> unit -> float
(** Root of a strictly increasing function on [(0, ∞)] with
    [f 0+ < 0 < f ∞]: brackets automatically by doubling, then bisects.
    Raises [Failure] if no sign change is found within a huge range. *)

val newton : f:(float -> float) -> df:(float -> float) -> float -> float
(** [newton ~f ~df x0]: Newton-Raphson iteration from [x0] until
    [|f x| < 1e-12]; raises [Failure] after 100 steps without
    convergence. *)

val poly_eval : float array -> float -> float
(** [poly_eval coeffs x] evaluates [coeffs.(0) + coeffs.(1)·x + …] by
    Horner's rule. *)

val poly_derivative : float array -> float array
(** Coefficients of the derivative polynomial. *)

val positive_poly_root : float array -> float
(** The unique positive root of a polynomial that is negative at 0 and
    eventually positive (the shape of all the paper's fixed-point
    polynomials). Raises [Failure] if the shape assumption fails. *)
