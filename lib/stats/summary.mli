(** Running univariate summaries: mean, variance, extrema and confidence
    intervals, computed online with Welford's algorithm. *)

type t
(** Mutable accumulator of observations. *)

val create : unit -> t
(** A fresh accumulator with no observations. *)

val add : t -> float -> unit
(** [add t x] records one observation. *)

val add_seq : t -> float Seq.t -> unit
(** Record every observation of a sequence. *)

val count : t -> int
(** Number of recorded observations. *)

val mean : t -> float
(** Arithmetic mean. Returns [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance (n-1 denominator). [nan] if fewer than two
    observations. *)

val stdev : t -> float
(** Sample standard deviation. *)

val min : t -> float
(** Smallest observation; [nan] when empty. *)

val max : t -> float
(** Largest observation; [nan] when empty. *)

val sum : t -> float
(** Sum of all observations. *)

val ci95_halfwidth : t -> float
(** Half-width of the 95% confidence interval on the mean, using the
    Student t quantile for the actual sample size (as in the paper's
    5-repetition measurements). 0 when fewer than two observations. *)

val merge : t -> t -> t
(** [merge a b] is a fresh summary equivalent to observing everything seen
    by [a] and everything seen by [b]. *)

val of_list : float list -> t
(** Summary of a list of observations. *)

val of_array : float array -> t
(** Summary of an array of observations. *)

val jain_index : float list -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)]: 1 when all shares are equal,
    [1/n] when one user takes everything. [nan] on an empty list. *)
