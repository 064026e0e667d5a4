(** Binned histograms: equal-width bins for the paper's completion-time
    PDFs (Fig. 14), log-spaced bins for latency distributions (queue
    delays and RTTs span decades, so equal widths would crush the short
    end into one bucket). *)

type t
(** Mutable histogram over [\[lo, hi)]. Observations outside the range
    are counted in saturating edge bins. *)

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] makes a histogram of [bins] equal-width bins
    covering [\[lo, hi)]. Raises [Invalid_argument] if [bins <= 0] or
    [hi <= lo]. *)

val create_log : lo:float -> hi:float -> bins:int -> t
(** [create_log ~lo ~hi ~bins] makes a histogram of [bins] log-spaced
    bins covering [\[lo, hi)]: bin edges form a geometric progression,
    so every decade gets equal resolution. Raises [Invalid_argument] if
    [bins <= 0], [lo <= 0] or [hi <= lo]. *)

val add : t -> float -> unit
(** Record one observation. Values below [lo] land in the first bin,
    values at or above [hi] in the last (for a log histogram this
    includes any value [<= 0]). *)

val count : t -> int
(** Total number of recorded observations. *)

val bin_width : t -> float
(** Width of each bin under linear spacing; for a log histogram this is
    the mean width, prefer {!bin_edge}. *)

val bin_edge : t -> int -> float
(** Lower edge of bin [i]; [bin_edge t n] is [hi] for [n] bins. *)

val bin_count : t -> int -> int
(** Raw count in bin [i]. *)

val pdf : t -> (float * float) array
(** [(center, density)] rows: counts normalized by total and per-bin
    width, so the histogram integrates to 1. Empty histogram yields
    all-zero densities. *)

val cdf : t -> (float * float) array
(** [(upper-edge, cumulative fraction)] rows. *)

val cdf_at : t -> float -> float
(** [cdf_at t x] is the fraction of observations at or below [x],
    linearly interpolated inside the containing bin. [nan] when
    empty. *)

val quantile : t -> float -> float
(** [quantile t q] approximates the [q]-quantile (0..1) by linear
    interpolation within the containing bin. [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] = [quantile t (p /. 100.)]: [percentile t 99.] is
    the p99. [nan] when empty. *)

val percentiles : t -> float array -> float array
(** Map {!percentile} over an array of percentile ranks. *)
