(** Append-only time series of [(time, value)] samples, used for window and
    alpha traces (Figs. 7–8) and throughput-over-time probes. *)

type t

val create : unit -> t
(** Empty series. *)

val add : t -> time:float -> float -> unit
(** Append a sample. Times must be non-decreasing; out-of-order samples
    raise [Invalid_argument]. *)

val length : t -> int
(** Number of samples. *)

val of_arrays : times:float array -> float array -> t
(** The series of the samples [(times.(i), values.(i))], e.g. a window
    trace read back from an outcome's arrays. Raises [Invalid_argument]
    on arrays of different lengths or decreasing times. *)

val to_array : t -> (float * float) array
(** All samples, oldest first. *)

val last : t -> (float * float) option
(** Most recent sample, if any. *)

val mean_over : t -> from:float -> until:float -> float
(** Time-weighted mean of the (piecewise-constant) signal on
    [\[from, until)]; [nan] if the series has no sample at or before
    [from]. Used for steady-state averaging after a warm-up period. *)

val resample : t -> dt:float -> from:float -> until:float -> float array
(** Sample-and-hold resampling on a regular grid, for plotting traces. *)

val fold : t -> init:'a -> f:('a -> float -> float -> 'a) -> 'a
(** [fold t ~init ~f] folds [f acc time value] over samples in order. *)
