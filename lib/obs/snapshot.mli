(** Machine-readable perf snapshots ([BENCH_*.json], schema
    ["olia-bench/2"]) and the regression gate CI runs on them.

    A snapshot is a flat list of named entries where lower is better.
    Each entry is the median of many short timing windows, every window
    scaled to a reference host speed, plus the spread of those windows:
    their interquartile range over the median ([bench/main.ml] takes
    them). The gate derives each entry's tolerance from the spread the
    baseline recorded for it: [max floor spread]. An entry whose spread
    exceeds [2 *. floor] is recorded ungated. *)

val floor : float
(** The smallest tolerance any entry gets, [0.12]. *)

type entry = {
  name : string;
  median : float;  (** median of the scaled windows, in [units] *)
  spread : float;  (** interquartile range of the windows over [median] *)
  units : string;
  gated : bool;  (** false when [spread > 2 *. floor]: too noisy to gate *)
}

type t = entry list

val entry : name:string -> median:float -> spread:float -> units:string -> entry
(** An entry, [gated] derived from [spread]. *)

val tolerance : entry -> float
(** [max floor spread]: the fraction by which a current median may
    exceed this baseline entry's median before the gate fails. *)

val find : t -> string -> entry option
val write : path:string -> t -> unit

val read : path:string -> (t, string) result
(** Parse a snapshot file; errors cover I/O, JSON syntax, and a schema
    other than ["olia-bench/2"] (named in the message). *)

type verdict =
  | Pass
  | Regressed
      (** current median above the baseline's by more than its
          tolerance *)
  | Ungated  (** the baseline marks the entry too noisy to gate *)
  | Missing  (** a baseline entry the current snapshot lacks *)
  | Invalid
      (** a non-finite or non-positive median, or a non-finite or
          negative spread, on either side *)

val verdict_name : verdict -> string

type row = {
  name : string;
  baseline : float;
  current : float;  (** [nan] when [Missing] *)
  ratio : float;  (** current / baseline; > 1 means slower *)
  tolerance : float;  (** the baseline entry's {!tolerance} *)
  verdict : verdict;
}

val gate : baseline:t -> current:t -> row list
(** One row per baseline entry, in baseline order. Entries only
    [current] has are new work and get no row. *)

val failed : row -> bool
(** [Regressed], [Missing] and [Invalid] fail the gate; [Ungated] is
    reported, not passed. *)

val regressions : baseline:t -> current:t -> row list
(** The rows of {!gate} that {!failed}. *)
