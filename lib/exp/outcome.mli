(** The one result shape of every scenario: named scalar metrics plus
    optional per-flow (or per-sample) arrays. Each scenario's
    [run : config -> Outcome.t] builds it, and its [.mli] lists the
    names in order; the registry, the sweep engine, the emitters, the
    CLI, the conformance bands and the bench figures all read it by
    name. *)

type t = {
  metrics : (string * float) list;  (** scalar results, in display order *)
  arrays : (string * float array) list;
      (** optional vector results (per-flow goodputs, ranked shares, …) *)
}

val of_metrics : ?arrays:(string * float array) list -> (string * float) list -> t

val add_metrics : t -> (string * float) list -> t
(** Append metrics (e.g. the observability counters) after the
    scenario's own, preserving display order. *)

val metric : t -> string -> float
(** Raises [Invalid_argument] (listing the available metrics) when
    absent. *)

val metric_opt : t -> string -> float option

val array : t -> string -> float array
(** Raises [Invalid_argument] (listing the available arrays) when
    absent. *)

val metric_names : t -> string list

val to_json : t -> Repro_stats.Json.t
(** [{"metrics": {...}, "arrays": {...}}]; the [arrays] field is omitted
    when empty. *)

val of_json : Repro_stats.Json.t -> (t, string) result
(** Inverse of {!to_json}, field order kept. JSON has no non-finite
    numbers: {!to_json} prints every NaN or infinity as [null], and
    [of_json] reads [null] back as [nan]. *)

(** {1 Bitwise comparison} *)

type field_diff = {
  field : string;  (** metric or array name *)
  values : int;  (** 1 for a metric, the length for an array *)
  differing : int;  (** values whose bits differ *)
  max_abs_diff : float;
      (** the largest [|a - b|] over the differing values: [0.] when
          none differ (or only the sign of a zero does), [nan] when a
          differing pair holds a NaN, [infinity] when the field is
          missing on one side or the array lengths differ *)
}

val shard_dependent : string list
(** The two metrics of a sharded run that depend on the shard count by
    design: [cut_messages] (packets that crossed a shard boundary) and
    [obs_max_heap_depth] (a high-water mark over per-shard heaps).
    Every other field of a shard-count-invariant scenario must match
    bit for bit. *)

val bitwise_diff : exempt:string list -> t -> t -> field_diff list
(** One entry per metric, then per array, of either outcome (first
    appearance order), except the [exempt] names. Values match when
    their IEEE bits are equal, so [0.] and [-0.] differ and a NaN
    matches only itself. A field missing on one side, or an array
    whose length differs, counts every value as differing. *)
