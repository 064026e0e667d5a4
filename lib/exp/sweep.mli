(** Multicore parameter-sweep engine.

    A sweep is the cross-product of parameter {!axis} values (e.g.
    [n2 = 10..100 step 10] × [algo ∈ {lia; olia}] × [seed ∈ 1..5]),
    scheduled across OCaml 5 domains. Scheduling never affects results:
    every point carries its own bindings (including its seed), each
    scenario run builds a fresh simulator, and results are stored by
    point index — a parallel sweep is byte-identical to running the same
    points sequentially. *)

type axis = { key : string; values : Spec.value list }

val axis : Spec.t -> key:string -> string -> axis
(** Parse an axis value specification, typed by the spec's default for
    [key]:
    - ["lo:hi:step"] — an inclusive range (int or float);
    - ["lo:hi"] — the same with step 1;
    - ["a,b,c"] — an explicit list.
    Raises [Invalid_argument] on unknown keys, malformed or empty
    specifications. *)

val axis_of_assign : Spec.t -> string -> axis
(** [axis_of_assign spec "n2=10:100:10"] — the CLI [-x] form. *)

val seed_axis : int -> axis
(** [seed_axis n] is [seed ∈ 1..n] — deterministic per-point seeds for
    replicated measurements. *)

val points : Spec.t -> ?fixed:Spec.bindings -> axis list -> Spec.bindings list
(** The cross-product in row-major order (the last axis varies fastest),
    each point extended with the [fixed] overrides. Each axis value and
    fixed binding is checked on its own for its key, type and domain
    ({!Spec.validate}); the cross-parameter rules are checked when a
    point runs. *)

type point = { bindings : Spec.bindings; outcome : Outcome.t }

val run_seq : (module Scenario_intf.S) -> Spec.bindings list -> point list
(** Run every point in order in the calling domain. *)

val pool : (unit -> unit) array -> unit
(** The domain-pool plumbing under {!run}, exposed for other parallel
    runners (the sharded simulation loop takes it as its pool): run one
    thunk per worker, thunk 0 on the calling domain and the rest on
    spawned domains, join them all, and re-raise the first worker
    exception once every domain has been joined. The join publishes all
    worker writes to the caller. *)

val run :
  ?domains:int -> (module Scenario_intf.S) -> Spec.bindings list -> point list
(** Run the points on a pool of [domains] workers (default
    [Domain.recommended_domain_count ()], capped by the number of
    points). Results are returned in point order and are identical to
    [run_seq] on the same list. Exceptions raised by a worker are
    re-raised. *)

(** {1 Aggregation} *)

type agg = {
  group : Spec.bindings;  (** the point's bindings minus the seed *)
  n : int;  (** replications aggregated *)
  stats : (string * (float * float)) list;
      (** metric name → (mean, sample stddev; 0 when n = 1) *)
}

type agg_table = { over : string; rows : agg list }
(** [over] is the key aggregated away, always ["seed"]. *)

val aggregate : point list -> agg_table
(** Group points whose bindings differ only in their seed and compute
    per-metric mean and standard deviation. Groups appear in
    first-encounter order. *)

(** {1 Emitters} *)

val to_json :
  spec:Spec.t -> ?aggregated:agg_table -> point list -> Repro_stats.Json.t
(** The machine-readable sweep record: scenario name, per-point
    parameters and outcomes, and (when given) the aggregated table. *)

val write_json :
  path:string -> spec:Spec.t -> ?aggregated:agg_table -> point list -> unit

val write_csv : path:string -> spec:Spec.t -> point list -> unit
(** One row per point: every spec parameter (resolved), then every
    metric of that point's outcome. *)

val write_agg_csv : path:string -> spec:Spec.t -> agg_table -> unit
(** One row per aggregated group: the group's resolved parameters
    (the [over] key omitted), [n], then mean and stddev per metric. *)
