(** Event-loop profiler: dispatch counts and wall time per event source.

    Same guard discipline as {!Trace}: {!enabled} is one ref read, and
    [Sim.schedule_at] only wraps a callback in {!dispatch} when the
    profiler was armed at scheduling time, so the profiling-off path
    costs one ref read per schedule and nothing per dispatch.

    Sources are the [~src] labels scheduling sites pass (e.g.
    ["queue.serve"], ["tcp.rto"]); [Sim] requires one on every call.
    Accumulators are per-domain (domain-local storage, no
    lock on the dispatch path), so sharded runs profile cleanly: each
    worker calls {!bind} with its shard id, {!report} rolls every
    domain up, and {!report_by_shard} keeps the per-shard breakdown
    (barrier wait shows up under ["shard.barrier"]). Wall times are
    non-deterministic by nature, so profile output never feeds the
    deterministic report JSON — the CLI renders it separately
    ([olia_sim run --profile]), and [OLIA_PROFILE=1] arms the profiler
    at startup and dumps the table to stderr at exit. *)

val enabled : unit -> bool
(** One ref read; the scheduler checks it at scheduling time. *)

val set_enabled : bool -> unit
(** Arm or disarm the profiler (accumulated totals are kept). *)

val reset : unit -> unit
(** Drop all accumulated totals, every domain's. *)

val bind : shard:int -> unit
(** Tag the calling domain's accumulator with [shard] so
    {!report_by_shard} can name it. Domains that never bind pool under
    shard [-1]. Idempotent; call at worker start. *)

val dispatch : src:string -> (unit -> unit) -> unit
(** Run the callback, attributing one dispatch and its wall time to
    [src] in the calling domain's table. Nested dispatches each
    account their own full span. *)

type entry = { src : string; count : int; wall_s : float }

val report : unit -> entry list
(** Accumulated totals rolled up across all domains, hottest first
    (ties alphabetical). *)

val report_by_shard : unit -> (int * entry list) list
(** Per-shard totals, shards ascending (unbound domains first as
    [-1]); each shard's entries hottest first. *)

val to_table : entry list -> Repro_stats.Table.t
(** Text rendering with per-source dispatches, wall ms and wall %. *)

val to_shard_table : (int * entry list) list -> Repro_stats.Table.t
(** Text rendering of {!report_by_shard}: shard, source, dispatches,
    wall ms. *)
