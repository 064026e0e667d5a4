(** Name-based access to every scenario behind the uniform experiment
    API, mirroring {!Repro_cc.Registry} for congestion controllers.

    Each entry wraps a scenario module in
    {!Repro_exp.Scenario_intf.S}. One {!Repro_exp.Spec.term} declares
    every parameter once — key, domain, default from the module's
    [default] record, doc — and yields both the entry's
    {!Repro_exp.Spec.t} and the decoder of bindings into that record.
    [run] checks every binding's type and domain and the scenario's
    cross-parameter rules (warmup < duration; shock_at < relief_at <
    duration - 0.1; shards divides k), raising [Invalid_argument] with
    the scenario, key and value before anything is built, then returns
    the module's own {!Repro_exp.Outcome.t} (its [.mli] lists the metric
    names). The CLI, the sweep engine, the conformance and golden checks
    and the bench harness drive every experiment by name through it. *)

module type SCENARIO = Repro_exp.Scenario_intf.S

val names : string list
(** All registered scenarios, in [olia_sim list] order:
    ["scenario-a"; "scenario-b"; "scenario-c"; "two-bottleneck";
    "responsiveness"; "wireless"; "fattree"; "fattree-dynamic";
    "fattree-sharded"]. *)

val find : string -> (module SCENARIO)
(** Raises [Invalid_argument] (listing {!names}) on unknown names. *)
