(** The uniform interface every registered experiment implements: a
    parameter {!Spec.t} (name, doc, typed defaults) and a [run] taking
    resolved bindings to an {!Outcome.t}. Each scenario module's typed
    [run : config -> Outcome.t] is the implementation; the registry
    adapters in [lib/scenarios] copy the bindings into its config. *)

module type S = sig
  val spec : Spec.t

  val run : Spec.bindings -> Outcome.t
  (** Must be pure up to its bindings (fresh simulator and RNG per call,
      seeded from the ["seed"] parameter) so the sweep engine may invoke
      it from any domain. *)
end
