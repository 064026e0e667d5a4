(** The uniform interface every registered experiment implements: a
    parameter {!Spec.t} (name, doc, typed defaults and domains) and a
    [run] taking bindings to an {!Outcome.t}. Each scenario module's
    typed [run : config -> Outcome.t] is the implementation; the
    registry in [lib/scenarios] decodes the bindings into its config
    with {!Spec.decode}. *)

module type S = sig
  val spec : Spec.t

  val run : Spec.bindings -> Outcome.t
  (** Must be pure up to its bindings (fresh simulator and RNG per call,
      seeded from the ["seed"] parameter) so the sweep engine may invoke
      it from any domain. Raises [Invalid_argument] before building
      anything on bindings outside the spec's domains or rules. *)
end
