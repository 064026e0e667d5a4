(** The per-file rule catalogue R1-R7 (the whole-program rules R9 and
    R11 live in {!Summary}/{!Callgraph}/{!Dataflow}).

    Rules are purely syntactic (no typing pass), so each one errs on
    the side of precision over recall; docs/LINT.md records the
    approximations. Path scoping — which rules run where — is decided
    here from the repo-relative path of the file. *)

(** {1 Shared syntactic helpers}

    Also used by the whole-program pass, so the two passes agree on
    name canonicalization and path anchoring. *)

val lid_name : Longident.t -> string
(** Dotted rendering, ["Repro_obs.Trace.emit"]. *)

val lid_root : Longident.t -> string
(** First segment, ["Repro_obs"]. *)

val canonical : string -> string
(** Strip an explicit [Stdlib.] prefix. *)

val normalize : string -> string list
(** Repo-relative path segments, anchored at lib/bin/bench/test. *)

val under : string list -> string -> bool
(** Is the (normalized) path below the given segment prefix? *)

val basename : string -> string

val module_name_of : string -> string
(** Module name a path compiles to: [lib/netsim/sim.ml] -> ["Sim"]. *)

val is_floatish : Parsetree.expression -> bool
(** Syntactic evidence that an expression is a float (literals, float
    arithmetic, well-known float-returning stdlib names). *)

val scope_r1 : string -> bool
(** Everywhere except [lib/netsim/rng.ml], the one blessed RNG. *)

val scope_r2 : string -> bool
(** [lib/] only: libraries run inside [Exp.Sweep] domains. *)

val scope_r3 : string -> bool
(** [lib/fluid/] and [lib/cc/], the numerics. *)

val scope_r4 : string -> bool
(** [lib/] only. *)

val scope_r6 : string -> bool
(** Everywhere: discarding an [Error] is equally wrong in binaries,
    benches and tests. *)

val scope_r7 : string -> bool
(** [lib/scenarios/] only: tests, benches and the golden-trace
    fixtures legitimately pin literal seeds. *)

val check_structure : path:string -> Parsetree.structure -> Finding.t list
(** Run R1-R4 and R6-R7 (as scoped for [path]) over one parsed
    implementation. *)

val check_registry :
  sources:(string * Parsetree.structure) list -> Finding.t list
(** R5: given every parsed [.ml] of the run, report scenario modules
    under [lib/scenarios/] (files defining a top-level [run], other
    than [registry.ml]/[common.ml]) that [lib/scenarios/registry.ml]
    never references. *)
