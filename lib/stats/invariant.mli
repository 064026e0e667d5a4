(** Debug-gated runtime invariants, one switch for every library: the
    runtime complement of the static pass ([olia_lint], R1/R2), for
    what only execution shows — a queue that loses packets, a window
    below one MSS, a fluid solver's answer that fails its equations.

    Checks are off by default so benchmarks pay a single branch per
    site. Set [OLIA_DEBUG_INVARIANTS=1] (or [true]/[yes]/[on]) before
    starting the process to arm them; a violated invariant raises
    {!Violation} with a description of the broken state. *)

exception Violation of string

val enabled : unit -> bool
(** Are the checks armed? Call sites guard with this before building
    the (possibly costly) diagnostic message. *)

val set_enabled : bool -> unit
(** Test hook: arm or disarm the checks at runtime. Call it only from
    single-domain setup code (the flag is a plain shared cell). *)

val require : bool -> string -> unit
(** [require cond msg] raises [Violation msg] when [cond] is false.
    Unconditional — guard the call with {!enabled}. *)
