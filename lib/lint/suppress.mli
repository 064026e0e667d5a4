(** Suppression directives.

    A finding can be waived in the source itself, with a mandatory
    reason:

    {v
    (* lint: allow R3 -- exact sentinel comparison, never arithmetic *)
    (* lint: allow-file R1 -- wall-clock timing of the harness itself *)
    v}

    A line-scoped directive covers findings on its own line and on the
    line immediately below (so it can sit above the offending
    expression); [allow-file] covers the whole file. Several rule ids
    may be listed. Directives must fit on one line. A directive with an
    unknown rule id, no rule ids, or a missing/empty reason after [--]
    is itself reported as a [Suppress] finding — and [parse]/[suppress]
    findings can never be waived.

    Whole-program findings (R9, R11) carry a [root] location — the entry
    point of the offending call chain — and are waived either by a
    directive at the finding's own site or by one at the chain's root
    (see {!Engine}); both checks go through {!permits_line}. *)

type t

val scan : file:string -> string -> t
(** Extract every directive from the raw source text. *)

val invalid : t -> Finding.t list
(** Malformed directives, as findings. *)

val permits : t -> Finding.t -> bool
(** Is the finding waived by a directive in this file? *)

val permits_line : t -> Finding.rule -> int -> bool
(** Is a finding of [rule] at [line] waived by a directive in this
    file? Used for the site check and again for the chain-root check of
    whole-program findings. *)
