(** Typed parameter specifications for the uniform experiment API.

    A {!t} describes one experiment: its registry name and the set of
    key/value parameters it accepts, each with a typed default and a
    domain. Concrete settings are {!bindings} — association lists
    resolved against the spec's defaults — so a scenario can be driven
    from the command line ([-p n2=30]), from a sweep axis, or
    programmatically, all through the same interface.

    A scenario declares each parameter once, as a {!param} with its
    key, domain, default and doc, and composes the declarations with
    [let+]/[and+] into one {!term}. The term yields the spec's parameter
    list ({!make}) and decodes validated bindings into the scenario's
    config record ({!decode}). *)

type value = Int of int | Float of float | Bool of bool | String of string

type param = {
  key : string;
  default : value;
  doc : string;
  domain : string;  (** rendered, e.g. ["int >= 1"] or ["finite > 0"] *)
  accepts : value -> bool;  (** the value has the type and the domain *)
}

type t = { name : string; doc : string; params : param list }

(** {1 Values} *)

val value_to_string : value -> string
(** Render a value the way the CLI accepts it ([true]/[false] for
    booleans, [%.12g] for floats). *)

val parse_value : like:value -> string -> value
(** Parse a string as the same type as [like]. Raises
    [Invalid_argument] on a malformed literal. *)

(** {1 Domains} *)

type 'a domain
(** The values a parameter of OCaml type ['a] accepts. Float domains
    hold only finite values. *)

val int_at_least : int -> int domain
val even_int : int domain
(** Even ints [>= 2]. *)

val positive : float domain
(** Finite and [> 0]. *)

val at_least : float -> float domain
(** Finite and [>= lo]. *)

val probability : float domain
(** [\[0, 1)]. *)

val bool : bool domain

val names : string -> (string -> bool) -> string domain
(** [names describe mem]: the strings [mem] accepts, rendered as
    [describe]. *)

(** {1 Declarations} *)

type bindings = (string * value) list
(** Overrides for a spec's defaults; earlier entries shadow later ones,
    and any key not bound falls back to the spec default. *)

type 'a term
(** Parameter declarations that decode bindings into an ['a]. *)

val param : 'a domain -> string -> 'a -> string -> 'a term
(** [param domain key default doc] declares one parameter. *)

val ( let+ ) : 'a term -> ('a -> 'b) -> 'b term
val ( and+ ) : 'a term -> 'b term -> ('a * 'b) term
(** Declarations compose in order: the spec lists the parameters as
    the [let+ ... and+ ...] chain names them. *)

val make : name:string -> doc:string -> 'a term -> t
(** The spec of a term's parameters. *)

val below : string * float -> string * float -> string option
(** [below (k1, v1) (k2, v2)] is [None] when [v1 < v2], else a message
    naming both keys and values: the usual cross-parameter rule. *)

val decode :
  t -> 'a term -> rules:('a -> string option) list -> bindings -> 'a
(** Validate the bindings against the term's parameters ({!validate}),
    decode them with the term, then check each cross-parameter rule: a
    rule returns [Some message] (naming its keys) to reject the decoded
    value. Raises [Invalid_argument] prefixed by [t]'s name before the
    caller builds anything. *)

(** {1 Bindings} *)

val find : t -> string -> param
(** Raises [Invalid_argument] (listing the valid keys) when the spec has
    no such parameter. *)

val get : t -> bindings -> string -> value
(** The bound value, or the spec default. Raises on unknown keys. *)

val validate : t -> bindings -> unit
(** Check every bound value on its own: raises [Invalid_argument],
    naming the spec, the key, the value and the domain, on an unknown
    key or a value outside its parameter's type and domain.
    Cross-parameter rules are {!decode}'s. *)

val parse_assign : t -> string -> string * value
(** [parse_assign spec "n2=30"] is [("n2", Int 30)], typed according to
    the spec's default for that key. *)

val to_json : t -> bindings -> Repro_stats.Json.t
(** The fully-resolved parameter set (defaults plus overrides) as a JSON
    object, in spec order. *)
