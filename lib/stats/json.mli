(** Minimal JSON tree, serializer, and parser for exporting experiment
    outcomes and sweep tables to plotting tools and reading them back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialize as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val write : path:string -> t -> unit
(** Write the compact rendering (plus newline) to [path], creating or
    truncating it. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). Numeric
    tokens with a ['.'] or exponent become [Float], others [Int];
    [\u] escapes decode to UTF-8, combining surrogate pairs. Errors
    carry the byte offset. Inverse of [to_string] up to number
    formatting: [Float nan] serializes as [null] and does not read
    back as a float. *)
