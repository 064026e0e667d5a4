(** Aligned plain-text tables, used by the bench harness to print
    paper-shaped rows. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a title line and the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row. Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val add_float_row : t -> string -> float list -> t
(** [add_float_row t label xs] appends a row whose first cell is [label]
    and remaining cells render [xs] with 4 significant digits. Returns
    [t] for chaining. *)

val print : t -> unit
(** Render to stdout with column alignment, a title and a separator
    rule. *)

val to_string : t -> string
(** Rendered table as a string. *)

val rows : t -> string list list
(** The rows added so far, in insertion order. *)

val to_csv : t -> path:string -> unit
(** Write the header and rows as CSV (for plotting tools). *)
