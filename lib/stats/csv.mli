(** Minimal CSV writing for exporting experiment series to plotting
    tools. *)

val escape : string -> string
(** Quote a field if it contains commas, quotes or newlines. *)

val write_rows :
  path:string -> header:string list -> string list list -> unit
(** Write a header and rows to [path], creating or truncating it. *)

val write_series :
  path:string -> columns:string list -> float list list -> unit
(** Numeric convenience: every row printed with [%.6g]. Raises
    [Invalid_argument] if a row's width differs from the header's. *)
