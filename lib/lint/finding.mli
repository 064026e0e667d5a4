(** Diagnostics produced by the linter.

    A finding pins a violated rule to a file position. Findings are
    plain data: rendering lives in {!Report} and policy (what is
    scanned, what is suppressed) in {!Engine}. *)

type rule =
  | R1  (** determinism: ambient randomness/clocks outside [Netsim.Rng] *)
  | R2  (** domain-safety: module-level mutable state in [lib/] *)
  | R3  (** float-hygiene: structural [=]/[<>]/[compare] on floats *)
  | R4  (** output hygiene: stdout printing from [lib/] *)
  | R5  (** registry completeness: scenario unreachable from the registry *)
  | R6  (** error hygiene: [ignore] of a [result] value *)
  | R7  (** seed plumbing: hard-coded or defaulted RNG seed in scenarios *)
  | R9  (** alloc-free: allocation reachable from a hot-path entry point *)
  | R11
      (** determinism taint: nondeterminism source flowing into an
          output sink across module boundaries *)
  | Parse  (** the file does not parse; nothing else was checked *)
  | Suppress  (** malformed suppression directive *)

val all : rule list
(** Every rule in report order: the waivable rules, then [Parse] and
    [Suppress]. [olia_lint --rules] prints this list. *)

val waivable : string
(** The waivable rules of {!all}, ["R1, R2, ..., R9, R11"], for the
    clean-run line and suppression errors. *)

val rule_name : rule -> string
(** ["R1"] ... ["R7"], ["R9"], ["R11"], ["parse"], ["suppress"]. *)

val rule_of_name : string -> rule option
(** Inverse of {!rule_name} for the waivable rules only: [Parse] and
    [Suppress] findings cannot be waived. *)

val rule_doc : rule -> string
(** One-line summary of what the rule protects. *)

type t = {
  rule : rule;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler diagnostics *)
  message : string;
  root : (string * int) option;
      (** whole-program findings: (file, line) of the call chain's root
          entry point, so a suppression at the root also waives them *)
}

val v :
  ?root:string * int ->
  rule:rule ->
  file:string ->
  line:int ->
  col:int ->
  string ->
  t

val compare : t -> t -> int
(** Order by file, line, column, rule — the report order. *)

val to_string : t -> string
(** [file:line:col: RULE message], compiler-style. *)

val to_json : t -> Repro_stats.Json.t
