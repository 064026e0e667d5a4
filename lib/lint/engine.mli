(** Driving the rules over sources.

    The engine is pure with respect to its inputs: {!lint_sources}
    takes (path, content) pairs — the test suite feeds it inline
    fixtures — and {!lint_paths} merely walks the filesystem to build
    that list. Findings come back suppression-filtered, deduplicated
    and sorted.

    Linting is two passes: pass 1 parses every file and runs the
    per-file catalogue (R1-R4, R6-R7) plus R5 across files; pass 2
    digests the parsed structures into {!Summary} nodes, builds the
    {!Callgraph}, and runs the interprocedural checks ({!Dataflow}:
    R9 alloc-free, R11 determinism taint). *)

type source = { path : string; content : string }

val lint_sources : source list -> Finding.t list
(** Parse every source ([.ml] as implementation, [.mli] as interface),
    run both passes, then drop findings waived by valid {!Suppress}
    directives — a whole-program finding is waived by a directive at
    its own site {e or} at its chain's root. Unparseable files yield a
    single [Parse] finding; malformed directives yield [Suppress]
    findings. Neither of those two can be waived. *)

val graph_of_sources : source list -> Callgraph.t
(** Pass 1 + graph construction only, for [--graph-dump]. Unparseable
    files are silently absent from the graph. *)

val collect_files : string list -> string list
(** All [.ml]/[.mli] files below the given roots (a root may also be a
    plain file), sorted, skipping [_build], [lint-fixtures] and
    dot-directories. *)

val read_sources : string list -> source list
(** [collect_files] plus file contents, in the same order. *)

val lint_paths : string list -> int * Finding.t list
(** [read_sources] then [lint_sources]; returns the number of files
    scanned alongside the findings. *)
