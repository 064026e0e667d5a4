(** Pass 2: the interprocedural analyses (R9, R11).

    Each check walks the {!Callgraph} with BFS parent links, so every
    finding explains its full call chain and carries the chain's root
    (file, line) in {!Finding.t.root} — a suppression directive at the
    entry point waives the findings it implies. Walks are in node-id
    order, so output is deterministic. *)

val check_alloc_free : Callgraph.t -> Finding.t list
(** R9: from every [[@olia.alloc_free]] entry point, follow unguarded
    call edges and flag every unguarded allocation
    site, every float-returning function lacking [@inline], and every
    partial application, each with its chain. *)

val check_determinism_taint : Callgraph.t -> Finding.t list
(** R11: propagate nondeterminism taint (wall clock, ambient
    randomness, Hashtbl iteration order, polymorphic float compare)
    callee-to-caller to a fixpoint along unguarded edges (calls under
    the zero-cost-off idiom — profiling self-timing, armed invariants
    — are off the replay path); flag every [lib/] output sink
    ([Trace.emit], JSON/CSV writers, [Meter.finish]) in a tainted
    function, with the chain to a concrete source. A sort in a
    function sanitizes [Table_order] taint there. *)
