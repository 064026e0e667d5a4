(** Pass 1 of the whole-program analyzer: per-binding summaries.

    Each toplevel value binding of each parsed [.ml] becomes one
    {!node} recording everything pass 2 needs — allocation sites (with
    a [guarded] flag for branches pruned by the zero-cost-off idiom),
    outgoing calls and bare mentions, nondeterminism sources, output
    sinks, and whether the binding defines toplevel mutable state.
    Nested functions fold into their enclosing toplevel binding.

    The extraction is syntactic; the approximations (opaque indirect
    calls, constant closures, untracked int64 boxing) are documented in
    docs/LINT.md. *)

type alloc = {
  aloc : Location.t;
  what : string;  (** human description, e.g. ["closure capturing t"] *)
  aguarded : bool;
      (** under an [Invariant]/[Trace]/[Profile].[enabled ()] guard or
          on an error path — off the steady path, invisible to R9 *)
}

type call = {
  callee : Longident.t;
  cloc : Location.t;
  args : int;  (** supplied non-optional arguments; [-1] = bare mention *)
  cguarded : bool;
}

type source_kind = Wall_clock | Ambient_random | Table_order | Float_compare

val source_kind_name : source_kind -> string

type nsource = { skind : source_kind; sname : string; sloc : Location.t }

type node = {
  path : string;
  modname : string;
  qual : string;  (** dotted name within the file, e.g. ["Timer.cancel"] *)
  nloc : Location.t;
  alloc_free_root : bool;  (** carries [@olia.alloc_free] *)
  inline : bool;  (** carries [@inline] *)
  arity : int;  (** leading fun parameters; [0] = plain value *)
  required : int;  (** [arity] minus optional parameters *)
  allocs : alloc list;
  calls : call list;
  sources : nsource list;
  sinks : (string * Location.t) list;
  sorts : bool;  (** calls a sort, which sanitizes [Table_order] taint *)
  float_return : bool;
      (** some tail position is syntactically float: without [@inline]
          the classical compiler boxes the return at every call *)
}

val display : node -> string
(** ["Sim.Timer.cancel"] — module-qualified name for messages. *)

val of_structure : path:string -> Parsetree.structure -> node list
(** Summarize every toplevel binding, in source order. *)
