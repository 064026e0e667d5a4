open Parsetree

(* Pass 1 of the whole-program analyzer: digest every toplevel value
   binding of a parsed implementation into one [node] — its allocation
   sites, the names it calls or mentions, and its nondeterminism
   sources and output sinks.
   Nested functions fold into their enclosing toplevel binding; the
   call graph (pass 2) never looks below that granularity.

   Like the per-file rules this is syntactic, and the approximations
   are deliberate and documented in docs/LINT.md:

   - indirect calls (record-field closures like [cc.increase], array
     dispatch like [p.route.(p.hop)]) are opaque — the runtime
     Gc.minor_words canary in test_timer.ml backs the static story;
   - a closure is an allocation only when it captures: a [fun] whose
     body mentions no binding of the enclosing function scope is a
     constant closure and statically allocated;
   - branches guarded by the repo's zero-cost-off idiom
     ([Invariant.enabled ()], [Trace.enabled ()], [Profile.enabled ()],
     directly or through a local [let traced = Trace.enabled ()]), and
     arguments of [invalid_arg]/[failwith]/[raise]/[assert], are
     off the steady path and marked [guarded];
   - boxed int64/int32/nativeint arithmetic is not tracked. *)

type alloc = { aloc : Location.t; what : string; aguarded : bool }

type call = {
  callee : Longident.t;
  cloc : Location.t;
  args : int;  (* supplied non-optional arguments; -1 = bare mention *)
  cguarded : bool;
}

type source_kind = Wall_clock | Ambient_random | Table_order | Float_compare

let source_kind_name = function
  | Wall_clock -> "wall-clock time"
  | Ambient_random -> "ambient randomness"
  | Table_order -> "Hashtbl iteration order"
  | Float_compare -> "polymorphic compare on floats"

type nsource = { skind : source_kind; sname : string; sloc : Location.t }

type node = {
  path : string;
  modname : string;
  qual : string;  (* name within the file, e.g. "Timer.cancel" *)
  nloc : Location.t;
  alloc_free_root : bool;  (* carries [@olia.alloc_free] *)
  inline : bool;  (* carries [@inline] *)
  arity : int;  (* leading fun parameters; 0 = plain value *)
  required : int;  (* [arity] minus optional parameters *)
  allocs : alloc list;
  calls : call list;
  sources : nsource list;
  sinks : (string * Location.t) list;
  sorts : bool;  (* calls a sort: sanitizes Table_order taint *)
  float_return : bool;  (* tail positions are syntactically float *)
}

let display n = n.modname ^ "." ^ n.qual

(* --- name helpers ----------------------------------------------------- *)

let last2 name =
  match List.rev (String.split_on_char '.' name) with
  | f :: m :: _ -> m ^ "." ^ f
  | _ -> name

let guard_fns = [ "Invariant.enabled"; "Trace.enabled"; "Profile.enabled" ]
let error_fns = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ]

let allocating_fns =
  [
    "ref";
    "Array.make";
    "Array.init";
    "Array.append";
    "Array.copy";
    "Array.sub";
    "Array.map";
    "Array.mapi";
    "Array.of_list";
    "Array.to_list";
    "Float.Array.make";
    "Float.Array.init";
    "List.map";
    "List.mapi";
    "List.init";
    "List.filter";
    "List.filter_map";
    "List.rev";
    "List.append";
    "List.concat";
    "List.concat_map";
    "List.sort";
    "@";
    "^";
    "String.concat";
    "String.make";
    "String.sub";
    "String.init";
    "Printf.sprintf";
    "Printf.printf";
    "Format.sprintf";
    "Format.asprintf";
    "Bytes.create";
    "Bytes.make";
    "Buffer.create";
    "Buffer.contents";
    "Hashtbl.create";
    "Hashtbl.add";
    "Hashtbl.replace";
    "Hashtbl.copy";
    "Queue.create";
    "Stack.create";
    "string_of_int";
    "string_of_float";
    "float_of_string";
  ]

let wall_clock_fns = [ "Unix.gettimeofday"; "Sys.time" ]

let sink_fns =
  [
    "Trace.emit";
    (* the ring writer: the scalar armed-emission entry points persist
       whatever reaches them into the binary trace, so nondeterminism
       flowing in here is just as unreproducible as a Trace.emit *)
    "Trace.pkt_enqueue";
    "Trace.pkt_drop";
    "Trace.pkt_forward";
    "Trace.tcp_state";
    "Trace.cwnd_update";
    "Trace.rto_fired";
    "Trace.rtt_sample";
    "Trace.subflow_add";
    "Trace.subflow_remove";
    "Json.to_string";
    "Json.write";
    "Csv.write_rows";
    "Snapshot.write";
    "Meter.finish";
  ]

let order_fns = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let sort_fns =
  [
    "List.sort";
    "List.stable_sort";
    "List.sort_uniq";
    "Array.sort";
    "Array.stable_sort";
  ]

let has_attr names attrs =
  List.exists (fun a -> List.mem a.attr_name.Location.txt names) attrs

(* --- small scans ------------------------------------------------------ *)

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_vars p
  | Ppat_tuple ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> pat_vars p
  | Ppat_record (fs, _) -> List.concat_map (fun (_, p) -> pat_vars p) fs
  | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p
  | Ppat_exception p ->
    pat_vars p
  | _ -> []

(* All unqualified ident mentions and all pattern-bound names below an
   expression: a lambda captures when it mentions a name bound in the
   enclosing function scope that it does not rebind itself. *)
let idents_and_patvars e =
  let ids = Hashtbl.create 16 and pvs = Hashtbl.create 16 in
  let expr self x =
    (match x.pexp_desc with
     | Pexp_ident { txt = Longident.Lident n; _ } -> Hashtbl.replace ids n ()
     | _ -> ());
    Ast_iterator.default_iterator.expr self x
  in
  let pat self p =
    (match p.ppat_desc with
     | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
       Hashtbl.replace pvs txt ()
     | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let it = { Ast_iterator.default_iterator with expr; pat } in
  it.expr it e;
  (ids, pvs)

(* Syntactically constant expressions are statically allocated (the
   compiler lifts them): constructor payloads and tuples of constants
   never cost a minor word at run time. *)
let rec is_constant e =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
    is_constant arg
  | Pexp_variant (_, None) -> true
  | Pexp_tuple es -> List.for_all is_constant es
  | Pexp_constraint (e, _) -> is_constant e
  | _ -> false

let rec returns_float e =
  if Rules.is_floatish e then true
  else
    match e.pexp_desc with
    | Pexp_ifthenelse (_, a, Some b) -> returns_float a || returns_float b
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.exists (fun c -> returns_float c.pc_rhs) cases
    | Pexp_let (_, _, b) | Pexp_sequence (_, b) | Pexp_open (_, b) ->
      returns_float b
    | Pexp_constraint (e, { ptyp_desc = Ptyp_constr ({ txt; _ }, []); _ }) ->
      Rules.lid_name txt = "float" || returns_float e
    | Pexp_constraint (e, _) -> returns_float e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args ) ->
      let name = Rules.canonical (Rules.lid_name txt) in
      (name = "min" || name = "max")
      && List.exists (fun (_, a) -> Rules.is_floatish a) args
    | _ -> false

(* --- the walker ------------------------------------------------------- *)

type acc = {
  mutable a_allocs : alloc list;
  mutable a_calls : call list;
  mutable a_sources : nsource list;
  mutable a_sinks : (string * Location.t) list;
  mutable a_sorts : bool;
}

let is_guard_name name = List.mem (last2 name) guard_fns

(* The condition of a pruned branch: a direct [X.enabled ()] call, or a
   local bound to one ([let traced = Trace.enabled () in ... if traced]). *)
let is_guard_cond guards e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    is_guard_name (Rules.canonical (Rules.lid_name txt))
  | Pexp_ident { txt = Longident.Lident n; _ } -> List.mem n guards
  | _ -> false

let walk_binding ~acc ~env0 body0 =
  let acc : acc = acc in
  let record_alloc loc what guarded =
    acc.a_allocs <- { aloc = loc; what; aguarded = guarded } :: acc.a_allocs
  in
  let note_ident ~guarded ~loc txt =
    let name = Rules.canonical (Rules.lid_name txt) in
    if Rules.lid_root txt = "Random" then
      acc.a_sources <-
        { skind = Ambient_random; sname = name; sloc = loc } :: acc.a_sources
    else if List.mem name wall_clock_fns then
      acc.a_sources <-
        { skind = Wall_clock; sname = name; sloc = loc } :: acc.a_sources;
    ignore guarded
  in
  (* [env] holds the names bound in the enclosing function scope of the
     current toplevel binding (parameters and locals); [guards] the
     locals bound to a guard call; [guarded] whether the current branch
     is off the steady path. *)
  let rec walk env guards guarded e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      note_ident ~guarded ~loc txt;
      let mention =
        match txt with
        | Longident.Lident n -> not (List.mem n env)
        | _ -> true
      in
      if mention then
        acc.a_calls <-
          { callee = txt; cloc = loc; args = -1; cguarded = guarded }
          :: acc.a_calls
    | Pexp_fun _ | Pexp_function _ -> lambda env guards guarded e
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc }; _ } as _f), args) ->
      let name = Rules.canonical (Rules.lid_name txt) in
      let l2 = last2 name in
      note_ident ~guarded ~loc txt;
      let supplied =
        List.length
          (List.filter
             (fun (lbl, _) ->
               match lbl with Asttypes.Optional _ -> false | _ -> true)
             args)
      in
      let local =
        match txt with Longident.Lident n -> List.mem n env | _ -> false
      in
      if not local then
        acc.a_calls <-
          { callee = txt; cloc = loc; args = supplied; cguarded = guarded }
          :: acc.a_calls;
      if List.mem name allocating_fns then
        record_alloc e.pexp_loc
          (Printf.sprintf "call to %s (allocating)" name)
          guarded;
      if List.mem l2 order_fns then
        acc.a_sources <-
          { skind = Table_order; sname = name; sloc = loc } :: acc.a_sources;
      if List.mem l2 sort_fns then acc.a_sorts <- true;
      if List.mem l2 sink_fns then
        acc.a_sinks <- (name, loc) :: acc.a_sinks;
      (match (name, args) with
       | "compare", [ (_, a); (_, b) ]
         when Rules.is_floatish a || Rules.is_floatish b ->
         acc.a_sources <-
           { skind = Float_compare; sname = "compare"; sloc = loc }
           :: acc.a_sources
       | _ -> ());
      (* arguments of an error constructor never run on the steady path *)
      let arg_guarded = guarded || List.mem name error_fns in
      List.iter (fun (_, a) -> walk env guards arg_guarded a) args
    | Pexp_apply (f, args) ->
      walk env guards guarded f;
      List.iter (fun (_, a) -> walk env guards guarded a) args
    | Pexp_ifthenelse (cond, a, b) ->
      if is_guard_cond guards cond then begin
        walk env guards guarded cond;
        walk env guards true a;
        Option.iter (walk env guards guarded) b
      end
      else begin
        walk env guards guarded cond;
        walk env guards guarded a;
        Option.iter (walk env guards guarded) b
      end
    | Pexp_let (rf, vbs, body) ->
      let bound = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
      let env_rhs =
        match rf with Asttypes.Recursive -> bound @ env | _ -> env
      in
      List.iter (fun vb -> walk env_rhs guards guarded vb.pvb_expr) vbs;
      let guards =
        match vbs with
        | [ { pvb_pat = { ppat_desc = Ppat_var { txt; _ }; _ }; pvb_expr; _ } ]
          when is_guard_cond [] pvb_expr ->
          txt :: guards
        | _ -> guards
      in
      walk (bound @ env) guards guarded body
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk env guards guarded scrut;
      List.iter
        (fun c ->
          let env = pat_vars c.pc_lhs @ env in
          Option.iter (walk env guards guarded) c.pc_guard;
          walk env guards guarded c.pc_rhs)
        cases
    | Pexp_sequence (a, b) ->
      walk env guards guarded a;
      walk env guards guarded b
    | Pexp_while (c, b) ->
      walk env guards guarded c;
      walk env guards guarded b
    | Pexp_for (p, lo, hi, _, b) ->
      walk env guards guarded lo;
      walk env guards guarded hi;
      walk (pat_vars p @ env) guards guarded b
    | Pexp_tuple es ->
      if not (is_constant e) then
        record_alloc e.pexp_loc "tuple construction" guarded;
      List.iter (walk env guards guarded) es
    | Pexp_record (fs, base) ->
      record_alloc e.pexp_loc "record construction" guarded;
      List.iter (fun (_, v) -> walk env guards guarded v) fs;
      Option.iter (walk env guards guarded) base
    | Pexp_construct ({ txt; _ }, Some arg) ->
      if not (is_constant e) then
        record_alloc e.pexp_loc
          (Printf.sprintf "constructor %s with payload" (Rules.lid_name txt))
          guarded;
      walk env guards guarded arg
    | Pexp_construct (_, None) -> ()
    | Pexp_variant (_, Some arg) ->
      if not (is_constant e) then
        record_alloc e.pexp_loc "polymorphic variant with payload" guarded;
      walk env guards guarded arg
    | Pexp_variant (_, None) -> ()
    | Pexp_array [] -> ()
    | Pexp_array es ->
      record_alloc e.pexp_loc "array literal" guarded;
      List.iter (walk env guards guarded) es
    | Pexp_lazy inner ->
      record_alloc e.pexp_loc "lazy thunk" guarded;
      walk env guards guarded inner
    | Pexp_assert inner ->
      (* compiles to a conditional raise: allocation only on failure *)
      walk env guards true inner
    | Pexp_field (o, _) -> walk env guards guarded o
    | Pexp_setfield (o, _, v) ->
      walk env guards guarded o;
      walk env guards guarded v
    | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) ->
      walk env guards guarded inner
    | Pexp_open (_, body) | Pexp_newtype (_, body) ->
      walk env guards guarded body
    | Pexp_letmodule (_, _, body) -> walk env guards guarded body
    | Pexp_constant _ | Pexp_unreachable | Pexp_extension _ -> ()
    | _ -> fallback env guards guarded e
  and fallback env guards guarded e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> walk env guards guarded child);
      }
    in
    Ast_iterator.default_iterator.expr it e
  and lambda env guards guarded e =
    (* Peel every consecutive parameter: [fun a b -> ...] is one flat
       closure. It allocates only if the body mentions (and does not
       rebind) a name from the enclosing scope. *)
    let rec peel params body =
      match body.pexp_desc with
      | Pexp_fun (_, _, p, b) -> peel (pat_vars p @ params) b
      | Pexp_newtype (_, b) -> peel params b
      | _ -> (params, body)
    in
    match e.pexp_desc with
    | Pexp_function cases ->
      if env <> [] then begin
        let ids, pvs = idents_and_patvars e in
        let captured =
          List.filter
            (fun n -> Hashtbl.mem ids n && not (Hashtbl.mem pvs n))
            env
        in
        if captured <> [] then
          record_alloc e.pexp_loc
            (Printf.sprintf "closure capturing %s"
               (String.concat ", "
                  (List.sort_uniq String.compare captured)))
            guarded
      end;
      List.iter
        (fun c ->
          let env = pat_vars c.pc_lhs @ env in
          Option.iter (walk env guards guarded) c.pc_guard;
          walk env guards guarded c.pc_rhs)
        cases
    | _ ->
      let params, body = peel [] e in
      if env <> [] then begin
        let ids, pvs = idents_and_patvars e in
        let captured =
          List.filter
            (fun n -> Hashtbl.mem ids n && not (Hashtbl.mem pvs n))
            env
        in
        if captured <> [] then
          record_alloc e.pexp_loc
            (Printf.sprintf "closure capturing %s"
               (String.concat ", "
                  (List.sort_uniq String.compare captured)))
            guarded
      end;
      walk (params @ env) guards guarded body
  in
  walk env0 [] false body0

(* --- structure scan --------------------------------------------------- *)

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

let of_structure ~path structure =
  let modname = Rules.module_name_of path in
  let nodes = ref [] in
  let rec scan_items prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (binding prefix) vbs
        | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } ->
          scan_module (prefix ^ m ^ ".") pmb_expr
        | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              match mb.pmb_name.txt with
              | Some m -> scan_module (prefix ^ m ^ ".") mb.pmb_expr
              | None -> ())
            mbs
        | Pstr_include { pincl_mod; _ } -> scan_module prefix pincl_mod
        | _ -> ())
      items
  and scan_module prefix me =
    match me.pmod_desc with
    | Pmod_structure items -> scan_items prefix items
    | Pmod_constraint (me, _) | Pmod_functor (_, me) ->
      scan_module prefix me
    | _ -> ()
  and binding prefix vb =
    let name = match binding_name vb.pvb_pat with Some n -> n | None -> "_" in
    let attrs = vb.pvb_attributes @ vb.pvb_expr.pexp_attributes in
    let rec peel env arity req e =
      match e.pexp_desc with
      | Pexp_fun (lbl, _, pat, body) ->
        let req =
          match lbl with Asttypes.Optional _ -> req | _ -> req + 1
        in
        peel (pat_vars pat @ env) (arity + 1) req body
      | Pexp_newtype (_, body) -> peel env arity req body
      | _ -> (env, arity, req, e)
    in
    let env0, arity, required, body = peel [] 0 0 vb.pvb_expr in
    let arity, body_for_walk =
      match body.pexp_desc with
      | Pexp_function _ when arity >= 0 -> (arity + 1, body)
      | _ -> (arity, body)
    in
    let required =
      match body.pexp_desc with
      | Pexp_function _ -> required + 1
      | _ -> required
    in
    let acc =
      {
        a_allocs = [];
        a_calls = [];
        a_sources = [];
        a_sinks = [];
        a_sorts = false;
      }
    in
    (match body_for_walk.pexp_desc with
     | Pexp_function cases ->
       List.iter
         (fun c ->
           let env = pat_vars c.pc_lhs @ env0 in
           (match c.pc_guard with
            | Some g -> walk_binding ~acc ~env0:env g
            | None -> ());
           walk_binding ~acc ~env0:env c.pc_rhs)
         cases
     | _ -> walk_binding ~acc ~env0 body_for_walk);
    nodes :=
      {
        path;
        modname;
        qual = prefix ^ name;
        nloc = vb.pvb_loc;
        alloc_free_root = has_attr [ "olia.alloc_free" ] attrs;
        inline = has_attr [ "inline"; "ocaml.inline" ] attrs;
        arity;
        required;
        allocs = List.rev acc.a_allocs;
        calls = List.rev acc.a_calls;
        sources = List.rev acc.a_sources;
        sinks = List.rev acc.a_sinks;
        sorts = acc.a_sorts;
        float_return = arity > 0 && returns_float body_for_walk;
      }
      :: !nodes
  in
  scan_items "" structure;
  List.rev !nodes
