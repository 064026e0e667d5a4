(* Pass 2: the interprocedural analyses over the call graph.

   All three checks are BFS reachability with parent links so every
   finding can explain its call chain, and every whole-program finding
   carries the chain's root (file, line) so a suppression at the entry
   point waives the findings it implies (Engine consults both). Node
   ids are (path, source-order) positions, so results are
   deterministic. *)

let line_of = Callgraph.line_of

let col_of (loc : Location.t) =
  loc.loc_start.pos_cnum - loc.loc_start.pos_bol

(* Multi-source BFS; [follow] filters edges. Returns the parent array
   (-1 for a root, min_int for unreachable) in visit order. *)
let bfs g roots ~follow =
  let n = Callgraph.size g in
  let parent = Array.make n min_int in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if parent.(r) = min_int then begin
        parent.(r) <- -1;
        Queue.add r q
      end)
    roots;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    order := i :: !order;
    List.iter
      (fun (e : Callgraph.edge) ->
        if follow e && parent.(e.target) = min_int then begin
          parent.(e.target) <- i;
          Queue.add e.target q
        end)
      (Callgraph.edges g i)
  done;
  (parent, List.rev !order)

let rec root_of parent i = if parent.(i) < 0 then i else root_of parent parent.(i)

let chain g parent i =
  let rec up acc i =
    let acc = Summary.display (Callgraph.node g i) :: acc in
    if parent.(i) < 0 then acc else up acc parent.(i)
  in
  String.concat " -> " (up [] i)

let finding_at g parent i ~rule ~file ~loc msg =
  let r = root_of parent i in
  let rn = Callgraph.node g r in
  Finding.v
    ~root:(rn.Summary.path, line_of rn.Summary.nloc)
    ~rule ~file ~line:(line_of loc) ~col:(col_of loc) msg

(* --- R9: alloc-free proof of the hot path ----------------------------- *)

let check_alloc_free g =
  let roots = ref [] in
  for i = Callgraph.size g - 1 downto 0 do
    if (Callgraph.node g i).Summary.alloc_free_root then roots := i :: !roots
  done;
  let parent, order = bfs g !roots ~follow:(fun e -> e.Callgraph.hot) in
  let findings = ref [] in
  let emit i loc msg =
    let n = Callgraph.node g i in
    findings :=
      finding_at g parent i ~rule:Finding.R9 ~file:n.Summary.path ~loc msg
      :: !findings
  in
  List.iter
    (fun i ->
      let n = Callgraph.node g i in
      let here = chain g parent i in
      (* an arity-0 binding allocates once at module init, not per
         call: reading it from the hot path costs nothing *)
      if n.Summary.arity > 0 then
        List.iter
          (fun (a : Summary.alloc) ->
            if not a.aguarded then
              emit i a.aloc
                (Printf.sprintf
                   "%s on the [@olia.alloc_free] hot path (chain: %s)" a.what
                   here))
          n.Summary.allocs;
      (* a float-returning function without [@inline] boxes its result
         at every call from another compilation unit *)
      if
        n.Summary.float_return && (not n.Summary.inline)
        && n.Summary.arity > 0
      then
        emit i n.Summary.nloc
          (Printf.sprintf
             "float-returning %s lacks [@inline]: the boxed return \
              allocates on the hot path (chain: %s)"
             (Summary.display n) here);
      List.iter
        (fun (e : Callgraph.edge) ->
          let t = Callgraph.node g e.Callgraph.target in
          if
            e.Callgraph.hot && e.Callgraph.min_args >= 0
            && t.Summary.arity > 0
            && e.Callgraph.min_args < t.Summary.required
          then
            emit i e.Callgraph.eloc
              (Printf.sprintf
                 "partial application of %s (%d of %d required arguments) \
                  allocates a closure on the hot path (chain: %s)"
                 (Summary.display t) e.Callgraph.min_args t.Summary.required
                 here))
        (Callgraph.edges g i))
    order;
  List.rev !findings

(* --- R11: interprocedural determinism taint --------------------------- *)

let kind_index = function
  | Summary.Wall_clock -> 0
  | Summary.Ambient_random -> 1
  | Summary.Table_order -> 2
  | Summary.Float_compare -> 3

let kinds =
  [
    Summary.Wall_clock; Summary.Ambient_random; Summary.Table_order;
    Summary.Float_compare;
  ]

(* A sort anywhere in the node re-establishes a canonical order, so
   Table_order taint neither originates there nor flows through it. *)
let sanitizes (n : Summary.node) = function
  | Summary.Table_order -> n.Summary.sorts
  | _ -> false

let check_determinism_taint g =
  let n = Callgraph.size g in
  let taint = Array.make_matrix n 4 false in
  for i = 0 to n - 1 do
    let nd = Callgraph.node g i in
    List.iter
      (fun (s : Summary.nsource) ->
        if not (sanitizes nd s.skind) then
          taint.(i).(kind_index s.skind) <- true)
      nd.Summary.sources
  done;
  (* Taint flows callee -> caller, to a fixpoint over the (cyclic)
     graph — but only along unguarded edges: calls made under the
     zero-cost-off idiom (profiling self-timing, armed invariants) are
     off the replay path by construction. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let nd = Callgraph.node g i in
      List.iter
        (fun (e : Callgraph.edge) ->
          if e.Callgraph.hot then
            List.iter
              (fun k ->
                let ki = kind_index k in
                if
                  taint.(e.Callgraph.target).(ki)
                  && (not (sanitizes nd k))
                  && not taint.(i).(ki)
                then begin
                  taint.(i).(ki) <- true;
                  changed := true
                end)
              kinds)
        (Callgraph.edges g i)
    done
  done;
  (* explain each tainted sink with the shortest chain to a source *)
  let findings = ref [] in
  for i = 0 to n - 1 do
    let nd = Callgraph.node g i in
    if Rules.under [ "lib" ] nd.Summary.path && nd.Summary.sinks <> [] then
      List.iter
        (fun k ->
          let ki = kind_index k in
          if taint.(i).(ki) then begin
            let follow (e : Callgraph.edge) =
              e.Callgraph.hot
              && taint.(e.Callgraph.target).(ki)
              && not (sanitizes (Callgraph.node g e.Callgraph.target) k)
            in
            let parent, order = bfs g [ i ] ~follow in
            let src =
              List.find_opt
                (fun j ->
                  List.exists
                    (fun (s : Summary.nsource) -> s.Summary.skind = k)
                    (Callgraph.node g j).Summary.sources)
                order
            in
            match src with
            | None -> ()
            | Some j ->
              let s =
                List.find
                  (fun (s : Summary.nsource) -> s.Summary.skind = k)
                  (Callgraph.node g j).Summary.sources
              in
              List.iter
                (fun (sink_name, sink_loc) ->
                  findings :=
                    Finding.v
                      ~root:(nd.Summary.path, line_of nd.Summary.nloc)
                      ~rule:Finding.R11 ~file:nd.Summary.path
                      ~line:(line_of sink_loc) ~col:(col_of sink_loc)
                      (Printf.sprintf
                         "%s flows into %s (chain: %s; source: %s in %s:%d); \
                          emitted output is not reproducible across runs"
                         (Summary.source_kind_name k) sink_name
                         (chain g parent j) s.Summary.sname
                         (Callgraph.node g j).Summary.path
                         (line_of s.Summary.sloc))
                    :: !findings)
                nd.Summary.sinks
          end)
        kinds
  done;
  List.rev !findings
