(* Cross-module call graph over the pass-1 summaries.

   Node identity is the array index; nodes are ordered by (path,
   source order) so every analysis that walks the graph in id order is
   deterministic. Resolution is name-based:

   - [Lident f] resolves within the caller's own file, preferring the
     latest binding at or above the mention line (same-file shadowing),
     then any same-file binding, searching the caller's submodule
     prefix outward;
   - [Ldot (path, f)] drops qualifiers from the left: [M.Sub.f] is
     tried as module [M] qual ["Sub.f"], then module [Sub] qual ["f"]
     — which also resolves local module aliases by their conventional
     names;
   - two files may compile to the same module name (the two
     [invariant.ml]); a caller in the same directory wins.

   Unresolved names (stdlib, externals, locals) simply produce no
   edge. *)

type edge = { target : int; eloc : Location.t; hot : bool; min_args : int }

type t = {
  nodes : Summary.node array;
  edges : edge list array;  (* deduped per (caller, target) *)
}

let node t i = t.nodes.(i)
let size t = Array.length t.nodes
let edges t i = t.edges.(i)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* All (module-name, qual) keys a node answers to: "Timer.cancel" in
   Sim answers Sim."Timer.cancel" and Timer."cancel". *)
let keys (n : Summary.node) =
  let segs = String.split_on_char '.' n.qual in
  let rec tails m acc = function
    | [] -> acc
    | s :: rest ->
      let acc = (m, String.concat "." (s :: rest)) :: acc in
      tails s acc rest
  in
  List.rev (tails n.modname [] segs)

let build (files : (string * Summary.node list) list) =
  let files = List.sort (fun (a, _) (b, _) -> compare a b) files in
  let nodes =
    Array.of_list (List.concat_map (fun (_, ns) -> ns) files)
  in
  let by_key : (string * string, int list) Hashtbl.t = Hashtbl.create 256 in
  let by_file : (string * string, int list) Hashtbl.t = Hashtbl.create 256 in
  let push tbl k i =
    Hashtbl.replace tbl k (i :: (try Hashtbl.find tbl k with Not_found -> []))
  in
  Array.iteri
    (fun i n ->
      List.iter (fun k -> push by_key k i) (keys n);
      push by_file (n.Summary.path, n.Summary.qual) i)
    nodes;
  let same_file_candidates (caller : Summary.node) name =
    (* search the caller's submodule prefix outward: a mention of [f]
       inside module [Timer] means [Timer.f] before toplevel [f] *)
    let rec prefixes acc = function
      | [] -> List.rev ("" :: acc)
      | segs ->
        let acc = (String.concat "." segs ^ ".") :: acc in
        prefixes acc (List.rev (List.tl (List.rev segs)))
    in
    let within =
      match String.rindex_opt caller.qual '.' with
      | None -> [ "" ]
      | Some i ->
        prefixes [] (String.split_on_char '.' (String.sub caller.qual 0 i))
    in
    List.find_map
      (fun p ->
        match Hashtbl.find_opt by_file (caller.path, p ^ name) with
        | Some (_ :: _ as ids) -> Some ids
        | _ -> None)
      within
  in
  let resolve caller_id (c : Summary.call) =
    let caller = nodes.(caller_id) in
    let pick ids =
      match ids with
      | [] -> None
      | [ i ] -> Some i
      | ids ->
        let dir p = Filename.dirname p in
        let same =
          List.filter (fun i -> dir nodes.(i).Summary.path = dir caller.path) ids
        in
        let ids = if same <> [] then same else ids in
        Some (List.fold_left Stdlib.min (List.hd ids) ids)
    in
    match c.callee with
    | Longident.Lident name -> (
      match same_file_candidates caller name with
      | Some ids ->
        (* latest binding at or above the mention line shadows *)
        let mention = line_of c.cloc in
        let before =
          List.filter (fun i -> line_of nodes.(i).Summary.nloc <= mention) ids
        in
        let best l =
          List.fold_left
            (fun acc i ->
              match acc with
              | None -> Some i
              | Some j ->
                if line_of nodes.(i).Summary.nloc
                   >= line_of nodes.(j).Summary.nloc
                then Some i
                else acc)
            None l
        in
        (match best before with Some i -> Some i | None -> best ids)
      | None -> None)
    | Longident.Ldot _ ->
      let rec flatten = function
        | Longident.Lident s -> [ s ]
        | Longident.Ldot (p, s) -> flatten p @ [ s ]
        | Longident.Lapply (p, _) -> flatten p
      in
      let segs = flatten c.callee in
      let rec try_splits qual = function
        | [] -> None
        | m :: above_rev -> (
          match pick (Option.value ~default:[] (Hashtbl.find_opt by_key (m, qual))) with
          | Some i -> Some i
          | None -> try_splits (m ^ "." ^ qual) above_rev)
      in
      (match List.rev segs with
       | name :: mods_rev -> (
         match mods_rev with
         | [] -> None
         | m :: above -> try_splits (m ^ "." ^ name) above
           |> (function
               | Some i -> Some i
               | None -> try_splits name (m :: above)))
       | [] -> None)
    | Longident.Lapply _ -> None
  in
  let edges = Array.make (Array.length nodes) [] in
  Array.iteri
    (fun i n ->
      let seen : (int, edge) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (c : Summary.call) ->
          match resolve i c with
          | None -> ()
          | Some j ->
            let hot = not c.Summary.cguarded in
            (* [min_args]: fewest non-optional args over the unguarded
               real applications of this target — what the partial-
               application check in R9 looks at; -1 if only mentioned *)
            let margs = if hot then c.Summary.args else -1 in
            (match Hashtbl.find_opt seen j with
             | None ->
               Hashtbl.replace seen j
                 { target = j; eloc = c.Summary.cloc; hot; min_args = margs }
             | Some e ->
               let min_args =
                 if margs >= 0 && (e.min_args < 0 || margs < e.min_args) then
                   margs
                 else e.min_args
               in
               let eloc, hot =
                 if hot && not e.hot then (c.Summary.cloc, true)
                 else (e.eloc, e.hot)
               in
               Hashtbl.replace seen j { target = j; eloc; hot; min_args }))
        n.Summary.calls;
      edges.(i) <-
        List.sort
          (fun a b -> compare a.target b.target)
          (Hashtbl.fold (fun _ e acc -> e :: acc) seen []))
    nodes;
  { nodes; edges }

let dump t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i (n : Summary.node) ->
      Buffer.add_string buf
        (Printf.sprintf "%s (%s:%d)%s\n" (Summary.display n) n.path
           (line_of n.nloc)
           (if n.alloc_free_root then " [alloc-free root]" else ""));
      List.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf "  -> %s%s\n"
               (Summary.display t.nodes.(e.target))
               (if e.hot then "" else " (guarded)")))
        t.edges.(i))
    t.nodes;
  Buffer.contents buf
