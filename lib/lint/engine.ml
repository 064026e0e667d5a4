type source = { path : string; content : string }

type parsed =
  | Impl of Parsetree.structure
  | Intf
  | Failed of Finding.t

let parse { path; content } =
  let lexbuf = Lexing.from_string content in
  Location.init lexbuf path;
  try
    if Filename.check_suffix path ".mli" then (
      ignore (Parse.interface lexbuf);
      Intf)
    else Impl (Parse.implementation lexbuf)
  with exn ->
    let loc, detail =
      match exn with
      | Syntaxerr.Error e -> (Syntaxerr.location_of_error e, "syntax error")
      | Lexer.Error (_, loc) -> (loc, "lexing error")
      | _ -> (Location.in_file path, Printexc.to_string exn)
    in
    let p = loc.Location.loc_start in
    Failed
      (Finding.v ~rule:Finding.Parse ~file:path ~line:p.Lexing.pos_lnum
         ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
         (Printf.sprintf "file does not parse (%s); no rule was checked"
            detail))

let rec dedup_sorted = function
  | a :: b :: rest when Finding.compare a b = 0 -> dedup_sorted (b :: rest)
  | a :: rest -> a :: dedup_sorted rest
  | [] -> []

(* Pass 1 shared by linting and [--graph-dump]: parse everything once,
   splitting into per-file parse findings and parsed structures. *)
let parse_all sources =
  List.fold_left
    (fun (structures, failures) src ->
      match parse src with
      | Failed f -> (structures, f :: failures)
      | Intf -> (structures, failures)
      | Impl structure -> ((src.path, structure) :: structures, failures))
    ([], []) sources
  |> fun (structures, failures) -> (List.rev structures, List.rev failures)

let graph_of_structures structures =
  Callgraph.build
    (List.map
       (fun (path, structure) -> (path, Summary.of_structure ~path structure))
       structures)

let graph_of_sources sources =
  let structures, _ = parse_all sources in
  graph_of_structures structures

let lint_sources sources =
  let structures, parse_failures = parse_all sources in
  (* pass 1: the per-file catalogue, R5 across files *)
  let raw =
    parse_failures
    @ List.concat_map
        (fun (path, structure) -> Rules.check_structure ~path structure)
        structures
    @ Rules.check_registry ~sources:structures
  in
  (* pass 2: summaries -> call graph -> interprocedural R9/R11 *)
  let g = graph_of_structures structures in
  let raw =
    raw
    @ Dataflow.check_alloc_free g
    @ Dataflow.check_determinism_taint g
  in
  (* Suppression: a whole-program finding is waived by a directive at
     its own site or by one at its chain's root entry point. *)
  let sup_by_file = Hashtbl.create 64 in
  List.iter
    (fun src ->
      Hashtbl.replace sup_by_file src.path
        (Suppress.scan ~file:src.path src.content))
    sources;
  let waived (f : Finding.t) =
    (match Hashtbl.find_opt sup_by_file f.Finding.file with
     | Some sup -> Suppress.permits sup f
     | None -> false)
    ||
    match f.Finding.root with
    | None -> false
    | Some (rfile, rline) -> (
      match Hashtbl.find_opt sup_by_file rfile with
      | Some sup -> Suppress.permits_line sup f.Finding.rule rline
      | None -> false)
  in
  let findings =
    List.concat_map
      (fun src ->
        let sup = Hashtbl.find sup_by_file src.path in
        Suppress.invalid sup
        @ List.filter
            (fun f -> f.Finding.file = src.path && not (waived f))
            raw)
      sources
  in
  dedup_sorted (List.sort Finding.compare findings)

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let collect_files roots =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          (* lint-fixtures hold deliberately-broken sources for the
             test suite; [dune build @lint] must not trip over them *)
          if entry <> "_build" && entry <> "lint-fixtures"
             && entry.[0] <> '.'
          then walk (Filename.concat path entry))
        (Sys.readdir path)
    else if is_source path then acc := path :: !acc
  in
  List.iter
    (fun root -> if Sys.file_exists root then walk root)
    roots;
  List.sort String.compare !acc

let read_sources roots =
  List.map
    (fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let content = really_input_string ic n in
      close_in ic;
      { path; content })
    (collect_files roots)

let lint_paths roots =
  let sources = read_sources roots in
  (List.length sources, lint_sources sources)
