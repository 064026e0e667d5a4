(* olia_lint — the repo's own static-analysis pass.

   Walks every .ml/.mli under the given roots (default: lib bin bench
   test), parses them with compiler-libs and enforces the invariant
   catalogue described in docs/LINT.md: the per-file rules R1-R7 plus
   the whole-program rules R9 and R11, which run over a cross-module call
   graph built from per-binding summaries. Exit status: 0 clean,
   1 findings, 2 usage error. *)

let usage =
  "usage: olia_lint [--format text|json|sarif] [--rule ID[,ID...]] \
   [--graph-dump] [--rules] [DIR|FILE ...]"

let print_rules () =
  List.iter
    (fun r ->
      Printf.printf "%-8s %s\n" (Repro_lint.Finding.rule_name r)
        (Repro_lint.Finding.rule_doc r))
    Repro_lint.Finding.all

let () =
  let format = ref "text" in
  let rules = ref false in
  let graph_dump = ref false in
  let only_rules = ref [] in
  let roots = ref [] in
  let set_format f =
    match f with
    | "text" | "json" | "sarif" -> format := f
    | other ->
      raise
        (Arg.Bad
           (Printf.sprintf
              "olia_lint: unknown format %S (expected text, json or sarif)"
              other))
  in
  let add_only spec =
    List.iter
      (fun id ->
        match Repro_lint.Finding.rule_of_name id with
        | Some r -> only_rules := r :: !only_rules
        | None ->
          raise
            (Arg.Bad
               (Printf.sprintf
                  "olia_lint: unknown rule id %S (see --rules)" id)))
      (List.filter (fun s -> s <> "") (String.split_on_char ',' spec))
  in
  let spec =
    [
      ("--format", Arg.String set_format,
       "FMT report format: text (default), json, or sarif");
      ("--rule", Arg.String add_only,
       "IDS only report these rule ids (comma-separated, repeatable)");
      ("--graph-dump", Arg.Set graph_dump,
       " print the whole-program call graph and exit");
      ("--rules", Arg.Set rules, " print the rule catalogue and exit");
    ]
  in
  (try Arg.parse spec (fun d -> roots := d :: !roots) usage
   with Arg.Bad msg ->
     prerr_endline msg;
     exit 2);
  if !rules then (
    print_rules ();
    exit 0);
  let roots =
    match List.rev !roots with
    | [] -> [ "lib"; "bin"; "bench"; "test" ]
    | r -> r
  in
  (match List.filter (fun r -> not (Sys.file_exists r)) roots with
   | [] -> ()
   | missing ->
     Printf.eprintf "olia_lint: no such file or directory: %s\n"
       (String.concat ", " missing);
     exit 2);
  let sources = Repro_lint.Engine.read_sources roots in
  if !graph_dump then (
    print_string
      (Repro_lint.Callgraph.dump (Repro_lint.Engine.graph_of_sources sources));
    exit 0);
  let files = List.length sources in
  let findings = Repro_lint.Engine.lint_sources sources in
  let findings =
    match !only_rules with
    | [] -> findings
    | only ->
      List.filter (fun f -> List.mem f.Repro_lint.Finding.rule only) findings
  in
  (match !format with
   | "json" ->
     print_endline
       (Repro_stats.Json.to_string
          (Repro_lint.Report.to_json ~files findings))
   | "sarif" ->
     print_endline
       (Repro_stats.Json.to_string (Repro_lint.Report.to_sarif findings))
   | _ -> print_string (Repro_lint.Report.to_text ~files findings));
  exit (if findings = [] then 0 else 1)
