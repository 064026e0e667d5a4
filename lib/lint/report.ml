let to_text ~files findings =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_string f);
      Buffer.add_char b '\n')
    findings;
  (match findings with
   | [] ->
     Buffer.add_string b
       (Printf.sprintf "olia_lint: %d files clean (rules %s)\n" files
          Finding.waivable)
   | _ ->
     Buffer.add_string b
       (Printf.sprintf "olia_lint: %d finding%s in %d files\n"
          (List.length findings)
          (if List.length findings = 1 then "" else "s")
          files));
  Buffer.contents b

let to_json ~files findings =
  Repro_stats.Json.Obj
    [
      ("files", Repro_stats.Json.Int files);
      ("count", Repro_stats.Json.Int (List.length findings));
      ("clean", Repro_stats.Json.Bool (findings = []));
      ( "findings",
        Repro_stats.Json.List (List.map Finding.to_json findings) );
    ]

(* Minimal SARIF 2.1.0 for code-scanning upload. One run, one driver,
   one rule entry per rule id that actually fired; columns are
   SARIF-style 1-based while findings carry compiler-style 0-based. *)
let to_sarif findings =
  let open Repro_stats.Json in
  let rules_fired =
    List.sort_uniq Stdlib.compare (List.map (fun f -> f.Finding.rule) findings)
  in
  let rule_obj r =
    Obj
      [
        ("id", String (Finding.rule_name r));
        ( "shortDescription",
          Obj [ ("text", String (Finding.rule_doc r)) ] );
      ]
  in
  let result f =
    Obj
      [
        ("ruleId", String (Finding.rule_name f.Finding.rule));
        ("level", String "error");
        ("message", Obj [ ("text", String f.Finding.message) ]);
        ( "locations",
          List
            [
              Obj
                [
                  ( "physicalLocation",
                    Obj
                      [
                        ( "artifactLocation",
                          Obj [ ("uri", String f.Finding.file) ] );
                        ( "region",
                          Obj
                            [
                              ("startLine", Int f.Finding.line);
                              ("startColumn", Int (f.Finding.col + 1));
                            ] );
                      ] );
                ];
            ] );
      ]
  in
  Obj
    [
      ( "$schema",
        String
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", String "2.1.0");
      ( "runs",
        List
          [
            Obj
              [
                ( "tool",
                  Obj
                    [
                      ( "driver",
                        Obj
                          [
                            ("name", String "olia_lint");
                            ( "informationUri",
                              String "https://example.invalid/olia_lint" );
                            ("rules", List (List.map rule_obj rules_fired));
                          ] );
                    ] );
                ("results", List (List.map result findings));
              ];
          ] );
    ]
