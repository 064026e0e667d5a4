type directive = { line : int; file_wide : bool; rules : Finding.rule list }
type t = { directives : directive list; invalid : Finding.t list }

(* Index of [sub] in [s] at or after [from], if any. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun w -> w <> "")

(* Parse the directive body, i.e. the text strictly between the
   ["(* lint:"] marker and ["*)"]. *)
let parse_body ~file ~line body =
  let invalid msg = Error (Finding.v ~rule:Suppress ~file ~line ~col:0 msg) in
  let head, reason =
    match find_sub body "--" 0 with
    | None -> (body, None)
    | Some i ->
      ( String.sub body 0 i,
        Some
          (String.trim
             (String.sub body (i + 2) (String.length body - i - 2))) )
  in
  match split_words head with
  | [] -> invalid "empty lint directive (expected allow or allow-file)"
  | verb :: ids ->
    let file_wide =
      match verb with
      | "allow" -> Some false
      | "allow-file" -> Some true
      | _ -> None
    in
    (match file_wide with
     | None ->
       invalid
         (Printf.sprintf "unknown lint directive %S (expected allow or \
                          allow-file)" verb)
     | Some file_wide ->
       let rules = List.map Finding.rule_of_name ids in
       if ids = [] then invalid "lint directive lists no rule ids"
       else if List.mem None rules then
         invalid
           (Printf.sprintf "unknown rule id in lint directive (waivable \
                            rules are %s): %s"
              Finding.waivable (String.concat " " ids))
       else (
         match reason with
         | None | Some "" ->
           invalid
             "suppression without a reason (write: (* lint: allow R3 -- \
              why it is safe *))"
         | Some _ ->
           Ok { line; file_wide; rules = List.filter_map Fun.id rules }))

(* A minimal lexer pass: directives are only recognized where a real
   comment opens in code position — ["(* lint:"] inside a string
   literal, or nested inside another comment (e.g. an example in a doc
   comment), is plain text. String escapes, char literals like ['"']
   and quoted strings ([{|...|}], [{id|...|id}]) are handled; strings
   inside comments are not, which is fine for sources this linter
   accepts. *)
let scan ~file content =
  let directives = ref [] and invalid = ref [] in
  let n = String.length content in
  let line = ref 1 in
  let marker = " lint:" in
  let starts_with i sub =
    i + String.length sub <= n && String.sub content i (String.length sub) = sub
  in
  let line_end i =
    match String.index_from_opt content i '\n' with
    | Some j -> j
    | None -> n
  in
  (* [i] is the current scan position; [depth] the comment nesting. *)
  let rec code i =
    if i >= n then ()
    else
      match content.[i] with
      | '\n' ->
        incr line;
        code (i + 1)
      | '"' -> string (i + 1)
      | '\'' when i + 2 < n && content.[i + 1] <> '\\' && content.[i + 2] = '\''
        ->
        code (i + 3)
      | '\'' when i + 3 < n && content.[i + 1] = '\\' && content.[i + 3] = '\''
        ->
        code (i + 4)
      | '(' when starts_with i "(*" ->
        if starts_with (i + 2) marker then directive (i + 2 + String.length marker) i
        else comment (i + 2) 1
      | '{' -> (
        (* quoted-string literal {|...|} or {id|...|id} *)
        match quoted_open (i + 1) with
        | Some (id, j) -> quoted id j
        | None -> code (i + 1))
      | _ -> code (i + 1)
  and quoted_open i =
    let rec ident j =
      if j < n && (content.[j] = '_' || (content.[j] >= 'a' && content.[j] <= 'z'))
      then ident (j + 1)
      else j
    in
    let stop = ident i in
    if stop < n && content.[stop] = '|' then
      Some (String.sub content i (stop - i), stop + 1)
    else None
  and quoted id i =
    let close = "|" ^ id ^ "}" in
    if i >= n then ()
    else if starts_with i close then code (i + String.length close)
    else (
      if content.[i] = '\n' then incr line;
      quoted id (i + 1))
  and string i =
    if i >= n then ()
    else
      match content.[i] with
      | '\\' ->
        (* a backslash-newline continuation still ends the line *)
        if i + 1 < n && content.[i + 1] = '\n' then incr line;
        string (i + 2)
      | '"' -> code (i + 1)
      | '\n' ->
        incr line;
        string (i + 1)
      | _ -> string (i + 1)
  and comment i depth =
    if i >= n then ()
    else if starts_with i "(*" then comment (i + 2) (depth + 1)
    else if starts_with i "*)" then
      if depth = 1 then code (i + 2) else comment (i + 2) (depth - 1)
    else (
      if content.[i] = '\n' then incr line;
      comment (i + 1) depth)
  and directive body_start open_pos =
    let open_col =
      match String.rindex_from_opt content (Stdlib.max 0 (open_pos - 1)) '\n' with
      | Some j -> open_pos - j - 1
      | None -> open_pos
    in
    let stop = line_end body_start in
    match find_sub (String.sub content 0 stop) "*)" body_start with
    | None ->
      invalid :=
        Finding.v ~rule:Suppress ~file ~line:!line ~col:open_col
          "lint directive must open and close on one line"
        :: !invalid;
      (* resynchronize as an ordinary comment *)
      comment body_start 1
    | Some close ->
      (match
         parse_body ~file ~line:!line
           (String.sub content body_start (close - body_start))
       with
       | Ok d -> directives := d :: !directives
       | Error f -> invalid := f :: !invalid);
      code (close + 2)
  in
  code 0;
  { directives = List.rev !directives; invalid = List.rev !invalid }

let invalid t = t.invalid

let permits_line t rule line =
  match rule with
  | Finding.Parse | Finding.Suppress -> false
  | rule ->
    List.exists
      (fun d ->
        List.mem rule d.rules
        && (d.file_wide || line = d.line || line = d.line + 1))
      t.directives

let permits t (f : Finding.t) = permits_line t f.Finding.rule f.Finding.line
