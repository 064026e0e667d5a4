type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 || Char.code c = 0x7f ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest representation that still round-trips *)
    let s = Printf.sprintf "%.12g" f in
    let s =
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
    in
    (* keep the token float-typed, so parsing the document back yields
       [Float 1.] for [Float 1.], not [Int 1] *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        emit b item)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  emit b j;
  Buffer.contents b

let to_channel oc j =
  output_string oc (to_string j);
  output_char oc '\n'

let write ~path j =
  let oc = open_out path in
  (try to_channel oc j
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

(* --- parsing ------------------------------------------------------- *)

exception Parse_error of int * string

let parse_fail pos msg = raise (Parse_error (pos, msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' ->
      parse_fail !pos (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> parse_fail !pos (Printf.sprintf "expected '%c', found end" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then (
      pos := !pos + m;
      v)
    else parse_fail !pos ("invalid literal, expected " ^ word)
  in
  (* codepoint -> UTF-8 bytes; surrogate pairs are combined by the caller *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f))))
    else if cp < 0x10000 then (
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f))))
    else (
      Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f))))
  in
  let hex4 () =
    if !pos + 4 > n then parse_fail !pos "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> parse_fail !pos "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents b
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> parse_fail !pos "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let cp = hex4 () in
            let cp =
              (* high surrogate: a \uXXXX low surrogate must follow *)
              if cp >= 0xd800 && cp <= 0xdbff then
                if
                  !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then (
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
                  else parse_fail !pos "invalid low surrogate")
                else parse_fail !pos "unpaired high surrogate"
              else cp
            in
            add_utf8 b cp
          | c -> parse_fail !pos (Printf.sprintf "bad escape '\\%c'" c)));
        loop ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () =
      match peek () with Some ('0' .. '9') -> true | _ -> false
    in
    while is_digit () do
      advance ()
    done;
    let is_float = ref false in
    if peek () = Some '.' then (
      is_float := true;
      advance ();
      while is_digit () do
        advance ()
      done);
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      while is_digit () do
        advance ()
      done
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> parse_fail start ("bad number " ^ tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        (* integer token too large for an int: keep it as a float *)
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> parse_fail start ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_fail !pos "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (
        advance ();
        List [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> parse_fail !pos "expected ',' or ']'"
        in
        items []
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (
        advance ();
        Obj [])
      else
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev (kv :: acc))
          | _ -> parse_fail !pos "expected ',' or '}'"
        in
        fields []
    | Some c -> parse_fail !pos (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then parse_fail !pos "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)
