let needs_quotes s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n') s

let escape s =
  if needs_quotes s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let write_rows ~path ~header rows =
  let oc = open_out path in
  let emit row =
    output_string oc (String.concat "," (List.map escape row));
    output_char oc '\n'
  in
  (try
     emit header;
     List.iter emit rows
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let write_series ~path ~columns rows =
  let width = List.length columns in
  let render row =
    if List.length row <> width then
      invalid_arg "Csv.write_series: row width mismatch";
    List.map (Printf.sprintf "%.6g") row
  in
  write_rows ~path ~header:columns (List.map render rows)
