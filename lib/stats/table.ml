type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  let ncols = List.length t.columns in
  let n = List.length row in
  if n > ncols then invalid_arg "Table.add_row: too many cells";
  let padded =
    if n = ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  t.rows <- padded :: t.rows

let add_float_row t label xs =
  add_row t (label :: List.map (fun x -> Printf.sprintf "%.4g" x) xs);
  t

let widths t =
  let rows = t.columns :: List.rev t.rows in
  let ncols = List.length t.columns in
  let w = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> if String.length cell > w.(i) then w.(i) <- String.length cell)
      row
  in
  List.iter measure rows;
  w

let render_row w row =
  let cells =
    List.mapi
      (fun i cell -> Printf.sprintf "%-*s" w.(i) cell)
      row
  in
  String.concat "  " cells

let to_string t =
  let w = widths t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let header = render_row w t.columns in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length header) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row w row);
      Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf

let rows t = List.rev t.rows

let to_csv t ~path =
  Csv.write_rows ~path ~header:t.columns (rows t)

let print t =
  output_string stdout (to_string t);
  flush stdout
