type t = {
  metrics : (string * float) list;
  arrays : (string * float array) list;
}

let of_metrics ?(arrays = []) metrics = { metrics; arrays }
let add_metrics t extra = { t with metrics = t.metrics @ extra }

let metric_opt t name = List.assoc_opt name t.metrics

let metric_names t = List.map fst t.metrics

let lookup what fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Outcome.%s: no %s %S (available: %s)" what what name
         (String.concat ", " (List.map fst fields)))

let metric t = lookup "metric" t.metrics
let array t = lookup "array" t.arrays

let to_json t =
  let open Repro_stats.Json in
  let metrics =
    ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) t.metrics))
  in
  match t.arrays with
  | [] -> Obj [ metrics ]
  | arrays ->
    Obj
      [
        metrics;
        ( "arrays",
          Obj
            (List.map
               (fun (k, a) ->
                 (k, List (Array.to_list (Array.map (fun v -> Float v) a))))
               arrays) );
      ]

let of_json json =
  let open Repro_stats.Json in
  let bad j = invalid_arg ("not an outcome field: " ^ to_string j) in
  let number = function
    | Float v -> v
    | Int i -> float_of_int i
    | Null -> Float.nan
    | j -> bad j
  in
  let array = function List l -> Array.of_list (List.map number l) | j -> bad j in
  let section f = function
    | Some (Obj kv) -> List.map (fun (k, v) -> (k, f v)) kv
    | None -> []
    | Some j -> bad j
  in
  match json with
  | Obj fields -> (
    try
      Ok
        {
          metrics = section number (List.assoc_opt "metrics" fields);
          arrays = section array (List.assoc_opt "arrays" fields);
        }
    with Invalid_argument e -> Error e)
  | j -> Error ("not an outcome: " ^ to_string j)

type field_diff = {
  field : string;
  values : int;
  differing : int;
  max_abs_diff : float;
}

let shard_dependent = [ "cut_messages"; "obs_max_heap_depth" ]

let bitwise_diff ~exempt a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let diff field x y =
    match (x, y) with
    | Some x, Some y when Array.length x = Array.length y ->
      let differing = ref 0 and worst = ref 0. in
      Array.iter2
        (fun x y ->
          if not (same x y) then begin
            incr differing;
            worst := Float.max !worst (Float.abs (x -. y))
          end)
        x y;
      { field; values = Array.length x; differing = !differing;
        max_abs_diff = !worst }
    | x, y ->
      let len = Option.fold ~none:0 ~some:Array.length in
      let values = Int.max (len x) (len y) in
      { field; values; differing = values; max_abs_diff = Float.infinity }
  in
  let fields la lb =
    List.fold_left
      (fun acc (name, _) ->
        if List.mem name exempt || List.mem_assoc name acc then acc
        else
          (name, diff name (List.assoc_opt name la) (List.assoc_opt name lb))
          :: acc)
      [] (la @ lb)
    |> List.rev_map snd
  in
  let scalars t = List.map (fun (k, v) -> (k, [| v |])) t.metrics in
  fields (scalars a) (scalars b) @ fields a.arrays b.arrays
