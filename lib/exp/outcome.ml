type t = {
  metrics : (string * float) list;
  arrays : (string * float array) list;
}

let of_metrics ?(arrays = []) metrics = { metrics; arrays }
let add_metrics t extra = { t with metrics = t.metrics @ extra }

let metric_opt t name = List.assoc_opt name t.metrics

let metric_names t = List.map fst t.metrics

let metric t name =
  match metric_opt t name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Outcome.metric: no metric %S (available: %s)" name
         (String.concat ", " (metric_names t)))

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

type field_diff = { field : string; values : int; differing : int }

let shard_dependent = [ "cut_messages"; "obs_max_heap_depth" ]

let bitwise_diff ~exempt a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let diff field x y =
    match (x, y) with
    | Some x, Some y when Array.length x = Array.length y ->
      let differing = ref 0 in
      Array.iter2 (fun x y -> if not (same x y) then incr differing) x y;
      { field; values = Array.length x; differing = !differing }
    | x, y ->
      let len = Option.fold ~none:0 ~some:Array.length in
      let values = Int.max (len x) (len y) in
      { field; values; differing = values }
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
