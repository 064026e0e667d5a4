(* Machine-readable perf snapshots (BENCH_*.json) and the regression
   gate CI runs on them. A snapshot is a flat list of named entries,
   lower is better, each the median of many kernel-scaled timing
   windows plus the spread of those windows: their interquartile range
   over the median (bench/main.ml takes them).

   The gate derives each entry's tolerance from the spread the baseline
   recorded for it, by one formula and with no tolerance set by hand:

     tolerance = max floor spread,  floor = 12%

   so a current median fails when it lies above the baseline median by
   more than the middle half of the baseline's own windows spans, and
   by more than 12%. An entry whose spread exceeds twice the floor is
   recorded ungated: its gate could not tell a slowdown of twice the
   size the floor is set for from noise. *)

module Json = Repro_stats.Json

let schema = "olia-bench/2"
let floor = 0.12

type entry = {
  name : string;
  median : float;
  spread : float;
  units : string;
  gated : bool;
}

type t = entry list

let entry ~name ~median ~spread ~units =
  { name; median; spread; units; gated = spread <= 2. *. floor }

let tolerance e = Float.max floor e.spread
let find t name = List.find_opt (fun e -> e.name = name) t

let entry_to_json e =
  Json.Obj
    [
      ("name", Json.String e.name);
      ("median", Json.Float e.median);
      ("spread", Json.Float e.spread);
      ("units", Json.String e.units);
      ("gated", Json.Bool e.gated);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("entries", Json.List (List.map entry_to_json t));
    ]

let ( let* ) = Result.bind

let entry_of_json = function
  | Json.Obj fields ->
    let* name =
      match List.assoc_opt "name" fields with
      | Some (Json.String s) -> Ok s
      | _ -> Error "entry missing string \"name\""
    in
    let number key =
      match List.assoc_opt key fields with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | Some Json.Null -> Ok nan
      | _ -> Error (Printf.sprintf "entry %S missing numeric %S" name key)
    in
    let* median = number "median" in
    let* spread = number "spread" in
    let* units =
      match List.assoc_opt "units" fields with
      | Some (Json.String s) -> Ok s
      | _ -> Error (Printf.sprintf "entry %S missing string \"units\"" name)
    in
    (* "gated" is written for the reader; it is derived again here, so
       no file can ungate an entry by hand *)
    Ok (entry ~name ~median ~spread ~units)
  | _ -> Error "snapshot entry is not a JSON object"

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

let of_json = function
  | Json.Obj fields -> (
    let* () =
      match List.assoc_opt "schema" fields with
      | Some (Json.String s) when s = schema -> Ok ()
      | Some (Json.String s) ->
        Error
          (Printf.sprintf "unsupported snapshot schema %S (expected %S)" s
             schema)
      | _ -> Error "snapshot missing \"schema\""
    in
    match List.assoc_opt "entries" fields with
    | Some (Json.List l) -> map_result entry_of_json l
    | _ -> Error "snapshot missing \"entries\" list")
  | _ -> Error "snapshot is not a JSON object"

let write ~path t = Json.write ~path (to_json t)

let read ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s ->
    let* json = Json.of_string s in
    of_json json

type verdict = Pass | Regressed | Ungated | Missing | Invalid

let verdict_name = function
  | Pass -> "ok"
  | Regressed -> "REGRESSED"
  | Ungated -> "ungated"
  | Missing -> "MISSING"
  | Invalid -> "INVALID"

type row = {
  name : string;
  baseline : float;
  current : float;
  ratio : float;
  tolerance : float;
  verdict : verdict;
}

let valid e =
  Float.is_finite e.median && e.median > 0. && Float.is_finite e.spread
  && e.spread >= 0.

(* One row per baseline entry, in baseline order. Entries only the
   current snapshot has are new work, not regressions. *)
let gate ~baseline ~current =
  List.map
    (fun (b : entry) ->
      let current, verdict =
        match find current b.name with
        | None -> (nan, Missing)
        | Some c when not (valid b && valid c) -> (c.median, Invalid)
        | Some c when not b.gated -> (c.median, Ungated)
        | Some c when c.median /. b.median > 1. +. tolerance b ->
          (c.median, Regressed)
        | Some c -> (c.median, Pass)
      in
      {
        name = b.name;
        baseline = b.median;
        current;
        ratio = current /. b.median;
        tolerance = tolerance b;
        verdict;
      })
    baseline

let failed r =
  match r.verdict with
  | Regressed | Missing | Invalid -> true
  | Pass | Ungated -> false

let regressions ~baseline ~current =
  List.filter failed (gate ~baseline ~current)
