type value = Int of int | Float of float | Bool of bool | String of string

type param = {
  key : string;
  default : value;
  doc : string;
  domain : string;
  accepts : value -> bool;
}

type t = { name : string; doc : string; params : param list }

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.12g" f
  | Bool b -> string_of_bool b
  | String s -> s

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Bool _ -> "bool"
  | String _ -> "string"

let parse_value ~like s =
  let fail () =
    invalid_arg
      (Printf.sprintf "Spec.parse_value: %S is not a valid %s" s
         (type_name like))
  in
  match like with
  | Int _ -> (
    match int_of_string_opt s with Some i -> Int i | None -> fail ())
  | Float _ -> (
    match float_of_string_opt s with Some f -> Float f | None -> fail ())
  | Bool _ -> (
    match bool_of_string_opt s with Some b -> Bool b | None -> fail ())
  | String _ -> String s

(* --- domains ------------------------------------------------------------- *)

type 'a domain = {
  describe : string;
  inject : 'a -> value;
  project : value -> 'a option;
  accepts : value -> bool;
}

let domain describe inject project mem =
  let accepts v = match project v with Some x -> mem x | None -> false in
  { describe; inject; project; accepts }

let ints describe mem =
  domain describe (fun i -> Int i) (function Int i -> Some i | _ -> None) mem

(* Every float domain is finite: no event loop reaches an infinite time,
   and NaN fails every comparison a scenario makes. *)
let floats describe mem =
  let project = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
  in
  domain describe (fun f -> Float f) project (fun f ->
      Float.is_finite f && mem f)

let int_at_least lo = ints (Printf.sprintf "int >= %d" lo) (fun i -> i >= lo)
let even_int = ints "even int >= 2" (fun i -> i >= 2 && i mod 2 = 0)
let positive = floats "finite > 0" (fun f -> f > 0.)
let at_least lo = floats (Printf.sprintf "finite >= %g" lo) (fun f -> f >= lo)
let probability = floats "[0, 1)" (fun p -> p >= 0. && p < 1.)

let bool =
  domain "bool"
    (fun b -> Bool b)
    (function Bool b -> Some b | _ -> None)
    (Fun.const true)

let names describe mem =
  domain describe
    (fun s -> String s)
    (function String s -> Some s | _ -> None)
    mem

(* --- terms --------------------------------------------------------------- *)

type bindings = (string * value) list

type 'a term = { params : param list; decode : bindings -> 'a }

(* [decode] below validates every binding against the term's parameters
   before the term reads one, so [project] cannot fail here. *)
let param d key default doc =
  let project = d.project in
  {
    params =
      [
        {
          key;
          default = d.inject default;
          doc;
          domain = d.describe;
          accepts = d.accepts;
        };
      ];
    decode =
      (fun b ->
        match List.assoc_opt key b with
        | None -> default
        | Some v -> Option.get (project v));
  }

(* The decoders close over decoders only, so a composed term keeps one
   parameter list, not one per [and+]. *)
let ( let+ ) t f =
  let decode = t.decode in
  { params = t.params; decode = (fun b -> f (decode b)) }

let ( and+ ) a b =
  let da = a.decode and db = b.decode in
  { params = a.params @ b.params; decode = (fun bs -> (da bs, db bs)) }

let make ~name ~doc term : t = { name; doc; params = term.params }

(* --- bindings ------------------------------------------------------------ *)

let find (t : t) key =
  match List.find_opt (fun p -> p.key = key) t.params with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "%s has no parameter %S (valid: %s)" t.name key
         (String.concat ", " (List.map (fun p -> p.key) t.params)))

let get t bindings key =
  let p = find t key in
  match List.assoc_opt key bindings with
  | Some v -> v
  | None -> p.default

let validate (t : t) bindings =
  List.iter
    (fun (key, v) ->
      let p = find t key in
      if not (p.accepts v) then
        invalid_arg
          (Printf.sprintf "%s: %s = %s is outside its domain %s" t.name key
             (value_to_string v) p.domain))
    bindings

let below (k1, v1) (k2, v2) =
  if v1 < v2 then None
  else Some (Printf.sprintf "%s = %g must be below %s = %g" k1 v1 k2 v2)

let decode (t : t) term ~rules bindings =
  validate { t with params = term.params } bindings;
  let x = term.decode bindings in
  List.iter
    (fun rule ->
      Option.iter (fun msg -> invalid_arg (t.name ^ ": " ^ msg)) (rule x))
    rules;
  x

let parse_assign (t : t) s =
  match String.index_opt s '=' with
  | None ->
    invalid_arg
      (Printf.sprintf "%s: expected key=value, got %S" t.name s)
  | Some i ->
    let key = String.sub s 0 i in
    let raw = String.sub s (i + 1) (String.length s - i - 1) in
    let p = find t key in
    (key, parse_value ~like:p.default raw)

let json_of_value : value -> Repro_stats.Json.t = function
  | Int i -> Repro_stats.Json.Int i
  | Float f -> Repro_stats.Json.Float f
  | Bool b -> Repro_stats.Json.Bool b
  | String s -> Repro_stats.Json.String s

let to_json (t : t) bindings =
  Repro_stats.Json.Obj
    (List.map
       (fun p -> (p.key, json_of_value (get t bindings p.key)))
       t.params)
