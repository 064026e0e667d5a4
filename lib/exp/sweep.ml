module Summary = Repro_stats.Summary
module Json = Repro_stats.Json

type axis = { key : string; values : Spec.value list }

(* [s] read exactly as [(m, d)], [s = m * 10^-d] (a sign, digits with
   an optional fraction, an optional exponent), or [None]. *)
let decimal s =
  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let unsigned s =
    if s <> "" && (s.[0] = '-' || s.[0] = '+') then
      String.sub s 1 (String.length s - 1)
    else s
  in
  let mant, exp =
    match String.index_opt (String.lowercase_ascii s) 'e' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "0")
  in
  let ip, fp =
    match String.split_on_char '.' mant with
    | [ ip; fp ] -> (ip, fp)
    | _ -> (mant, "")
  in
  match (int_of_string_opt (ip ^ fp), int_of_string_opt exp) with
  | Some m, Some e
    when digits (unsigned ip ^ fp)
         && digits (unsigned exp)
         && e > -1000 && e < 1000 ->
    Some (m, String.length fp - e)
  | _ -> None

(* [m * 10^k] if it lies inside [±10^18], where two such values and
   their difference fit an int. *)
let rec scale m k =
  let within b = m > -b && m < b in
  if k = 0 then if within 1_000_000_000_000_000_000 then Some m else None
  else if within 100_000_000_000_000_000 then scale (10 * m) (k - 1)
  else None

(* [lo], [lo + step], ... up to [hi]. Each point runs a simulation, so
   an axis longer than [max_points] is refused before any is built. *)
let max_points = 1_000_000

let steps ~fail lo hi step =
  if step <= 0 then fail "step must be positive";
  if hi < lo then []
  else begin
    if hi - lo < 0 || (hi - lo) / step >= max_points then
      fail (Printf.sprintf "a range takes at most %d points" max_points);
    List.init (((hi - lo) / step) + 1) (fun i -> lo + (i * step))
  end

let range ~like ~key lo hi step =
  let fail msg = invalid_arg (Printf.sprintf "Sweep.axis %s: %s" key msg) in
  match like with
  | Spec.Int _ ->
    let p s =
      match int_of_string_opt s with
      | Some i -> i
      | None -> fail (Printf.sprintf "bad int %S" s)
    in
    List.map (fun v -> Spec.Int v) (steps ~fail (p lo) (p hi) (p step))
  | Spec.Float _ -> (
    (* Stepped in integers: the three numbers are read exactly and
       scaled to the most decimal places among them, and each point is
       the float nearest its own decimal text, so 0.1:0.3:0.1 ends at
       0.3 with no epsilon deciding the count. *)
    let read s =
      match decimal s with
      | Some md -> md
      | None -> fail (Printf.sprintf "bad decimal %S" s)
    in
    let nums = List.map read [ lo; hi; step ] in
    let places = List.fold_left (fun p (_, d) -> max p d) 0 nums in
    match List.map (fun (m, d) -> scale m (places - d)) nums with
    | [ Some lo; Some hi; Some step ] ->
      List.map
        (fun v ->
          Spec.Float (float_of_string (Printf.sprintf "%de-%d" v places)))
        (steps ~fail lo hi step)
    | _ -> fail "bounds and step need too many digits to step exactly")
  | _ -> fail "ranges apply to int/float parameters only"

let axis spec ~key vspec =
  let p = Spec.find spec key in
  let numeric =
    match p.Spec.default with
    | Spec.Int _ | Spec.Float _ -> true
    | _ -> false
  in
  let values =
    if numeric && String.contains vspec ':' then
      match String.split_on_char ':' vspec with
      | [ lo; hi ] -> range ~like:p.Spec.default ~key lo hi "1"
      | [ lo; hi; step ] -> range ~like:p.Spec.default ~key lo hi step
      | _ ->
        invalid_arg
          (Printf.sprintf "Sweep.axis %s: expected lo:hi[:step], got %S" key
             vspec)
    else
      List.map
        (Spec.parse_value ~like:p.Spec.default)
        (String.split_on_char ',' vspec)
  in
  if values = [] then
    invalid_arg (Printf.sprintf "Sweep.axis %s: empty axis %S" key vspec);
  { key; values }

let axis_of_assign spec s =
  match String.index_opt s '=' with
  | None ->
    invalid_arg (Printf.sprintf "Sweep.axis: expected key=values, got %S" s)
  | Some i ->
    let key = String.sub s 0 i in
    let vspec = String.sub s (i + 1) (String.length s - i - 1) in
    axis spec ~key vspec

let seed_axis n =
  if n < 1 then invalid_arg "Sweep.seed_axis: need at least one seed";
  { key = "seed"; values = List.init n (fun i -> Spec.Int (i + 1)) }

let points spec ?(fixed = []) axes =
  Spec.validate spec fixed;
  List.iter
    (fun ax ->
      ignore (Spec.find spec ax.key);
      Spec.validate spec (List.map (fun v -> (ax.key, v)) ax.values))
    axes;
  let rec cross = function
    | [] -> [ [] ]
    | ax :: rest ->
      let tails = cross rest in
      List.concat_map
        (fun v -> List.map (fun tail -> (ax.key, v) :: tail) tails)
        ax.values
  in
  List.map (fun b -> b @ fixed) (cross axes)

type point = { bindings : Spec.bindings; outcome : Outcome.t }

let run_seq (module Sc : Scenario_intf.S) pts =
  List.map (fun bindings -> { bindings; outcome = Sc.run bindings }) pts

(* The domain-pool plumbing, shared by the sweep engine and the sharded
   simulation runner (Repro_netsim.Shard takes it as its [pool]
   argument). One thunk per worker; the caller's domain runs thunk 0 so
   [n] thunks use [n - 1] spawned domains. Every domain is joined before
   returning — the join gives the caller a happens-before edge over all
   worker writes — and the first exception of any worker is re-raised
   after the pool has drained. *)
let pool thunks =
  let n = Array.length thunks in
  if n = 0 then ()
  else if n = 1 then thunks.(0) ()
  else begin
    let spawned =
      List.init (n - 1) (fun i -> Domain.spawn thunks.(i + 1))
    in
    let first_exn = ref None in
    let record e = if !first_exn = None then first_exn := Some e in
    (try thunks.(0) () with e -> record e);
    List.iter (fun d -> try Domain.join d with e -> record e) spawned;
    match !first_exn with Some e -> raise e | None -> ()
  end

let run ?domains (module Sc : Scenario_intf.S) pts_list =
  let pts = Array.of_list pts_list in
  let n = Array.length pts in
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let workers = Stdlib.max 1 (Stdlib.min requested n) in
  (* Tracing is per-worker: each domain binds its own ring (worker 0
     is the calling domain), and the decoder merges the workers' rings.
     A per-point trace is still best taken from a single `olia_sim run`. *)
  if workers <= 1 then begin
    if Repro_obs.Trace.enabled () then Repro_obs.Trace.bind_ring ~shard:0;
    run_seq (module Sc) pts_list
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker w () =
      if Repro_obs.Trace.enabled () then Repro_obs.Trace.bind_ring ~shard:w;
      Repro_obs.Profile.bind ~shard:w;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (Sc.run pts.(i));
          loop ()
        end
      in
      loop ()
    in
    pool (Array.init workers (fun w -> worker w));
    Array.to_list
      (Array.mapi
         (fun i o ->
           match o with
           | Some outcome -> { bindings = pts.(i); outcome }
           | None -> assert false)
         results)
  end

type agg = {
  group : Spec.bindings;
  n : int;
  stats : (string * (float * float)) list;
}

type agg_table = { over : string; rows : agg list }

let aggregate pts =
  let over = "seed" in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let group = List.filter (fun (k, _) -> k <> over) p.bindings in
      match Hashtbl.find_opt tbl group with
      | Some l -> l := p.outcome :: !l
      | None ->
        Hashtbl.add tbl group (ref [ p.outcome ]);
        order := group :: !order)
    pts;
  let rows =
    List.rev_map
      (fun group ->
        let outcomes = List.rev !(Hashtbl.find tbl group) in
        let names =
          match outcomes with
          | o :: _ -> Outcome.metric_names o
          | [] -> []
        in
        let stats =
          List.map
            (fun name ->
              let s =
                Summary.of_list
                  (List.map (fun o -> Outcome.metric o name) outcomes)
              in
              let sd = if Summary.count s < 2 then 0. else Summary.stdev s in
              (name, (Summary.mean s, sd)))
            names
        in
        { group; n = List.length outcomes; stats })
      !order
  in
  { over; rows }

let params_json spec ?drop bindings =
  match Spec.to_json spec bindings with
  | Json.Obj fields ->
    Json.Obj
      (match drop with
       | None -> fields
       | Some key -> List.filter (fun (k, _) -> k <> key) fields)
  | j -> j

let to_json ~spec ?aggregated pts =
  let points_json =
    List.map
      (fun p ->
        Json.Obj
          [
            ("params", params_json spec p.bindings);
            ("outcome", Outcome.to_json p.outcome);
          ])
      pts
  in
  let base =
    [
      ("scenario", Json.String spec.Spec.name);
      ("points", Json.List points_json);
    ]
  in
  let agg_fields =
    match aggregated with
    | None -> []
    | Some t ->
      let rows =
        List.map
          (fun a ->
            Json.Obj
              [
                ("params", params_json spec ~drop:t.over a.group);
                ("n", Json.Int a.n);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (name, (mean, sd)) ->
                         ( name,
                           Json.Obj
                             [
                               ("mean", Json.Float mean);
                               ("stddev", Json.Float sd);
                             ] ))
                       a.stats) );
              ])
          t.rows
      in
      [
        ( "aggregate",
          Json.Obj
            [ ("over", Json.String t.over); ("rows", Json.List rows) ] );
      ]
  in
  Json.Obj (base @ agg_fields)

let write_json ~path ~spec ?aggregated pts =
  Json.write ~path (to_json ~spec ?aggregated pts)

let fmt_float = Printf.sprintf "%.6g"

let write_csv ~path ~spec pts =
  let pkeys = List.map (fun p -> p.Spec.key) spec.Spec.params in
  let metrics =
    match pts with
    | [] -> []
    | p :: _ -> Outcome.metric_names p.outcome
  in
  let header = pkeys @ metrics in
  let rows =
    List.map
      (fun p ->
        List.map
          (fun k -> Spec.value_to_string (Spec.get spec p.bindings k))
          pkeys
        @ List.map (fun m -> fmt_float (Outcome.metric p.outcome m)) metrics)
      pts
  in
  Repro_stats.Csv.write_rows ~path ~header rows

let write_agg_csv ~path ~spec (t : agg_table) =
  let pkeys =
    List.filter
      (fun k -> k <> t.over)
      (List.map (fun p -> p.Spec.key) spec.Spec.params)
  in
  let metrics =
    match t.rows with
    | [] -> []
    | a :: _ -> List.map fst a.stats
  in
  let header =
    pkeys @ [ "n" ]
    @ List.concat_map (fun m -> [ m ^ " mean"; m ^ " stddev" ]) metrics
  in
  let rows =
    List.map
      (fun a ->
        List.map (fun k -> Spec.value_to_string (Spec.get spec a.group k)) pkeys
        @ [ string_of_int a.n ]
        @ List.concat_map
            (fun m ->
              let mean, sd = List.assoc m a.stats in
              [ fmt_float mean; fmt_float sd ])
            metrics)
      t.rows
  in
  Repro_stats.Csv.write_rows ~path ~header rows
