(* lint: allow-file R1 -- wall-clock profiling of the event-loop harness; simulation results never read these values *)

(* Event-loop profiler. Same guard discipline as Trace: [enabled] is a
   single ref read, and [Sim.schedule_at] only wraps a callback in
   [dispatch] when profiling was armed at scheduling time, so the
   profiling-off path costs one ref read per schedule and nothing per
   dispatch. Attribution is by the [~src] label every scheduling site
   passes (e.g. "queue.serve", "tcp.rto").

   Accumulators are per-domain: each domain gets its own table from
   domain-local storage, so dispatch never takes a lock. Workers in a
   sharded run [bind ~shard] their domain so the per-shard breakdown
   can name shards; unbound domains pool under shard [-1]. The global
   registry (for the offline rollup) is only touched when a domain
   first creates its table. *)

(* lint: allow R2 -- process-global profiler switch, armed once by the CLI or test setup before the profiled run starts *)
let armed = ref false

type cell = { mutable count : int; mutable wall_s : float }

type dom_table = {
  mutable shard : int;
  reg : int; (* registration order, the deterministic fold order *)
  tbl : (string, cell) Hashtbl.t;
}

let lock = Mutex.create ()

(* lint: allow R2 -- registry of per-domain tables in registration order, appended under [lock] at table creation, read offline by report *)
let registry : dom_table list ref = ref []

(* lint: allow R2 -- registration counter for [registry], bumped under [lock] *)
let reg_count = ref 0

let fresh_table shard =
  let t =
    Mutex.protect lock (fun () ->
        let t = { shard; reg = !reg_count; tbl = Hashtbl.create 16 } in
        incr reg_count;
        registry := t :: !registry;
        t)
  in
  t

let key : dom_table option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_table () =
  let slot = Domain.DLS.get key in
  match !slot with
  | Some t -> t
  | None ->
    let t = fresh_table (-1) in
    slot := Some t;
    t

let bind ~shard =
  let slot = Domain.DLS.get key in
  match !slot with
  | Some t -> t.shard <- shard
  | None -> slot := Some (fresh_table shard)

let enabled () = !armed
let set_enabled b = armed := b

let reset () =
  Mutex.protect lock (fun () ->
      List.iter (fun t -> Hashtbl.reset t.tbl) !registry)

let dispatch ~src fn =
  let t0 = Unix.gettimeofday () in
  fn ();
  let dt = Unix.gettimeofday () -. t0 in
  let tbl = (my_table ()).tbl in
  let cell =
    match Hashtbl.find_opt tbl src with
    | Some c -> c
    | None ->
      let c = { count = 0; wall_s = 0. } in
      Hashtbl.add tbl src c;
      c
  in
  cell.count <- cell.count + 1;
  cell.wall_s <- cell.wall_s +. dt

type entry = { src : string; count : int; wall_s : float }

(* Hottest first; ties (e.g. all-zero wall on a coarse clock) break
   alphabetically so the rendering is stable. *)
let sort_entries entries =
  List.sort
    (fun a b ->
      match compare b.wall_s a.wall_s with
      | 0 -> String.compare a.src b.src
      | c -> c)
    entries

(* Snapshot the registry in registration order so the float summation
   order below is deterministic for a given run shape. *)
let tables () =
  Mutex.protect lock (fun () ->
      List.sort (fun a b -> Int.compare a.reg b.reg) !registry)

let fold_tables ts =
  let acc : (string, cell) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun src (c : cell) ->
          match Hashtbl.find_opt acc src with
          | Some a ->
            a.count <- a.count + c.count;
            a.wall_s <- a.wall_s +. c.wall_s
          | None -> Hashtbl.add acc src { count = c.count; wall_s = c.wall_s })
        t.tbl)
    ts;
  Hashtbl.fold
    (fun src (c : cell) acc -> { src; count = c.count; wall_s = c.wall_s } :: acc)
    acc []

let report () = sort_entries (fold_tables (tables ()))

(* Per-shard breakdown: tables sharing a shard id merge (a domain that
   ran several windows, or rebound); shards ascend, unbound domains
   ([-1]) first. *)
let report_by_shard () =
  let ts = tables () in
  let shards = List.sort_uniq Int.compare (List.map (fun t -> t.shard) ts) in
  List.map
    (fun s ->
      (s, sort_entries (fold_tables (List.filter (fun t -> t.shard = s) ts))))
    shards

let to_table entries =
  let total_wall = List.fold_left (fun acc e -> acc +. e.wall_s) 0. entries in
  let table =
    Repro_stats.Table.create ~title:"event-loop profile"
      ~columns:[ "source"; "dispatches"; "wall_ms"; "wall_%" ]
  in
  List.iter
    (fun e ->
      Repro_stats.Table.add_row table
        [
          e.src;
          string_of_int e.count;
          Printf.sprintf "%.3f" (e.wall_s *. 1e3);
          (if total_wall > 0. then
             Printf.sprintf "%.1f" (100. *. e.wall_s /. total_wall)
           else "-");
        ])
    entries;
  table

let to_shard_table by_shard =
  let table =
    Repro_stats.Table.create ~title:"event-loop profile (per shard)"
      ~columns:[ "shard"; "source"; "dispatches"; "wall_ms" ]
  in
  List.iter
    (fun (shard, entries) ->
      let shard_name = if shard < 0 then "-" else string_of_int shard in
      List.iter
        (fun e ->
          Repro_stats.Table.add_row table
            [
              shard_name;
              e.src;
              string_of_int e.count;
              Printf.sprintf "%.3f" (e.wall_s *. 1e3);
            ])
        entries)
    by_shard;
  table

(* OLIA_PROFILE=1 (or true/yes/on) arms the profiler at startup and
   dumps the per-source table to stderr at exit, so any binary can be
   profiled without CLI plumbing. *)
let () =
  match Sys.getenv_opt "OLIA_PROFILE" with
  | None | Some "" | Some "0" -> ()
  | Some _ ->
    armed := true;
    at_exit (fun () ->
        match report () with
        | [] -> ()
        | entries ->
          prerr_string (Repro_stats.Table.to_string (to_table entries)))
