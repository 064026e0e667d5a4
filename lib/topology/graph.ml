type 'a edge = { u : int; v : int; weight : float; payload : 'a }

type 'a t = {
  vertices : int;
  mutable edges : 'a edge array;
  mutable n_edges : int;
  mutable adj : (int * int) list array;  (* vertex -> (neighbor, edge id) *)
}

let create ~vertices =
  if vertices <= 0 then invalid_arg "Graph.create: vertices <= 0";
  {
    vertices;
    edges = [||];
    n_edges = 0;
    adj = Array.make vertices [];
  }

let vertex_count t = t.vertices
let edge_count t = t.n_edges

let check_vertex t x =
  if x < 0 || x >= t.vertices then invalid_arg "Graph: vertex out of range"

let find_edge t ~u ~v =
  check_vertex t u;
  check_vertex t v;
  List.assoc_opt v t.adj.(u)

let add_edge t ~u ~v ?(weight = 1.) payload =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if find_edge t ~u ~v <> None then invalid_arg "Graph.add_edge: parallel edge";
  let id = t.n_edges in
  if id = Array.length t.edges then begin
    let cap = Stdlib.max 16 (2 * Array.length t.edges) in
    let edges =
      Array.init cap (fun i ->
          if i < t.n_edges then t.edges.(i)
          else { u; v; weight; payload })
    in
    t.edges <- edges
  end;
  t.edges.(id) <- { u; v; weight; payload };
  t.n_edges <- t.n_edges + 1;
  t.adj.(u) <- (v, id) :: t.adj.(u);
  t.adj.(v) <- (u, id) :: t.adj.(v);
  id

let check_edge t e =
  if e < 0 || e >= t.n_edges then invalid_arg "Graph: edge out of range"

let edge_payload t e =
  check_edge t e;
  t.edges.(e).payload

let edge_endpoints t e =
  check_edge t e;
  (t.edges.(e).u, t.edges.(e).v)

type hop = { edge : int; from_u_to_v : bool }

let hop_of t ~from edge_id =
  let e = t.edges.(edge_id) in
  { edge = edge_id; from_u_to_v = e.u = from }

(* Dijkstra with an exclusion set of edges and vertices (for Yen's and
   disjoint-path computations). *)
let dijkstra t ~src ~dst ~banned_edges ~banned_vertices =
  check_vertex t src;
  check_vertex t dst;
  let dist = Array.make t.vertices infinity in
  let prev = Array.make t.vertices (-1) in
  (* prev edge id *)
  let visited = Array.make t.vertices false in
  dist.(src) <- 0.;
  let module Pq = Set.Make (struct
    type nonrec t = float * int

    let compare = compare
  end) in
  let pq = ref (Pq.singleton (0., src)) in
  let result = ref None in
  while !result = None && not (Pq.is_empty !pq) do
    let ((d, x) as min_elt) = Pq.min_elt !pq in
    pq := Pq.remove min_elt !pq;
    if x = dst then result := Some d
    else if not visited.(x) then begin
      visited.(x) <- true;
      List.iter
        (fun (y, e) ->
          if
            (not visited.(y))
            && (not (Hashtbl.mem banned_edges e))
            && not (Hashtbl.mem banned_vertices y)
          then begin
            let nd = d +. t.edges.(e).weight in
            if nd < dist.(y) then begin
              dist.(y) <- nd;
              prev.(y) <- e;
              pq := Pq.add (nd, y) !pq
            end
          end)
        t.adj.(x)
    end
  done;
  match !result with
  | None -> None
  | Some _ ->
    (* walk the prev chain back from dst *)
    let rec walk v acc =
      if v = src then acc
      else
        let e = prev.(v) in
        let edge = t.edges.(e) in
        let from = if edge.u = v then edge.v else edge.u in
        walk from (hop_of t ~from e :: acc)
    in
    Some (walk dst [])

let no_bans () = (Hashtbl.create 4, Hashtbl.create 4)

let shortest_path t ~src ~dst =
  if src = dst then Some []
  else
    let be, bv = no_bans () in
    dijkstra t ~src ~dst ~banned_edges:be ~banned_vertices:bv

let path_weight t hops =
  List.fold_left (fun acc h -> acc +. t.edges.(h.edge).weight) 0. hops

let path_vertices t ~src hops =
  let rec walk v = function
    | [] -> [ v ]
    | h :: rest ->
      let e = t.edges.(h.edge) in
      let next = if h.from_u_to_v then e.v else e.u in
      v :: walk next rest
  in
  walk src hops

(* Yen's k-shortest loop-free paths. *)
let k_shortest_paths t ~src ~dst ~k =
  if k <= 0 then []
  else if src = dst then [ [] ]
  else
    match shortest_path t ~src ~dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates = ref [] in
      (* candidate list of (weight, path); kept sorted by insertion scan *)
      let add_candidate p =
        let w = path_weight t p in
        if
          not
            (List.exists (fun (_, q) -> q = p) !candidates
            || List.mem p !accepted)
        then candidates := (w, p) :: !candidates
      in
      let rec grow () =
        if List.length !accepted >= k then ()
        else begin
          let prev_path = List.hd !accepted in
          let prev_vertices = path_vertices t ~src prev_path in
          (* spur at every position of the previous path *)
          List.iteri
            (fun i _spur_hop ->
              let root = List.filteri (fun j _ -> j < i) prev_path in
              let spur_node = List.nth prev_vertices i in
              let banned_edges = Hashtbl.create 8 in
              let banned_vertices = Hashtbl.create 8 in
              (* ban edges used by accepted paths sharing the same root *)
              List.iter
                (fun path ->
                  let proot = List.filteri (fun j _ -> j < i) path in
                  if proot = root then
                    match List.nth_opt path i with
                    | Some h -> Hashtbl.replace banned_edges h.edge ()
                    | None -> ())
                !accepted;
              (* ban root vertices except the spur node *)
              List.iteri
                (fun j v ->
                  if j < i && v <> spur_node then
                    Hashtbl.replace banned_vertices v ())
                prev_vertices;
              match
                dijkstra t ~src:spur_node ~dst ~banned_edges ~banned_vertices
              with
              | None -> ()
              | Some spur -> add_candidate (root @ spur))
            prev_path;
          match List.sort compare !candidates with
          | [] -> ()
          | (_, best) :: rest ->
            candidates := rest;
            accepted := best :: !accepted;
            grow ()
        end
      in
      grow ();
      List.sort
        (fun a b -> compare (path_weight t a) (path_weight t b))
        !accepted

let edge_disjoint_paths t ~src ~dst =
  let banned_edges = Hashtbl.create 16 in
  let banned_vertices = Hashtbl.create 4 in
  let rec take acc =
    match dijkstra t ~src ~dst ~banned_edges ~banned_vertices with
    | None -> List.rev acc
    | Some path ->
      List.iter (fun h -> Hashtbl.replace banned_edges h.edge ()) path;
      take (path :: acc)
  in
  if src = dst then [] else take []
