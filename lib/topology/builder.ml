open Repro_netsim

type t = {
  sim : Sim.t;
  rng : Rng.t;
  names : (string, int) Hashtbl.t;
  mutable nodes : string list;  (* reversed *)
  mutable links : (int * int * Duplex.t) list;
  mutable graph : Duplex.t Graph.t option;  (* rebuilt lazily *)
}

let create ~sim ~rng () =
  {
    sim;
    rng;
    names = Hashtbl.create 16;
    nodes = [];
    links = [];
    graph = None;
  }

let add_node t name =
  if Hashtbl.mem t.names name then
    invalid_arg ("Builder.add_node: duplicate node " ^ name);
  Hashtbl.add t.names name (Hashtbl.length t.names);
  t.nodes <- name :: t.nodes;
  t.graph <- None

let node_count t = Hashtbl.length t.names

let vertex t name =
  match Hashtbl.find_opt t.names name with
  | Some v -> v
  | None -> invalid_arg ("Builder: unknown node " ^ name)

let link t a b ~rate_mbps ~delay_ms =
  let u = vertex t a and v = vertex t b in
  let rate_bps = rate_mbps *. 1e6 in
  let duplex =
    Duplex.create ~sim:t.sim ~rng:(Rng.split t.rng) ~rate_bps
      ~delay:(delay_ms /. 1000.)
      ~buffer_pkts:(Stdlib.max 50 (int_of_float (300. *. rate_bps /. 10e6)))
      ~discipline:(Queue.Red (Queue.paper_red ~link_mbps:rate_mbps))
      ~name:(a ^ "-" ^ b) ()
  in
  t.links <- (u, v, duplex) :: t.links;
  t.graph <- None

let graph t =
  match t.graph with
  | Some g -> g
  | None ->
    let g = Graph.create ~vertices:(Stdlib.max 1 (node_count t)) in
    List.iter
      (fun (u, v, duplex) -> ignore (Graph.add_edge g ~u ~v duplex))
      (List.rev t.links);
    t.graph <- Some g;
    g

let queue t a b =
  let u = vertex t a and v = vertex t b in
  let g = graph t in
  match Graph.find_edge g ~u ~v with
  | None -> raise Not_found
  | Some e ->
    let eu, _ = Graph.edge_endpoints g e in
    let duplex = Graph.edge_payload g e in
    if eu = u then Duplex.fwd_queue duplex else Duplex.rev_queue duplex

(* A graph route becomes a Tcp.path: forward hops in order, reverse hops
   mirrored, each leg using the duplex direction it traverses. *)
let assemble g hops =
  let fwd =
    List.concat_map
      (fun { Graph.edge; from_u_to_v } ->
        let duplex = Graph.edge_payload g edge in
        Array.to_list
          (if from_u_to_v then Duplex.fwd_hops duplex
           else Duplex.rev_hops duplex))
      hops
  in
  let rev =
    List.concat_map
      (fun { Graph.edge; from_u_to_v } ->
        let duplex = Graph.edge_payload g edge in
        Array.to_list
          (if from_u_to_v then Duplex.rev_hops duplex
           else Duplex.fwd_hops duplex))
      (List.rev hops)
  in
  { Tcp.fwd = Array.of_list fwd; rev = Array.of_list rev }

let path t ~src ~dst =
  if src = dst then invalid_arg "Builder.path: src = dst";
  let g = graph t in
  match Graph.shortest_path g ~src:(vertex t src) ~dst:(vertex t dst) with
  | None | Some [] -> raise Not_found
  | Some hops -> assemble g hops

let paths t ~src ~dst ?(disjoint = false) ~k () =
  if src = dst then invalid_arg "Builder.paths: src = dst";
  let g = graph t in
  let u = vertex t src and v = vertex t dst in
  let routes =
    if disjoint then
      let all = Graph.edge_disjoint_paths g ~src:u ~dst:v in
      List.filteri (fun i _ -> i < k) all
    else Graph.k_shortest_paths g ~src:u ~dst:v ~k
  in
  Array.of_list (List.map (assemble g) routes)
