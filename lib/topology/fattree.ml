open Repro_netsim

type t = {
  k : int;
  group : Shard.t;
  host_links : Duplex.t array;  (* host -> its edge switch; fwd = up *)
  edge_agg : Duplex.t array array array;  (* [pod].[edge].[agg]; fwd = up *)
  agg_core : Duplex.t array array array;  (* [pod].[agg].[core-in-group]; fwd = up *)
  chans : Shard.channel option array array;  (* [src_shard].[dst_shard] *)
  pod_queues : Queue.t list array;
  core_queues : Queue.t list;
  all_queues : Queue.t list;
}

let hosts_per_pod k = k * k / 4
let shard_of ~k ~shards pod = pod * shards / k

(* The queue lists, in one pass over the pods. [core] and [all] keep the
   order of a link-by-link prepend over agg_core, then host_links, then
   edge_agg: [mean_core_loss] sums the core list in this order. *)
let queue_lists ~k host_links edge_agg agg_core =
  let core = ref [] and hosts = ref [] and edges = ref [] in
  let pods =
    Array.init k (fun pod ->
        let mine = ref [] in
        let add acc l =
          let f = Duplex.fwd_queue l and r = Duplex.rev_queue l in
          acc := f :: r :: !acc;
          mine := f :: r :: !mine
        in
        for i = pod * hosts_per_pod k to ((pod + 1) * hosts_per_pod k) - 1 do
          add hosts host_links.(i)
        done;
        Array.iter (Array.iter (add edges)) edge_agg.(pod);
        Array.iter (Array.iter (add core)) agg_core.(pod);
        !mine)
  in
  (pods, !core, !edges @ !hosts @ !core)

let create ~sim ?(shards = 1) ~rng ~k ~rate_bps ~delay ~buffer_pkts
    ~discipline ?(oversubscription = 1.) () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Fattree.create: k must be even";
  if shards < 1 || shards > k || k mod shards <> 0 then
    invalid_arg
      (Printf.sprintf
         "Fattree.create: shards must divide k (k = %d, shards = %d)" k shards);
  if oversubscription < 1. then
    invalid_arg "Fattree.create: oversubscription < 1";
  let sims =
    Array.init shards (fun s -> if s = 0 then sim else Sim.create ())
  in
  let group = Shard.create ~sims ~lookahead:delay in
  let chans =
    Array.init shards (fun s ->
        Array.init shards (fun d ->
            if s = d then None
            else Some (Shard.open_channel group ~src:s ~dst:d)))
  in
  let h = k / 2 in
  let mk pod rate name =
    Duplex.create ~sim:sims.(shard_of ~k ~shards pod) ~rng ~rate_bps:rate
      ~delay ~buffer_pkts ~discipline ~name ()
  in
  let up_rate = rate_bps /. oversubscription in
  let host_links =
    Array.init
      (k * hosts_per_pod k)
      (fun i -> mk (i / hosts_per_pod k) rate_bps (Printf.sprintf "host%d" i))
  in
  let edge_agg =
    Array.init k (fun pod ->
        Array.init h (fun e ->
            Array.init h (fun a ->
                mk pod up_rate (Printf.sprintf "ea-p%d-e%d-a%d" pod e a))))
  in
  let agg_core =
    Array.init k (fun pod ->
        Array.init h (fun a ->
            Array.init h (fun j ->
                mk pod up_rate (Printf.sprintf "ac-p%d-a%d-c%d" pod a j))))
  in
  let pod_queues, core_queues, all_queues =
    queue_lists ~k host_links edge_agg agg_core
  in
  {
    k;
    group;
    host_links;
    edge_agg;
    agg_core;
    chans;
    pod_queues;
    core_queues;
    all_queues;
  }

let k t = t.k
let host_count t = t.k * hosts_per_pod t.k
let switch_count t = 5 * t.k * t.k / 4
let group t = t.group

let shard_of_pod t pod =
  shard_of ~k:t.k ~shards:(Shard.shard_count t.group) pod

let pod_of_host t host = host / hosts_per_pod t.k
let edge_of t host = host mod hosts_per_pod t.k / (t.k / 2)

let sim_of_host t host =
  Shard.sim t.group (shard_of_pod t (pod_of_host t host))

let channel t ~src ~dst =
  let n = Array.length t.chans in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else t.chans.(src).(dst)

let check_pair t ~src ~dst =
  let n = host_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Fattree: host out of range";
  if src = dst then invalid_arg "Fattree: src = dst"

let path_count t ~src ~dst =
  check_pair t ~src ~dst;
  let h = t.k / 2 in
  if pod_of_host t src <> pod_of_host t dst then h * h
  else if edge_of t src <> edge_of t dst then h
  else 1

(* A path's end host, with the pod, edge switch and shard it sits
   under, worked out once per host pair. *)
type endpoint = { host : int; pod : int; edge : int; shard : int }

let endpoint t host =
  let pod = pod_of_host t host in
  { host; pod; edge = edge_of t host; shard = shard_of_pod t pod }

(* One direction of a path from [s] to [d] through aggregation switch
   [a] and, between pods, core switch [j] of its group: up the source
   host's link, across the tree, down the destination host's. Between
   pods on different shards, the source pod's agg→core link keeps its
   queue but feeds the channel between the shards instead of its pipe,
   whose slot the channel's takes: everything before the cut runs on
   the source simulator, everything after it on the destination's.
   Every other leg is a link's shared slot array. The legs are joined
   through lists:
   routes are most of what a FatTree build allocates, and consing the
   hops straight into one list instead raised ft-short's peak heap by
   2.9% through GC pacing. *)
let oneway t s d ~a ~j =
  let last = [ Duplex.rev_hops t.host_links.(d.host) ] in
  let legs =
    if s.pod <> d.pod then
      let l = t.agg_core.(s.pod).(a).(j) in
      Duplex.fwd_hops t.edge_agg.(s.pod).(s.edge).(a)
      :: (match t.chans.(s.shard).(d.shard) with
         | None -> Duplex.fwd_hops l
         | Some ch ->
           [|
             Queue.wired_hop (Duplex.fwd_queue l) (Queue.Channel ch);
             Shard.send ch;
           |])
      :: Duplex.rev_hops t.agg_core.(d.pod).(a).(j)
      :: Duplex.rev_hops t.edge_agg.(d.pod).(d.edge).(a)
      :: last
    else if s.edge <> d.edge then
      Duplex.fwd_hops t.edge_agg.(s.pod).(s.edge).(a)
      :: Duplex.rev_hops t.edge_agg.(s.pod).(d.edge).(a)
      :: last
    else last
  in
  Array.of_list
    (List.concat_map Array.to_list
       (Duplex.fwd_hops t.host_links.(s.host) :: legs))

let all_paths t ~src ~dst =
  let n = path_count t ~src ~dst in
  let h = t.k / 2 in
  let s = endpoint t src and d = endpoint t dst in
  Array.init n (fun i ->
      (* between pods path i climbs to aggregation switch i / h and core
         switch i mod h; within a pod it turns at aggregation switch i *)
      let a = if s.pod <> d.pod then i / h else i and j = i mod h in
      { Tcp.fwd = oneway t s d ~a ~j; rev = oneway t d s ~a ~j })

let sample_paths t ~rng ~src ~dst ~n =
  let paths = all_paths t ~src ~dst in
  if n >= Array.length paths then paths
  else begin
    let idx = Rng.permutation rng (Array.length paths) in
    Array.init n (fun i -> paths.(idx.(i)))
  end

let pod_queues t pod = t.pod_queues.(pod)
let core_queues t = t.core_queues
let all_queues t = t.all_queues
