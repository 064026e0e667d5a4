(* Tests for the routing/monitoring infrastructure: Graph, Builder,
   Monitor, Csv, and the wVegas extension algorithm. *)

open Mptcp_repro.Netsim
open Mptcp_repro.Topology

(* Timer handles are discarded in tests: scheduling here is fire-and-forget. *)
module Sim = struct
  include Sim

  let schedule_at ~src sim t f = ignore (Sim.schedule_at ~src sim t f : Sim.Timer.t)
  let schedule_after ~src sim d f = ignore (Sim.schedule_after ~src sim d f : Sim.Timer.t)
end

let check_close eps = Alcotest.(check (float eps))

(* --- Graph ---------------------------------------------------------- *)

(*    0 --- 1 --- 3
       \    |    /
        \   2   /          a diamond plus a spur (4)
         \--+--/
            |
            4                                                        *)
let diamond () =
  let g = Graph.create ~vertices:5 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 "01" in
  let e13 = Graph.add_edge g ~u:1 ~v:3 "13" in
  let e02 = Graph.add_edge g ~u:0 ~v:2 "02" in
  let e23 = Graph.add_edge g ~u:2 ~v:3 "23" in
  let e12 = Graph.add_edge g ~u:1 ~v:2 "12" in
  let e24 = Graph.add_edge g ~u:2 ~v:4 "24" in
  (g, (e01, e13, e02, e23, e12, e24))

let test_graph_basics () =
  let g, (e01, _, _, _, _, _) = diamond () in
  Alcotest.(check int) "vertices" 5 (Graph.vertex_count g);
  Alcotest.(check int) "edges" 6 (Graph.edge_count g);
  Alcotest.(check string) "payload" "01" (Graph.edge_payload g e01);
  Alcotest.(check (pair int int)) "endpoints" (0, 1)
    (Graph.edge_endpoints g e01);
  Alcotest.(check (option int)) "find" (Some e01) (Graph.find_edge g ~u:1 ~v:0);
  Alcotest.(check (option int)) "absent" None (Graph.find_edge g ~u:0 ~v:4)

let test_graph_rejects_bad_edges () =
  let g = Graph.create ~vertices:3 in
  let _ = Graph.add_edge g ~u:0 ~v:1 () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge g ~u:1 ~v:1 ()));
  Alcotest.check_raises "parallel"
    (Invalid_argument "Graph.add_edge: parallel edge") (fun () ->
      ignore (Graph.add_edge g ~u:1 ~v:0 ()));
  Alcotest.check_raises "range" (Invalid_argument "Graph: vertex out of range")
    (fun () -> ignore (Graph.add_edge g ~u:0 ~v:9 ()))

let test_graph_shortest_path () =
  let g, (e01, e13, _, _, _, _) = diamond () in
  match Graph.shortest_path g ~src:0 ~dst:3 with
  | Some [ h1; h2 ] ->
    (* 0-1-3 and 0-2-3 tie at weight 2; Dijkstra picks one deterministic
       two-hop route *)
    Alcotest.(check bool) "two-hop route" true
      ((h1.Graph.edge = e01 && h2.Graph.edge = e13)
      || (Graph.edge_payload g h1.Graph.edge = "02"
         && Graph.edge_payload g h2.Graph.edge = "23"));
    check_close 1e-12 "weight" 2. (Graph.path_weight g [ h1; h2 ])
  | _ -> Alcotest.fail "expected a 2-hop path"

let test_graph_weighted_routing () =
  let g = Graph.create ~vertices:3 in
  let _heavy = Graph.add_edge g ~u:0 ~v:2 ~weight:10. "direct" in
  let _ = Graph.add_edge g ~u:0 ~v:1 ~weight:1. "a" in
  let _ = Graph.add_edge g ~u:1 ~v:2 ~weight:1. "b" in
  match Graph.shortest_path g ~src:0 ~dst:2 with
  | Some hops ->
    Alcotest.(check int) "avoids the heavy edge" 2 (List.length hops);
    check_close 1e-12 "weight 2" 2. (Graph.path_weight g hops)
  | None -> Alcotest.fail "disconnected?"

let test_graph_disconnected () =
  let g = Graph.create ~vertices:4 in
  let _ = Graph.add_edge g ~u:0 ~v:1 () in
  let _ = Graph.add_edge g ~u:2 ~v:3 () in
  Alcotest.(check bool) "no path" true (Graph.shortest_path g ~src:0 ~dst:3 = None)

let test_graph_self_path () =
  let g, _ = diamond () in
  Alcotest.(check bool) "empty path" true
    (Graph.shortest_path g ~src:2 ~dst:2 = Some [])

let test_graph_k_shortest () =
  let g, _ = diamond () in
  let paths = Graph.k_shortest_paths g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three loop-free routes" 3 (List.length paths);
  let weights = List.map (Graph.path_weight g) paths in
  (* 2, 2, 3 (0-1-2-3 or 0-2-1-3) *)
  Alcotest.(check (list (float 1e-9))) "ordered weights" [ 2.; 2.; 3. ] weights;
  (* all distinct *)
  Alcotest.(check bool) "distinct" true
    (List.length (List.sort_uniq compare paths) = 3)

let test_graph_k_shortest_more_than_exist () =
  let g = Graph.create ~vertices:2 in
  let _ = Graph.add_edge g ~u:0 ~v:1 () in
  Alcotest.(check int) "only one exists" 1
    (List.length (Graph.k_shortest_paths g ~src:0 ~dst:1 ~k:5))

let test_graph_edge_disjoint () =
  let g, _ = diamond () in
  let paths = Graph.edge_disjoint_paths g ~src:0 ~dst:3 in
  Alcotest.(check int) "two disjoint routes" 2 (List.length paths);
  let used = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun h ->
          Alcotest.(check bool) "edge reused" false (Hashtbl.mem used h.Graph.edge);
          Hashtbl.replace used h.Graph.edge ())
        p)
    paths

let prop_graph_path_connects_endpoints =
  QCheck.Test.make ~name:"graph: random graphs route correctly" ~count:80
    QCheck.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let g = Graph.create ~vertices:n in
      (* random spanning tree ensures connectivity, plus extra edges *)
      for v = 1 to n - 1 do
        ignore (Graph.add_edge g ~u:(Rng.int rng v) ~v ())
      done;
      for _ = 1 to n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v && Graph.find_edge g ~u ~v = None then
          ignore (Graph.add_edge g ~u ~v ())
      done;
      let src = Rng.int rng n and dst = Rng.int rng n in
      match Graph.shortest_path g ~src ~dst with
      | None -> false
      | Some hops ->
        (* walk the hops and confirm they end at dst *)
        let final =
          List.fold_left
            (fun v h ->
              let u', v' = Graph.edge_endpoints g h.Graph.edge in
              ignore v;
              if h.Graph.from_u_to_v then v' else u')
            src hops
        in
        (src = dst && hops = []) || final = dst)

(* --- Builder ----------------------------------------------------------- *)

let scenario_c_via_builder () =
  (* rebuild scenario C's topology declaratively: client -- AP1/AP2 -- net *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let b = Builder.create ~sim ~rng () in
  List.iter (Builder.add_node b) [ "client"; "ap1"; "ap2"; "internet" ];
  Builder.link b "client" "ap1" ~rate_mbps:10. ~delay_ms:20.;
  Builder.link b "client" "ap2" ~rate_mbps:10. ~delay_ms:20.;
  Builder.link b "ap1" "internet" ~rate_mbps:100. ~delay_ms:20.;
  Builder.link b "ap2" "internet" ~rate_mbps:100. ~delay_ms:20.;
  (sim, b)

let test_builder_path_routes_packets () =
  let sim, b = scenario_c_via_builder () in
  let path = Builder.path b ~src:"client" ~dst:"internet" in
  let delivered = ref false in
  let fwd = Array.append path.Tcp.fwd [| (fun _ -> delivered := true) |] in
  Packet.forward (Packet.data ~flow:0 ~subflow:0 ~seq:0 ~sent_at:0. ~route:fwd);
  Sim.run sim;
  Alcotest.(check bool) "delivered" true !delivered

let test_builder_disjoint_paths () =
  let _, b = scenario_c_via_builder () in
  let paths = Builder.paths b ~src:"client" ~dst:"internet" ~disjoint:true ~k:4 () in
  Alcotest.(check int) "two disjoint routes" 2 (Array.length paths)

let test_builder_k_shortest_paths () =
  let _, b = scenario_c_via_builder () in
  let paths = Builder.paths b ~src:"client" ~dst:"internet" ~k:2 () in
  Alcotest.(check int) "two routes" 2 (Array.length paths)

let test_builder_full_tcp_connection () =
  let sim, b = scenario_c_via_builder () in
  let paths = Builder.paths b ~src:"client" ~dst:"internet" ~disjoint:true ~k:2 () in
  let conn =
    Tcp.create ~sim
      ~cc:(Mptcp_repro.Cc.Olia.create ())
      ~paths ~size_pkts:200 ~flow_id:0 ()
  in
  Sim.run_until sim 60.;
  Alcotest.(check bool) "completes over built topology" true
    (Tcp.completed conn)

let test_builder_queue_accessor () =
  let _, b = scenario_c_via_builder () in
  let q = Builder.queue b "client" "ap1" in
  Alcotest.(check int) "fresh queue" 0 (Queue.arrivals q);
  Alcotest.check_raises "unknown pair" Not_found (fun () ->
      ignore (Builder.queue b "ap1" "ap2"))

let test_builder_rejects_duplicates () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let b = Builder.create ~sim ~rng () in
  Builder.add_node b "x";
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder.add_node: duplicate node x") (fun () ->
      Builder.add_node b "x")

(* --- Monitor and Csv ----------------------------------------------------- *)

let test_monitor_samples_series () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim ~period:0.5 () in
  let clock = ref 0. in
  Monitor.watch m "clock" (fun () ->
      clock := !clock +. 1.;
      !clock);
  (* keep the sim alive for 5 seconds *)
  Sim.schedule_at ~src:"test" sim 5. (fun () -> ());
  Sim.run sim;
  let ts = Monitor.series m "clock" in
  Alcotest.(check bool) "about 10 samples" true
    (Mptcp_repro.Stats.Timeseries.length ts >= 10);
  Alcotest.(check (list string)) "names" [ "clock" ] (Monitor.names m)

let test_monitor_goodput_probe () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:2 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:Queue.Droptail ()
  in
  let fwd = Pipe.create ~sim ~delay:0.02 and rv = Pipe.create ~sim ~delay:0.02 in
  let conn =
    Tcp.create ~sim
      ~cc:(Mptcp_repro.Cc.Reno.create ())
      ~paths:
        [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rv |] } |]
      ~flow_id:0 ()
  in
  let m = Monitor.create ~sim ~period:1. () in
  Monitor.watch_goodput m "goodput" conn;
  Monitor.watch_cwnd m "cwnd" conn 0;
  Monitor.watch_backlog m "backlog" q;
  Monitor.watch_loss m "loss" q;
  Sim.run_until sim 20.;
  let gp = Monitor.series m "goodput" in
  (* steady-state samples should hover near 10 Mb/s *)
  let late = Mptcp_repro.Stats.Timeseries.mean_over gp ~from:10. ~until:19. in
  Alcotest.(check bool)
    (Printf.sprintf "goodput ~10 (got %.1f)" late)
    true
    (late > 7. && late < 11.)

let test_monitor_rejects_duplicate_names () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim ~period:1. () in
  Monitor.watch m "x" (fun () -> 0.);
  Alcotest.check_raises "dup" (Invalid_argument "Monitor.watch: duplicate name x")
    (fun () -> Monitor.watch m "x" (fun () -> 0.))

(* The sampler re-arms itself every [period], so the period is checked
   at construction; NaN fails the check too. *)
let test_monitor_rejects_bad_period () =
  let sim = Sim.create () in
  List.iter
    (fun (bad, shown) ->
      Alcotest.check_raises shown
        (Invalid_argument
           ("Monitor.create: period must be finite and > 0 (got " ^ shown
          ^ ")"))
        (fun () -> ignore (Monitor.create ~sim ~period:bad ())))
    [ (0., "0"); (-1., "-1"); (nan, "nan"); (infinity, "inf") ];
  Alcotest.(check int) "nothing scheduled" 0 (Sim.pending sim)

let test_csv_roundtrip () =
  let path = Filename.temp_file "repro" ".csv" in
  Mptcp_repro.Stats.Csv.write_series ~path ~columns:[ "a"; "b" ]
    [ [ 1.; 2. ]; [ 3.5; -4. ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check (list string)) "contents" [ "a,b"; "1,2"; "3.5,-4" ]
    (List.rev !lines)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "x" (Mptcp_repro.Stats.Csv.escape "x");
  Alcotest.(check string) "comma" "\"a,b\"" (Mptcp_repro.Stats.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\""
    (Mptcp_repro.Stats.Csv.escape "a\"b")

let test_csv_rejects_ragged_rows () =
  let path = Filename.temp_file "repro" ".csv" in
  Alcotest.check_raises "ragged"
    (Invalid_argument "Csv.write_series: row width mismatch") (fun () ->
      Mptcp_repro.Stats.Csv.write_series ~path ~columns:[ "a"; "b" ]
        [ [ 1. ] ]);
  Sys.remove path

let test_monitor_to_csv () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim ~period:1. () in
  Monitor.watch m "v" (fun () -> Sim.now sim);
  Sim.schedule_at ~src:"test" sim 3. (fun () -> ());
  Sim.run sim;
  let path = Filename.temp_file "repro" ".csv" in
  Monitor.to_csv m ~path;
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  Alcotest.(check bool) "non-empty" true (size > 10)

(* --- wVegas ---------------------------------------------------------------- *)

let view cwnd rtt = { Mptcp_repro.Cc.Types.cwnd; rtt }

let test_wvegas_grows_when_below_target () =
  let cc = Mptcp_repro.Cc.Wvegas.create () in
  (* rtt equals base rtt: zero backlog, below alpha -> grow *)
  let views = [| view 10. 0.1 |] in
  check_close 1e-12 "grow" 0.1 (cc.Mptcp_repro.Cc.Types.increase ~views ~idx:0)

let test_wvegas_shrinks_when_queueing () =
  let cc = Mptcp_repro.Cc.Wvegas.create () in
  (* establish base rtt = 0.1 *)
  ignore (cc.Mptcp_repro.Cc.Types.increase ~views:[| view 10. 0.1 |] ~idx:0);
  (* now the path queues heavily: diff = 40·(1-0.1/0.4) = 30 > alpha *)
  let inc =
    cc.Mptcp_repro.Cc.Types.increase ~views:[| view 40. 0.4 |] ~idx:0
  in
  Alcotest.(check bool) "shrink" true (inc < 0.)

let test_wvegas_rejects_bad_alpha () =
  Alcotest.check_raises "alpha"
    (Invalid_argument "Wvegas.create: total_alpha must be > 0") (fun () ->
      ignore (Mptcp_repro.Cc.Wvegas.create ~total_alpha:0. ()))

let test_wvegas_registry_and_simulation () =
  let cc = Mptcp_repro.Cc.Registry.create "wvegas" in
  Alcotest.(check string) "name" "wvegas" cc.Mptcp_repro.Cc.Types.name;
  (* end-to-end: a wVegas connection moves data without collapsing *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:300
      ~discipline:Queue.Droptail ()
  in
  let fwd = Pipe.create ~sim ~delay:0.02 and rv = Pipe.create ~sim ~delay:0.02 in
  let conn =
    Tcp.create ~sim ~cc
      ~paths:
        [| { Tcp.fwd = [| Queue.hop q; Pipe.hop fwd |]; rev = [| Pipe.hop rv |] } |]
      ~flow_id:0 ()
  in
  Sim.run_until sim 30.;
  let mbps = float_of_int (Tcp.total_acked conn * 12000) /. 30. /. 1e6 in
  Alcotest.(check bool) (Printf.sprintf "%.1f Mb/s moved" mbps) true (mbps > 1.)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "graph: basics" `Quick test_graph_basics;
    Alcotest.test_case "graph: rejects bad edges" `Quick
      test_graph_rejects_bad_edges;
    Alcotest.test_case "graph: shortest path" `Quick test_graph_shortest_path;
    Alcotest.test_case "graph: weighted routing" `Quick
      test_graph_weighted_routing;
    Alcotest.test_case "graph: disconnected" `Quick test_graph_disconnected;
    Alcotest.test_case "graph: src = dst" `Quick test_graph_self_path;
    Alcotest.test_case "graph: k-shortest (Yen)" `Quick test_graph_k_shortest;
    Alcotest.test_case "graph: k-shortest exhausts" `Quick
      test_graph_k_shortest_more_than_exist;
    Alcotest.test_case "graph: edge-disjoint paths" `Quick
      test_graph_edge_disjoint;
    q prop_graph_path_connects_endpoints;
    Alcotest.test_case "builder: path routes packets" `Quick
      test_builder_path_routes_packets;
    Alcotest.test_case "builder: disjoint paths" `Quick
      test_builder_disjoint_paths;
    Alcotest.test_case "builder: k-shortest" `Quick
      test_builder_k_shortest_paths;
    Alcotest.test_case "builder: full TCP connection" `Quick
      test_builder_full_tcp_connection;
    Alcotest.test_case "builder: queue accessor" `Quick
      test_builder_queue_accessor;
    Alcotest.test_case "builder: duplicate nodes" `Quick
      test_builder_rejects_duplicates;
    Alcotest.test_case "monitor: samples series" `Quick
      test_monitor_samples_series;
    Alcotest.test_case "monitor: goodput probe" `Quick
      test_monitor_goodput_probe;
    Alcotest.test_case "monitor: duplicate names" `Quick
      test_monitor_rejects_duplicate_names;
    Alcotest.test_case "csv: roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv: escaping" `Quick test_csv_escaping;
    Alcotest.test_case "csv: ragged rows" `Quick test_csv_rejects_ragged_rows;
    Alcotest.test_case "monitor: csv export" `Quick test_monitor_to_csv;
    Alcotest.test_case "monitor: rejects bad periods" `Quick
      test_monitor_rejects_bad_period;
    Alcotest.test_case "wvegas: grows below target" `Quick
      test_wvegas_grows_when_below_target;
    Alcotest.test_case "wvegas: shrinks when queueing" `Quick
      test_wvegas_shrinks_when_queueing;
    Alcotest.test_case "wvegas: rejects bad alpha" `Quick
      test_wvegas_rejects_bad_alpha;
    Alcotest.test_case "wvegas: registry + simulation" `Slow
      test_wvegas_registry_and_simulation;
  ]

(* --- cross-validation: Builder vs the hand-wired scenario ---------------- *)

let test_builder_reproduces_scenario_c () =
  (* rebuild scenario C (10+10 users, C1=C2=1 Mb/s) from the declarative
     builder and check the headline numbers agree with Scen_c.run *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let b = Builder.create ~sim ~rng () in
  List.iter (Builder.add_node b) [ "clients"; "ap1"; "ap2"; "net" ];
  (* 20 ms per stage gives the testbed's 80 ms round trip *)
  Builder.link b "clients" "ap1" ~rate_mbps:10. ~delay_ms:20.;
  Builder.link b "clients" "ap2" ~rate_mbps:10. ~delay_ms:20.;
  Builder.link b "ap1" "net" ~rate_mbps:1000. ~delay_ms:20.;
  Builder.link b "ap2" "net" ~rate_mbps:1000. ~delay_ms:20.;
  let paths =
    Builder.paths b ~src:"clients" ~dst:"net" ~disjoint:true ~k:2 ()
  in
  let multipath =
    List.init 10 (fun i ->
        Tcp.create ~sim
          ~cc:(Mptcp_repro.Cc.Olia.create ())
          ~paths ~start:(Rng.uniform rng 2.) ~flow_id:i ())
  in
  ignore multipath;
  let via_ap2 = Builder.paths b ~src:"clients" ~dst:"net" ~k:2 () in
  (* the k-shortest list contains the ap2 route; pick the one whose first
     queue is the ap2 link by probing the queue object *)
  let ap2_queue = Builder.queue b "clients" "ap2" in
  let singles =
    List.init 10 (fun i ->
        (* both disjoint paths exist; use the one through ap2 by matching
           arrivals later — simply use the second disjoint path *)
        ignore via_ap2;
        Tcp.create ~sim
          ~cc:(Mptcp_repro.Cc.Reno.create ())
          ~paths:[| paths.(1) |]
          ~start:(Rng.uniform rng 2.) ~flow_id:(10 + i) ())
  in
  Sim.run_until sim 60.;
  let goodput conns =
    List.fold_left (fun a c -> a + Tcp.total_acked c) 0 conns
  in
  let single_mbps = float_of_int (goodput singles * 12000) /. 60. /. 1e6 in
  (* the hand-wired scenario under the same algorithm and durations *)
  let reference =
    Mptcp_repro.Scenarios.Scen_c.run
      { Mptcp_repro.Scenarios.Scen_c.default with
        algo = "olia"; duration = 60.; warmup = 0.1; seed = 1 }
  in
  ignore ap2_queue;
  let reference_mbps =
    Mptcp_repro.Exp.Outcome.metric reference "norm_single" *. 10.
  in
  Alcotest.(check bool)
    (Printf.sprintf "builder %.1f vs hand-wired %.1f Mb/s" single_mbps
       reference_mbps)
    true
    (abs_float (single_mbps -. reference_mbps) < 0.45 *. reference_mbps)

let prop_k_shortest_sorted_and_loop_free =
  QCheck.Test.make ~name:"graph: k-shortest sorted, loop-free" ~count:40
    QCheck.(pair (int_range 3 10) (int_range 0 500))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let g = Graph.create ~vertices:n in
      for v = 1 to n - 1 do
        ignore (Graph.add_edge g ~u:(Rng.int rng v) ~v ())
      done;
      for _ = 1 to n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v && Graph.find_edge g ~u ~v = None then
          ignore (Graph.add_edge g ~u ~v ())
      done;
      let paths = Graph.k_shortest_paths g ~src:0 ~dst:(n - 1) ~k:4 in
      (* weights non-decreasing *)
      let ws = List.map (Graph.path_weight g) paths in
      let sorted = List.sort compare ws = ws in
      (* loop-free: no edge repeats within a path *)
      let loop_free =
        List.for_all
          (fun p ->
            let es = List.map (fun h -> h.Graph.edge) p in
            List.length (List.sort_uniq compare es) = List.length es)
          paths
      in
      sorted && loop_free && List.length paths >= 1)

let suite =
  suite
  @ [
      Alcotest.test_case "builder reproduces scenario C" `Slow
        test_builder_reproduces_scenario_c;
      QCheck_alcotest.to_alcotest prop_k_shortest_sorted_and_loop_free;
    ]

let test_two_monitors_with_stop_terminate () =
  (* without a stop time two monitors would keep each other alive under
     Sim.run; with stop they terminate *)
  let sim = Sim.create () in
  let m1 = Monitor.create ~sim ~period:0.5 ~stop:10. () in
  let m2 = Monitor.create ~sim ~period:0.7 ~stop:10. () in
  Monitor.watch m1 "a" (fun () -> 1.);
  Monitor.watch m2 "b" (fun () -> 2.);
  Sim.run sim;
  Alcotest.(check bool) "terminated with samples" true
    (Mptcp_repro.Stats.Timeseries.length (Monitor.series m1 "a") > 10
    && Mptcp_repro.Stats.Timeseries.length (Monitor.series m2 "b") > 10)

let suite =
  suite
  @ [
      Alcotest.test_case "monitor: two monitors + stop" `Quick
        test_two_monitors_with_stop_terminate;
    ]
