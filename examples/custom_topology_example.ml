(* Build-your-own testbed: describe a multihomed topology declaratively,
   route MPTCP subflows over edge-disjoint paths, monitor everything and
   export the series to CSV.

   Run with:  dune exec examples/custom_topology_example.exe *)

open Mptcp_repro.Netsim
module Builder = Mptcp_repro.Topology.Builder

let () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let b = Builder.create ~sim ~rng () in

  (* A dual-homed client: a DSL line and an LTE line converging on the
     same server through different provider networks. *)
  List.iter (Builder.add_node b)
    [ "client"; "dsl"; "lte"; "isp1"; "isp2"; "server" ];
  Builder.link b "client" "dsl" ~rate_mbps:8. ~delay_ms:15.;
  Builder.link b "client" "lte" ~rate_mbps:15. ~delay_ms:35.;
  Builder.link b "dsl" "isp1" ~rate_mbps:50. ~delay_ms:5.;
  Builder.link b "lte" "isp2" ~rate_mbps:50. ~delay_ms:5.;
  Builder.link b "isp1" "server" ~rate_mbps:100. ~delay_ms:5.;
  Builder.link b "isp2" "server" ~rate_mbps:100. ~delay_ms:5.;

  let paths =
    Builder.paths b ~src:"client" ~dst:"server" ~disjoint:true ~k:2 ()
  in
  Printf.printf "found %d edge-disjoint client->server paths\n"
    (Array.length paths);

  let conn =
    Tcp.create ~sim
      ~cc:(Mptcp_repro.Cc.Olia.create ())
      ~paths ~flow_id:0 ()
  in

  (* a competing TCP download on the DSL line, arriving once the MPTCP
     connection has reached steady state *)
  let _competitor =
    Tcp.create ~sim
      ~cc:(Mptcp_repro.Cc.Reno.create ())
      ~paths:[| Builder.path b ~src:"dsl" ~dst:"server" |]
      ~start:120. ~flow_id:1 ()
  in

  let m = Monitor.create ~sim ~period:0.5 () in
  Monitor.watch_goodput m "mptcp_goodput_mbps" conn;
  Monitor.watch_cwnd m "w_dsl" conn 0;
  Monitor.watch_cwnd m "w_lte" conn 1;
  Monitor.watch_backlog m "dsl_queue" (Builder.queue b "client" "dsl");

  Sim.run_until sim 240.;

  let mean name t0 t1 =
    Mptcp_repro.Stats.Timeseries.mean_over (Monitor.series m name) ~from:t0
      ~until:t1
  in
  Printf.printf "MPTCP goodput: %.2f Mb/s before the competitor, %.2f after\n"
    (mean "mptcp_goodput_mbps" 80. 120.)
    (mean "mptcp_goodput_mbps" 180. 240.);
  Printf.printf "DSL subflow window: %.1f pkts before, %.1f after\n"
    (mean "w_dsl" 80. 120.) (mean "w_dsl" 180. 240.);

  let csv = Filename.concat (Filename.get_temp_dir_name ()) "mptcp_trace.csv" in
  Monitor.to_csv m ~path:csv;
  Printf.printf "full traces written to %s\n" csv;
  print_endline
    "OLIA keeps pooling both access lines and yields DSL capacity to the\n\
     competing TCP flow when it arrives."
