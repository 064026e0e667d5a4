(* Data-center example: a k=4 FatTree with a random-permutation workload,
   comparing regular TCP against MPTCP with LIA and OLIA — a scaled-down
   version of the paper's Fig. 13 experiment.

   Run with:  dune exec examples/datacenter_example.exe *)

module Fs = Mptcp_repro.Scenarios.Fattree_static
module Outcome = Mptcp_repro.Exp.Outcome
module Table = Mptcp_repro.Stats.Table

let () =
  let cfg = { Fs.default with k = 4; duration = 20.; warmup = 5. } in
  Printf.printf
    "FatTree k=%d (%d hosts), random permutation of long flows, %g Mb/s links\n\n"
    cfg.k
    (cfg.k * cfg.k * cfg.k / 4)
    cfg.rate_mbps;
  let t =
    Table.create ~title:"Aggregate throughput (% of the permutation optimum)"
      ~columns:[ "transport"; "subflows"; "% of optimal"; "core loss" ]
  in
  let run label subflows algo =
    let m = Outcome.metric (Fs.run { cfg with subflows; algo }) in
    Table.add_row t
      [
        label;
        string_of_int subflows;
        Printf.sprintf "%.1f" (m "aggregate_pct_optimal");
        Printf.sprintf "%.4f" (m "mean_core_loss");
      ]
  in
  run "TCP" 1 "reno";
  run "MPTCP LIA" 2 "lia";
  run "MPTCP LIA" 8 "lia";
  run "MPTCP OLIA" 2 "olia";
  run "MPTCP OLIA" 8 "olia";
  Table.print t;
  print_newline ();
  print_endline
    "Single-path TCP collides on ECMP paths and wastes the core; MPTCP";
  print_endline "spreads subflows over the equal-cost paths and pools them."
