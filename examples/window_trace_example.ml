(* Window/alpha traces: the asymmetric two-bottleneck example of the
   paper's Fig. 8. One OLIA connection over two 10 Mb/s links — the first
   shared with 5 TCP flows, the second with 10. OLIA should keep a minimal
   window on the congested path, probing it only when its inter-loss
   volume looks attractive.

   Run with:  dune exec examples/window_trace_example.exe *)

module Tb = Mptcp_repro.Scenarios.Two_bottleneck
module Outcome = Mptcp_repro.Exp.Outcome
module Ts = Mptcp_repro.Stats.Timeseries

let bar width value scale =
  let n = int_of_float (value /. scale *. float_of_int width) in
  let n = Stdlib.max 0 (Stdlib.min width n) in
  String.make n '#' ^ String.make (width - n) ' '

let () =
  let cfg = { Tb.asymmetric with duration = 60. } in
  Printf.printf
    "Two bottlenecks (10 Mb/s each): path1 shared with %d TCP flows, \
     path2 with %d.\nOLIA windows sampled every 2 s:\n\n"
    cfg.n_tcp1 cfg.n_tcp2;
  let o = Tb.run cfg in
  (* every array is sampled at the times in "t" *)
  let trace name =
    Ts.resample
      (Ts.of_arrays ~times:(Outcome.array o "t") (Outcome.array o name))
      ~dt:2. ~from:2. ~until:cfg.duration
  in
  let w1 = trace "w1" and w2 = trace "w2" and a2 = trace "alpha2" in
  Printf.printf "%5s  %-22s %-22s %6s\n" "t(s)" "w1 (good path)"
    "w2 (congested path)" "alpha2";
  Array.iteri
    (fun i _ ->
      Printf.printf "%5.0f  [%s] [%s] %+.2f\n"
        (2. +. (2. *. float_of_int i))
        (bar 20 w1.(i) 30.)
        (bar 20 w2.(i) 30.)
        a2.(i))
    w1;
  Printf.printf
    "\ngoodput: path1 %.2f Mb/s, path2 %.2f Mb/s; window flips: %.0f\n"
    (Outcome.metric o "goodput1_mbps")
    (Outcome.metric o "goodput2_mbps")
    (Outcome.metric o "flip_count");
  print_endline
    "w2 stays near one packet: OLIA sends only probing traffic on the\n\
     congested path, as in the paper's Fig. 8."
