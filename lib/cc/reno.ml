let create () =
  {
    Cc_types.name = "reno";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase =
      (fun ~views ~idx -> 1. /. Cc_types.fmax views.(idx).Cc_types.cwnd 1.);
    loss_decrease = Cc_types.halve;
  }
