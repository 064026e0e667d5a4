let create ~epsilon =
  if epsilon < 0. || epsilon > 2. then
    invalid_arg "Coupled.create: epsilon must be in [0, 2]";
  let increase ~(views : Cc_types.subflow_view array) ~idx =
    let total = ref 0. in
    for r = 0 to Array.length views - 1 do
      total := !total +. views.(r).cwnd
    done;
    let w = Cc_types.fmax views.(idx).cwnd 1e-9 in
    (w ** (1. -. epsilon)) /. (Cc_types.fmax !total 1e-9 ** (2. -. epsilon))
  in
  {
    Cc_types.name = Printf.sprintf "coupled(eps=%g)" epsilon;
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase;
    loss_decrease = Cc_types.halve;
  }
