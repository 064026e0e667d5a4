let fmax = Cc_types.fmax

let increase_formula (views : Cc_types.subflow_view array) idx =
  let num = ref 0. and denom = ref 0. in
  for r = 0 to Array.length views - 1 do
    let v = views.(r) in
    let w = fmax v.cwnd 1e-9 and rtt = fmax v.rtt 1e-9 in
    let per_rtt2 = w /. (rtt *. rtt) in
    if per_rtt2 > !num then num := per_rtt2;
    denom := !denom +. (w /. rtt)
  done;
  let coupled = !num /. (!denom *. !denom) in
  let own = 1. /. fmax views.(idx).cwnd 1e-9 in
  Cc_types.fmin coupled own

let create () =
  {
    Cc_types.name = "lia";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase = (fun ~views ~idx -> increase_formula views idx);
    loss_decrease = Cc_types.halve;
  }
