let fmax = Cc_types.fmax

(* x_r = w_r/rtt_r *)
let[@inline] rate (v : Cc_types.subflow_view) = v.cwnd /. fmax v.rtt 1e-9

(* α_r = max_k x_k / x_r *)
let[@inline] alpha (views : Cc_types.subflow_view array) idx =
  let xmax = ref 0. in
  for k = 0 to Array.length views - 1 do
    xmax := fmax !xmax (rate views.(k))
  done;
  !xmax /. fmax (rate views.(idx)) 1e-9

let create () =
  let increase ~(views : Cc_types.subflow_view array) ~idx =
    let total = ref 0. in
    for k = 0 to Array.length views - 1 do
      total := !total +. rate views.(k)
    done;
    let a = alpha views idx in
    let v = views.(idx) in
    let rtt = fmax v.rtt 1e-9 in
    rate v /. rtt /. fmax (!total *. !total) 1e-18
    *. ((1. +. a) /. 2.)
    *. ((4. +. a) /. 5.)
  in
  let loss_decrease ~views ~idx =
    let a = alpha views idx in
    views.(idx).Cc_types.cwnd /. 2. *. Cc_types.fmin a 1.5
  in
  {
    Cc_types.name = "balia";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss = (fun ~idx:_ -> ());
    increase;
    loss_decrease;
  }
