type subflow_view = { mutable cwnd : float; mutable rtt : float }

type t = {
  name : string;
  multipath_initial_ssthresh : float option;
  on_ack : idx:int -> acked:int -> unit;
  on_loss : idx:int -> unit;
  increase : views:subflow_view array -> idx:int -> float;
  loss_decrease : views:subflow_view array -> idx:int -> float;
}

let halve ~views ~idx = views.(idx).cwnd /. 2.
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] fmin (a : float) b = if a <= b then a else b
