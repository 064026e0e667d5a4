type epoch = {
  mutable w_max : float;  (* window at the last loss *)
  mutable t : float;  (* virtual time since the loss, seconds *)
  mutable k : float;  (* inflection point *)
  mutable valid : bool;
}

type state = { mutable epochs : epoch array }

let fresh_epoch () = { w_max = 0.; t = 0.; k = 0.; valid = false }

let ensure st idx =
  if idx >= Array.length st.epochs then begin
    let cap = Int.max (2 * (idx + 1)) 4 in
    st.epochs <-
      Array.init cap (fun i ->
          if i < Array.length st.epochs then st.epochs.(i) else fresh_epoch ())
  end

let create ?(c = 0.4) ?(beta = 0.3) () =
  if c <= 0. then invalid_arg "Cubic.create: c must be > 0";
  if beta <= 0. || beta >= 1. then
    invalid_arg "Cubic.create: beta must be in (0,1)";
  let st = { epochs = Array.init 4 (fun _ -> fresh_epoch ()) } in
  let increase ~views ~idx =
    ensure st idx;
    let e = st.epochs.(idx) in
    let v = views.(idx) in
    let w = Cc_types.fmax v.Cc_types.cwnd 1. in
    let rtt = Cc_types.fmax v.Cc_types.rtt 1e-3 in
    (* one ACK ≈ 1/w of an RTT of elapsed time *)
    e.t <- e.t +. (rtt /. w);
    if not e.valid then
      (* before the first loss, grow like Reno *)
      1. /. w
    else begin
      let target = (c *. ((e.t -. e.k) ** 3.)) +. e.w_max in
      if target <= w then
        (* TCP-friendly floor: at least Reno's growth *)
        1. /. w
      else Cc_types.fmin ((target -. w) /. w) 1.
    end
  in
  let on_loss ~idx =
    ensure st idx;
    let e = st.epochs.(idx) in
    e.t <- 0.
  in
  let loss_decrease ~views ~idx =
    ensure st idx;
    let e = st.epochs.(idx) in
    let w = views.(idx).Cc_types.cwnd in
    e.w_max <- w;
    e.k <- ((w *. beta /. c) ** (1. /. 3.));
    e.valid <- true;
    beta *. w
  in
  {
    Cc_types.name = "cubic";
    multipath_initial_ssthresh = None;
    on_ack = (fun ~idx:_ ~acked:_ -> ());
    on_loss;
    increase;
    loss_decrease;
  }
