type t = { mutable sent : int }

let blackhole (p : Packet.t) = Packet.free p

let create ~sim ~rate_bps ~route ?(start = 0.) ?(stop = infinity) ~flow_id () =
  (* NaN fails both comparisons *)
  if not (rate_bps > 0. && rate_bps < infinity) then
    invalid_arg
      (Printf.sprintf "Cbr.create: rate must be finite and > 0 (got %g)"
         rate_bps);
  let interval = float_of_int (8 * Packet.data_size) /. rate_bps in
  let t = { sent = 0 } in
  let rec tick () =
    if Sim.now sim < stop then begin
      let p =
        Packet.data ~flow:flow_id ~subflow:0 ~seq:t.sent ~sent_at:(Sim.now sim)
          ~route
      in
      t.sent <- t.sent + 1;
      Packet.forward p;
      ignore
        (Sim.schedule_after ~src:"cbr.tick" sim interval tick : Sim.Timer.t)
    end
  in
  ignore (Sim.schedule_at ~src:"cbr.tick" sim start tick : Sim.Timer.t);
  t

let packets_sent t = t.sent
