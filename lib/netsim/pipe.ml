type t = { sim : Sim.t; delay : float }

let create ~sim ~delay =
  (* NaN fails both comparisons *)
  if not (delay >= 0. && delay < infinity) then
    invalid_arg
      (Printf.sprintf "Pipe.create: delay must be finite and >= 0 (got %g)"
         delay);
  { sim; delay }

(* The packet rides in the timer cell itself and [Packet.forward] is a
   static function, so a pipe traversal schedules without allocating.
   A wired queue hands the packet over at admission with its departure
   in [departs]: the arrival is then armed exactly as if the queue's
   serve event had called this hop at that instant. Any other packet
   departs now. *)
let[@olia.alloc_free] hop t (p : Packet.t) =
  let now = Sim.now t.sim in
  let dep = if p.times.departs > now then p.times.departs else now in
  ignore
    (Sim.schedule_pkt_at_sched ~src:"pipe.deliver" t.sim ~sched:dep
       (dep +. t.delay) Packet.forward p
      : Sim.Timer.t)

let delay t = t.delay
