type t = { sim : Sim.t; delay : float }

let create ~sim ~delay =
  if delay < 0. then invalid_arg "Pipe.create: negative delay";
  { sim; delay }

(* The packet rides in the timer cell itself and [Packet.forward] is a
   static function, so a pipe traversal schedules without allocating.
   A wired queue hands the packet over at admission with its departure
   in [departs]: the arrival is then armed exactly as if the queue's
   serve event had called this hop at that instant. *)
let[@olia.alloc_free] hop t (p : Packet.t) =
  let dep = p.times.departs in
  if dep > Sim.now t.sim then
    ignore
      (Sim.schedule_pkt_at_sched ~src:"pipe.deliver" t.sim ~sched:dep
         (dep +. t.delay) Packet.forward p
        : Sim.Timer.t)
  else
    ignore
      (Sim.schedule_pkt_after ~src:"pipe.deliver" t.sim t.delay Packet.forward
         p
        : Sim.Timer.t)

let delay t = t.delay
