type t = { sim : Sim.t; delay : float }

let create ~sim ~delay =
  (* NaN fails both comparisons *)
  if not (delay >= 0. && delay < infinity) then
    invalid_arg
      (Printf.sprintf "Pipe.create: delay must be finite and >= 0 (got %g)"
         delay);
  { sim; delay }

(* The packet rides in the timer cell itself and its dispatch forwards
   it to the slot its [hop] names, so a pipe traversal schedules
   without allocating. *)
let[@olia.alloc_free] hop t (p : Packet.t) =
  let now = Sim.now t.sim in
  Sim.schedule_pkt ~src:"pipe.deliver" t.sim ~sched:now (now +. t.delay) p

(* A wired queue's slot calls this once it has admitted the packet and
   stepped its hop index past the pipe's own slot: the arrival is armed
   exactly as if the queue's serve event had called [hop] at the
   departure. *)
let[@olia.alloc_free] send t (p : Packet.t) =
  let dep = p.times.departs in
  Sim.schedule_pkt ~src:"pipe.deliver" t.sim ~sched:dep (dep +. t.delay) p

let delay t = t.delay
