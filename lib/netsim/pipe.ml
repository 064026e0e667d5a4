type t = { sim : Sim.t; delay : float }

let create ~sim ~delay =
  (* NaN fails both comparisons *)
  if not (delay >= 0. && delay < infinity) then
    invalid_arg
      (Printf.sprintf "Pipe.create: delay must be finite and >= 0 (got %g)"
         delay);
  { sim; delay }

(* The packet rides in the timer cell itself with its next slot
   resolved at arming ([Packet.next_slot]), and the slot is a closure
   built with the route, so a pipe traversal schedules without
   allocating and its dispatch calls the slot directly. *)
let[@olia.alloc_free] hop t (p : Packet.t) =
  let slot = Packet.next_slot p in
  ignore
    (Sim.schedule_pkt_after ~src:"pipe.deliver" t.sim t.delay slot p
      : Sim.Timer.t)

(* A wired queue's slot calls this once it has admitted the packet and
   stepped its hop index past the pipe's own slot: the arrival is armed
   exactly as if the queue's serve event had called [hop] at the
   departure. *)
let[@olia.alloc_free] send t (p : Packet.t) =
  let dep = p.times.departs in
  let slot = Packet.next_slot p in
  ignore
    (Sim.schedule_pkt_at_sched ~src:"pipe.deliver" t.sim ~sched:dep
       (dep +. t.delay) slot p
      : Sim.Timer.t)

let delay t = t.delay
