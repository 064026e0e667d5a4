module Trace = Repro_obs.Trace

type red_params = {
  min_th : float;
  max_th : float;
  max_p : float;
  weight : float;
}

let paper_red ~link_mbps =
  let scale = link_mbps /. 10. in
  {
    min_th = 25. *. scale;
    max_th = 50. *. scale;
    max_p = 0.1;
    weight = 0.002;
  }

type discipline = Droptail | Red of red_params

(* Float-only so stores stay unboxed: [idle_since] is written on every
   busy->idle transition, which under light load is once per packet. *)
type red_state = { mutable avg_queue : float; mutable idle_since : float }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  rate_bps : float;
  buffer_pkts : int;
  discipline : discipline;
  name : string;
  name_id : int; (* [Trace.intern name], so armed emission never touches the string *)
  (* FIFO as a ring over a preallocated array (the backlog is bounded
     by [buffer_pkts]), so enqueue/dequeue never allocate. The ring
     holds all [backlog] packets from [head] on, the one in service
     included: it stays in its slot until its service ends, so a hop
     stores one packet pointer. Vacated slots keep stale pointers to
     pool-owned packets rather than pay a write barrier to clear them. *)
  ring : Packet.t array;
  mutable head : int; (* slot of the packet in service, or next to serve *)
  mutable on_served : unit -> unit; (* persistent serve-completion fn *)
  mutable busy : bool;
  mutable backlog : int; (* packets in the ring *)
  red : red_state;
  mutable red_count : int;  (* packets since the last RED drop *)
  mutable arrivals : int;
  mutable drops : int;
  mutable drops_overflow : int;  (* data drops from a full buffer *)
  mutable drops_red : int;  (* data drops from RED early marking *)
  mutable bytes_forwarded : int;
  (* conservation counters for Invariant checks: never reset by
     [reset_stats], so in = dropped + delivered + queued always holds *)
  mutable dbg_data_in : int;
  mutable dbg_data_dropped : int;
  mutable dbg_data_done : int;
}

let[@inline] service_time t (p : Packet.t) =
  float_of_int (8 * p.size_bytes) /. t.rate_bps

let is_data (p : Packet.t) =
  match p.kind with Packet.Data -> true | Packet.Ack -> false

(* Packet conservation and occupancy, checked at every state change
   when OLIA_DEBUG_INVARIANTS is set: every data packet that ever
   arrived is accounted for as dropped, delivered, queued or in
   service, and the backlog tracks the fifo exactly and never exceeds
   the buffer. *)
let check_invariants t =
  if Invariant.enabled () then begin
    Invariant.require
      (t.backlog >= 0 && t.backlog <= t.buffer_pkts)
      (Printf.sprintf "queue %s: backlog %d outside [0, %d]" t.name t.backlog
         t.buffer_pkts);
    Invariant.require
      (t.busy = (t.backlog > 0))
      (Printf.sprintf "queue %s: busy %b with backlog %d" t.name t.busy
         t.backlog);
    let queued_data = ref 0 in
    let cap = Array.length t.ring in
    for i = 0 to t.backlog - 1 do
      if is_data t.ring.((t.head + i) mod cap) then incr queued_data
    done;
    Invariant.require
      (t.dbg_data_in = t.dbg_data_dropped + t.dbg_data_done + !queued_data)
      (Printf.sprintf
         "queue %s: data packets not conserved (in %d <> dropped %d + \
          delivered %d + queued %d)"
         t.name t.dbg_data_in t.dbg_data_dropped t.dbg_data_done !queued_data)
  end

let[@olia.alloc_free] rec serve t =
  if t.backlog = 0 then begin
    t.busy <- false;
    t.red.idle_since <- Sim.now t.sim
  end
  else begin
    t.busy <- true;
    ignore
      (Sim.schedule_after ~src:"queue.serve" t.sim
         (service_time t t.ring.(t.head))
         t.on_served
        : Sim.Timer.t)
  end

and[@olia.alloc_free] finish_service t =
  let p = t.ring.(t.head) in
  let next = t.head + 1 in
  t.head <- (if next = Array.length t.ring then 0 else next);
  t.backlog <- t.backlog - 1;
  t.bytes_forwarded <- t.bytes_forwarded + p.size_bytes;
  if is_data p then t.dbg_data_done <- t.dbg_data_done + 1;
  if Trace.enabled () then
    Trace.pkt_forward ~time:(Sim.now t.sim) ~queue:t.name_id ~flow:p.flow
      ~subflow:p.subflow ~seq:p.seq
      ~kind:(Packet.kind_code p.kind)
      ~bytes:p.size_bytes
      ~qdelay:(Sim.now t.sim -. p.times.enqueued_at);
  Packet.forward p;
  serve t;
  check_invariants t

let create ~sim ~rng ~rate_bps ~buffer_pkts ~discipline ?(name = "queue") () =
  if rate_bps <= 0. then invalid_arg "Queue.create: rate must be > 0";
  if buffer_pkts <= 0 then invalid_arg "Queue.create: buffer must be > 0";
  let t =
    {
      sim;
      rng;
      rate_bps;
      buffer_pkts;
      discipline;
      name;
      name_id = Trace.intern name;
      ring = Array.make buffer_pkts (Packet.sentinel ());
      head = 0;
      on_served = (fun () -> ());
      busy = false;
      backlog = 0;
      red = { avg_queue = 0.; idle_since = 0. };
      red_count = -1;
      arrivals = 0;
      drops = 0;
      drops_overflow = 0;
      drops_red = 0;
      bytes_forwarded = 0;
      dbg_data_in = 0;
      dbg_data_dropped = 0;
      dbg_data_done = 0;
    }
  in
  t.on_served <- (fun () -> finish_service t);
  t

let[@inline] red_drop_probability params avg =
  if avg < params.min_th then 0.
  else if avg < params.max_th then
    params.max_p *. (avg -. params.min_th) /. (params.max_th -. params.min_th)
  else if avg < 2. *. params.max_th then
    params.max_p +. ((1. -. params.max_p) *. (avg -. params.max_th)
                     /. params.max_th)
  else 1.

let red_decides_drop t params =
  (* EWMA over the instantaneous backlog, updated at each arrival. During
     idle periods the average decays as if small packets had been served
     back-to-back (Floyd & Jacobson's idle handling), so a drained queue
     does not keep dropping based on a stale average. *)
  if (not t.busy) && t.backlog = 0 then begin
    let idle = Sim.now t.sim -. t.red.idle_since in
    let pkt_time = float_of_int (8 * Packet.data_size) /. t.rate_bps in
    if idle > 0. && pkt_time > 0. then
      t.red.avg_queue <-
        t.red.avg_queue *. ((1. -. params.weight) ** (idle /. pkt_time))
  end;
  t.red.avg_queue <-
    ((1. -. params.weight) *. t.red.avg_queue)
    +. (params.weight *. float_of_int t.backlog);
  let p_b = red_drop_probability params t.red.avg_queue in
  if p_b <= 0. then begin
    t.red_count <- -1;
    false
  end
  else if p_b >= 1. then begin
    t.red_count <- 0;
    true
  end
  else begin
    (* Floyd & Jacobson's inter-drop uniformization: spreading drops
       ~1/p_b packets apart avoids the clustered losses within one window
       that would make TCP halve once for several drops. *)
    t.red_count <- t.red_count + 1;
    let denom = 1. -. (float_of_int t.red_count *. p_b) in
    let p_a = if denom <= 0. then 1. else p_b /. denom in
    if Rng.float t.rng < p_a then begin
      t.red_count <- 0;
      true
    end
    else false
  end

let[@olia.alloc_free] enqueue t (p : Packet.t) =
  if is_data p then begin
    t.arrivals <- t.arrivals + 1;
    t.dbg_data_in <- t.dbg_data_in + 1
  end;
  let overflow = t.backlog >= t.buffer_pkts in
  let red_drop =
    (not overflow)
    && (match t.discipline with
       | Droptail -> false
       | Red params -> red_decides_drop t params)
  in
  if overflow || red_drop then begin
    if is_data p then begin
      t.drops <- t.drops + 1;
      if overflow then t.drops_overflow <- t.drops_overflow + 1
      else t.drops_red <- t.drops_red + 1;
      t.dbg_data_dropped <- t.dbg_data_dropped + 1
    end;
    if Trace.enabled () then
      Trace.pkt_drop ~time:(Sim.now t.sim) ~queue:t.name_id ~flow:p.flow
        ~subflow:p.subflow ~seq:p.seq
        ~kind:(Packet.kind_code p.kind)
        ~cause:(if overflow then Trace.Overflow else Trace.Red_early);
    Packet.free p
  end
  else begin
    p.times.enqueued_at <- Sim.now t.sim;
    let tail = t.head + t.backlog in
    let cap = Array.length t.ring in
    t.ring.(if tail >= cap then tail - cap else tail) <- p;
    t.backlog <- t.backlog + 1;
    if Trace.enabled () then
      Trace.pkt_enqueue ~time:(Sim.now t.sim) ~queue:t.name_id ~flow:p.flow
        ~subflow:p.subflow ~seq:p.seq
        ~kind:(Packet.kind_code p.kind)
        ~backlog:t.backlog;
    if not t.busy then serve t
  end;
  check_invariants t

let hop t = enqueue t
let backlog t = t.backlog
let capacity t = t.buffer_pkts
let arrivals t = t.arrivals
let drops t = t.drops
let drops_overflow t = t.drops_overflow
let drops_red t = t.drops_red

let loss_probability t =
  if t.arrivals = 0 then 0.
  else float_of_int t.drops /. float_of_int t.arrivals

let bytes_forwarded t = t.bytes_forwarded

let utilization t ~since ~now =
  let dt = now -. since in
  if dt <= 0. then 0.
  else float_of_int (8 * t.bytes_forwarded) /. (t.rate_bps *. dt)

let reset_stats t =
  t.arrivals <- 0;
  t.drops <- 0;
  t.drops_overflow <- 0;
  t.drops_red <- 0;
  t.bytes_forwarded <- 0

let name t = t.name
