module Trace = Repro_obs.Trace
module Invariant = Repro_stats.Invariant

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
   busy->idle transition, which under light load is once per packet, and
   a wired queue moves [head_start] at every departure. *)
type fl_state = {
  mutable avg_queue : float; (* RED's EWMA of the backlog *)
  mutable idle_since : float; (* when the queue last went idle *)
  mutable head_start : float; (* wired: service start of the head packet *)
}

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
  mutable ring : Packet.t array;
  (* A wired queue hands each packet to its wire at admission and keeps
     only what its departure still owes the queue: per slot the
     departure time in [deps] and, in two bytes of [tags], the size and
     kind ([size lsl 1 lor kind code]). Slots from [head] on are the
     packets not yet known to have left; each one's service starts at
     its predecessor's departure, the head's at [fl.head_start].
     Storage comes with the first route slot: [hop] allocates the ring,
     [wired_hop] the departure slots, and the other stays empty, so a
     queue is wired iff it has departure slots. *)
  mutable deps : floatarray;
  mutable tags : Bytes.t;
  mutable head_seq : int;
      (* wired: the sequence number the head's serve event would have
         taken ([Sim.next_seq] at its admission) while the head opened
         the busy period, else -1 *)
  mutable head : int; (* slot of the packet in service, or next to serve *)
  mutable on_served : unit -> unit; (* persistent serve-completion fn *)
  mutable busy : bool;
  mutable backlog : int; (* packets in the ring *)
  fl : fl_state;
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

let[@inline] wired t = Float.Array.length t.deps > 0
let[@inline] tag_at t slot = Bytes.get_uint16_le t.tags (2 * slot)
let[@inline] slot_is_data t slot =
  if wired t then tag_at t slot land 1 = Packet.kind_code Packet.Data
  else is_data t.ring.(slot)

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
    let cap = t.buffer_pkts in
    for i = 0 to t.backlog - 1 do
      if slot_is_data t ((t.head + i) mod cap) then incr queued_data
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
    t.fl.idle_since <- Sim.now t.sim
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

let no_deps = Float.Array.create 0

let create ~sim ~rng ~rate_bps ~buffer_pkts ~discipline ?(name = "queue") () =
  (* NaN fails both comparisons: a NaN rate would make RED's thresholds
     NaN and drop every packet *)
  if not (rate_bps > 0. && rate_bps < infinity) then
    invalid_arg
      (Printf.sprintf "Queue.create: rate must be finite and > 0 (got %g)"
         rate_bps);
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
      ring = [||];
      deps = no_deps;
      tags = Bytes.empty;
      head_seq = -1;
      head = 0;
      on_served = (fun () -> ());
      busy = false;
      backlog = 0;
      fl = { avg_queue = 0.; idle_since = 0.; head_start = 0. };
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
    let idle = Sim.now t.sim -. t.fl.idle_since in
    let pkt_time = float_of_int (8 * Packet.data_size) /. t.rate_bps in
    if idle > 0. && pkt_time > 0. then
      t.fl.avg_queue <-
        t.fl.avg_queue *. ((1. -. params.weight) ** (idle /. pkt_time))
  end;
  t.fl.avg_queue <-
    ((1. -. params.weight) *. t.fl.avg_queue)
    +. (params.weight *. float_of_int t.backlog);
  let p_b = red_drop_probability params t.fl.avg_queue in
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

(* Count an arrival and make the overflow/RED decision: a refused
   packet is counted, traced and freed here, and the result is [true]. *)
let[@inline] refused t (p : Packet.t) =
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
    Packet.free p;
    true
  end
  else false

let[@olia.alloc_free] enqueue t (p : Packet.t) =
  if not (refused t p) then begin
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

(* --- wired queues ---

   The departures are those [serve] would produce, computed with the
   same float operations: an idle queue starts service at once and a
   busy one when its tail departs, so [dep = start +. service time]
   with [start] the admission instant or the tail's departure. Nothing
   is scheduled: a departure has happened once [Sim.departed] says the
   serve event for it would have run before the current event, and
   [retire] applies the queue's share of that event — the byte count,
   the conservation counter, the busy->idle transition — lazily, before
   anything reads or changes the queue. *)

let[@olia.alloc_free] rec retire t =
  if t.backlog > 0 then begin
    let h = t.head in
    let dep = Float.Array.unsafe_get t.deps h in
    if Sim.departed t.sim dep t.fl.head_start t.head_seq then begin
      let tag = tag_at t h in
      t.bytes_forwarded <- t.bytes_forwarded + (tag lsr 1);
      if tag land 1 = Packet.kind_code Packet.Data then
        t.dbg_data_done <- t.dbg_data_done + 1;
      t.head <- (if h + 1 = t.buffer_pkts then 0 else h + 1);
      t.backlog <- t.backlog - 1;
      t.fl.head_start <- dep;
      t.head_seq <- -1;
      if t.backlog = 0 then begin
        t.busy <- false;
        t.fl.idle_since <- dep
      end;
      retire t
    end
  end

(* Admit or refuse a packet at a wired queue: [true] once the packet is
   queued with its departure stamped in [times.departs], for the slot
   to hand it to its wire; a refused packet is already freed. *)
let[@olia.alloc_free] admit t (p : Packet.t) =
  retire t;
  let admitted = not (refused t p) in
  if admitted then begin
    if p.size_bytes > 0x7fff then
      invalid_arg "Queue: packet too large for a wired queue";
    let now = Sim.now t.sim in
    p.times.enqueued_at <- now;
    let tail = t.head + t.backlog in
    let tail = if tail >= t.buffer_pkts then tail - t.buffer_pkts else tail in
    let start =
      if t.backlog = 0 then begin
        t.fl.head_start <- now;
        t.head_seq <- Sim.next_seq t.sim;
        now
      end
      else
        Float.Array.unsafe_get t.deps
          (if tail = 0 then t.buffer_pkts - 1 else tail - 1)
    in
    let dep = start +. service_time t p in
    Float.Array.unsafe_set t.deps tail dep;
    Bytes.set_uint16_le t.tags (2 * tail)
      ((p.size_bytes lsl 1) lor Packet.kind_code p.kind);
    t.backlog <- t.backlog + 1;
    t.busy <- true;
    if Trace.enabled () then begin
      Trace.pkt_enqueue ~time:now ~queue:t.name_id ~flow:p.flow
        ~subflow:p.subflow ~seq:p.seq
        ~kind:(Packet.kind_code p.kind)
        ~backlog:t.backlog;
      Trace.pkt_depart ~time:dep ~sched:start ~queue:t.name_id ~flow:p.flow
        ~subflow:p.subflow ~seq:p.seq
        ~kind:(Packet.kind_code p.kind)
        ~bytes:p.size_bytes ~qdelay:(dep -. now)
    end;
    p.times.departs <- dep
  end;
  check_invariants t;
  admitted

type wire = Pipe of Pipe.t | Channel of Shard.channel

(* The wired slot steps the packet past its wire's route slot and arms
   the wire itself, so a link hop is one call from the arrival's
   dispatch to the next arrival's arming. *)
let[@olia.alloc_free] into_pipe t pipe (p : Packet.t) =
  if admit t p then begin
    p.hop <- p.hop + 1;
    Pipe.send pipe p
  end

let into_channel t ch (p : Packet.t) =
  if admit t p then begin
    p.hop <- p.hop + 1;
    Shard.send ch p
  end

let wired_hop t wire =
  if Array.length t.ring > 0 then
    invalid_arg
      ("Queue.wired_hop: queue " ^ t.name ^ " has an unwired slot (Queue.hop)");
  if not (wired t) then begin
    t.deps <- Float.Array.make t.buffer_pkts 0.;
    t.tags <- Bytes.make (2 * t.buffer_pkts) '\000'
  end;
  match wire with
  | Pipe pipe -> into_pipe t pipe
  | Channel ch -> into_channel t ch

let hop t =
  if wired t then
    invalid_arg
      ("Queue.hop: queue " ^ t.name
     ^ " is wired; its slot names its wire (Queue.wired_hop)");
  if Array.length t.ring = 0 then begin
    t.ring <- Array.make t.buffer_pkts (Packet.sentinel ());
    t.on_served <- (fun () -> finish_service t)
  end;
  enqueue t

let backlog t =
  if wired t then retire t;
  t.backlog
let capacity t = t.buffer_pkts
let arrivals t = t.arrivals
let drops t = t.drops
let drops_overflow t = t.drops_overflow
let drops_red t = t.drops_red

let loss_probability t =
  if t.arrivals = 0 then 0.
  else float_of_int t.drops /. float_of_int t.arrivals

let bytes_forwarded t =
  if wired t then retire t;
  t.bytes_forwarded

let utilization t ~since ~now =
  let dt = now -. since in
  if dt <= 0. then 0.
  else float_of_int (8 * bytes_forwarded t) /. (t.rate_bps *. dt)

let reset_stats t =
  if wired t then retire t;
  t.arrivals <- 0;
  t.drops <- 0;
  t.drops_overflow <- 0;
  t.drops_red <- 0;
  t.bytes_forwarded <- 0
