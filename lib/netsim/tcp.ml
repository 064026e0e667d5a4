module Trace = Repro_obs.Trace
module Invariant = Repro_stats.Invariant

type path = { fwd : Packet.hop array; rev : Packet.hop array }

(* The per-ACK floats live in float-only records, as in [Packet.stamps]:
   a float field of a mixed record points at a boxed float, so every
   store to it allocates 2 words and takes a write barrier, and every
   read joined with a computed float in an [if] boxes the other side. *)
type limits = {
  rcv_wnd : float;  (* receive-window cap on each subflow's cwnd, packets *)
}

type sub_floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : float;
  mutable inc_cached : float;  (* cached congestion-avoidance increase *)
}

type conn = {
  sim : Sim.t;
  rcv_sim : Sim.t;
      (* event loop of the receiver endpoint; [sim] unless the receiver
         lives in another shard's domain (see Shard). Receiver-side
         state (rcv_cum, ooo) is mutated only on this loop, sender-side
         state only on [sim]'s — the two field sets are disjoint, so
         the split needs no locking. *)
  cc : Repro_cc.Cc_types.t;
  flow_id : int;
  mutable subs : sub array;
  mutable views : Repro_cc.Cc_types.subflow_view array;
      (* one long-lived view per subflow, refreshed in place on use *)
  mutable unassigned : int;  (* packets not yet assigned to a subflow; -1 = infinite *)
  mutable completed : bool;
  mutable completion_time : float option;
  size_pkts : int option;
  on_complete : (float -> unit) option;
  limits : limits;
}

and sub = {
  conn : conn;
  idx : int;
  mutable fwd_route : Packet.hop array;  (* ends at this subflow's sink handler *)
  mutable rev_route : Packet.hop array;  (* ends at the ACK handler *)
  f : sub_floats;
  (* sender state *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable limit : int;  (* packets assigned to this subflow (finite flows) *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable rto_timer : Sim.Timer.t;
  mutable rto_fire : unit -> unit;  (* persistent RTO callback *)
  mutable retransmits : int;
  mutable timeouts : int;
  sacked : Seqset.t;  (* scoreboard of SACKed sequences, base snd_una *)
  mutable high_rtx : int;  (* highest seq retransmitted this recovery *)
  mutable inc_credit : int;  (* newly-acked packets the cache still covers *)
  mutable enabled : bool;  (* path manager can stop new data on a subflow *)
  (* receiver state *)
  mutable rcv_cum : int;  (* next expected sequence number *)
  ooo : Seqset.t;  (* out-of-order data held, base rcv_cum *)
}

let fmax = Repro_cc.Cc_types.fmax
let fmin = Repro_cc.Cc_types.fmin

let[@inline] min_ssthresh sub =
  if Array.length sub.conn.subs > 1 then
    match sub.conn.cc.Repro_cc.Cc_types.multipath_initial_ssthresh with
    | Some s -> s
    | None -> 2.
  else 2.

let flight sub = sub.snd_nxt - sub.snd_una
let[@inline] invalidate_increase sub = sub.inc_credit <- 0

(* cwnd is measured in MSS-sized packets: below one MSS the ACK clock
   stalls and the subflow silently starves, which shows up downstream
   as an inexplicable throughput collapse — catch it at the source. *)
let check_window sub =
  if Invariant.enabled () then begin
    Invariant.require (sub.f.cwnd >= 1.)
      (Printf.sprintf "tcp flow %d subflow %d: cwnd %g < 1 MSS"
         sub.conn.flow_id sub.idx sub.f.cwnd);
    Invariant.require
      (sub.snd_una <= sub.snd_nxt)
      (Printf.sprintf "tcp flow %d subflow %d: snd_una %d > snd_nxt %d"
         sub.conn.flow_id sub.idx sub.snd_una sub.snd_nxt)
  end

(* Trace helpers. All callers capture [Trace.enabled ()] once on entry
   and thread it through, so the tracing-off path costs one ref read per
   instrumented function and allocates nothing (tcp_state values are
   constant constructors). *)
let trace_state sub =
  if sub.in_recovery then Trace.Fast_recovery
  else if sub.f.cwnd < sub.f.ssthresh then Trace.Slow_start
  else Trace.Congestion_avoidance

let emit_transition sub ~from_state =
  let to_state = trace_state sub in
  if to_state <> from_state then
    Trace.tcp_state ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
      ~subflow:sub.idx ~from_state ~to_state

let emit_cwnd sub =
  Trace.cwnd_update ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
    ~subflow:sub.idx ~cwnd:sub.f.cwnd ~ssthresh:sub.f.ssthresh

let views conn =
  let vs = conn.views in
  let subs = conn.subs in
  for i = 0 to Array.length subs - 1 do
    let s = subs.(i) in
    let v = vs.(i) in
    v.Repro_cc.Cc_types.cwnd <- s.f.cwnd;
    v.Repro_cc.Cc_types.rtt <- (if s.f.srtt > 0. then s.f.srtt else 0.1)
  done;
  vs

(* --- sending ------------------------------------------------------- *)

let transmit sub seq =
  if Invariant.enabled () then begin
    Invariant.require
      (Array.length sub.fwd_route > 0)
      (Printf.sprintf "tcp flow %d subflow %d: empty forward route"
         sub.conn.flow_id sub.idx);
    Invariant.require (seq >= sub.snd_una)
      (Printf.sprintf
         "tcp flow %d subflow %d: transmitting seq %d below snd_una %d"
         sub.conn.flow_id sub.idx seq sub.snd_una)
  end;
  let p =
    Packet.data ~flow:sub.conn.flow_id ~subflow:sub.idx ~seq
      ~sent_at:(Sim.now sub.conn.sim) ~route:sub.fwd_route
  in
  Packet.forward p

(* RFC 6298 timer management on a single persistent timer per subflow:
   [restart_rto] moves the deadline (or arms the timer if idle) when new
   data is acknowledged; [ensure_rto] arms it, without pushing an
   existing deadline, when data is transmitted. The old idiom of
   scheduling an orphan closure and re-checking a stale deadline at fire
   time is gone: the timer's deadline is always the real one. *)
let restart_rto sub =
  let sim = sub.conn.sim in
  let deadline = Sim.now sim +. sub.f.rto in
  if Sim.Timer.active sim sub.rto_timer then
    Sim.Timer.reschedule sim sub.rto_timer deadline
  else
    sub.rto_timer <- Sim.schedule_at ~src:"tcp.rto" sim deadline sub.rto_fire

let ensure_rto sub =
  let sim = sub.conn.sim in
  if not (Sim.Timer.active sim sub.rto_timer) then
    sub.rto_timer <-
      Sim.schedule_at ~src:"tcp.rto" sim
        (Sim.now sim +. sub.f.rto)
        sub.rto_fire

let on_timeout sub =
  let traced = Trace.enabled () in
  let from_state = if traced then trace_state sub else Trace.Slow_start in
  if traced then
    Trace.rto_fired ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
      ~subflow:sub.idx ~rto:sub.f.rto;
  sub.timeouts <- sub.timeouts + 1;
  invalidate_increase sub;
  sub.conn.cc.Repro_cc.Cc_types.on_loss ~idx:sub.idx;
  let fl = float_of_int (flight sub) in
  sub.f.ssthresh <- fmax (fl /. 2.) (min_ssthresh sub);
  sub.f.cwnd <- 1.;
  sub.dupacks <- 0;
  sub.in_recovery <- false;
  sub.retransmits <- sub.retransmits + 1;
  (* go-back-N: everything past the last cumulative ACK is resent as the
     window reopens *)
  sub.snd_nxt <- sub.snd_una;
  sub.high_rtx <- sub.snd_una - 1;
  sub.f.rto <- fmin (2. *. sub.f.rto) 60.;
  transmit sub sub.snd_una;
  sub.snd_nxt <- sub.snd_una + 1;
  restart_rto sub;
  if traced then begin
    emit_transition sub ~from_state;
    emit_cwnd sub
  end;
  check_window sub

let can_assign sub =
  if sub.snd_nxt < sub.limit then true
  else if sub.conn.unassigned < 0 then begin
    (* infinite flow: extend the assignment lazily *)
    sub.limit <- sub.snd_nxt + 1;
    true
  end
  else if sub.conn.unassigned > 0 then begin
    sub.conn.unassigned <- sub.conn.unassigned - 1;
    sub.limit <- sub.limit + 1;
    true
  end
  else false

(* Limited transmit (RFC 3042): the first two duplicate ACKs may clock out
   new segments beyond the congestion window. *)
let effective_window sub =
  int_of_float (fmin sub.f.cwnd sub.conn.limits.rcv_wnd)
  + if sub.in_recovery then 0 else Int.min sub.dupacks 2

let rec try_send sub =
  if sub.enabled && (not sub.conn.completed)
     && flight sub < effective_window sub then
    if can_assign sub then begin
      (* data after an idle period gets a fresh timer *)
      if flight sub = 0 then restart_rto sub;
      let seq = sub.snd_nxt in
      sub.snd_nxt <- sub.snd_nxt + 1;
      if Seqset.mem sub.sacked seq then
        (* the receiver already holds this segment (go-back-N skip) *)
        try_send sub
      else begin
        transmit sub seq;
        ensure_rto sub;
        try_send sub
      end
    end

(* --- receiving acks ------------------------------------------------ *)

(* RTO floor, seconds: Linux's tcp_rto_min. *)
let min_rto = 0.2

(* Inlined so [echo] stays unboxed: a float argument to an out-of-line
   call is passed boxed. *)
let[@inline] sample_rtt sub echo =
  let f = sub.f in
  let rtt = Sim.now sub.conn.sim -. echo in
  if rtt > 0. then begin
    if f.srtt <= 0. then begin
      f.srtt <- rtt;
      f.rttvar <- rtt /. 2.
    end
    else begin
      f.rttvar <- (0.75 *. f.rttvar) +. (0.25 *. abs_float (f.srtt -. rtt));
      f.srtt <- (0.875 *. f.srtt) +. (0.125 *. rtt)
    end;
    (* Linux floors rttvar at tcp_rto_min/4, so RTO ≈ srtt + 200 ms even
       when the RTT variance collapses; this absorbs queueing-delay spikes
       at the bottleneck without spurious timeouts. *)
    let rttvar = fmax f.rttvar (min_rto /. 4.) in
    f.rto <- fmin 60. (fmax (f.srtt +. (4. *. rttvar)) min_rto);
    if Trace.enabled () then
      Trace.rtt_sample ~time:(Sim.now sub.conn.sim) ~flow:sub.conn.flow_id
        ~subflow:sub.idx ~rtt ~srtt:f.srtt
  end

let check_completion conn =
  match conn.size_pkts with
  | None -> ()
  | Some size ->
    let acked = Array.fold_left (fun a s -> a + s.snd_una) 0 conn.subs in
    if acked >= size && not conn.completed then begin
      conn.completed <- true;
      (* lint: allow R9 -- completion transition runs exactly once per connection *)
      conn.completion_time <- Some (Sim.now conn.sim);
      Array.iter
        (* lint: allow R9 -- same once-per-connection transition as above *)
        (fun s -> Sim.Timer.cancel conn.sim s.rto_timer)
        conn.subs;
      match conn.on_complete with
      | Some f -> f (Sim.now conn.sim)
      | None -> ()
    end

(* RFC 6675-style NextSeg: the lowest hole in [snd_una, recover) that has
   not been retransmitted in this recovery episode, or -1 if there is
   none. The scan is a toplevel recursion (a local [rec] closure would
   capture [sub] and allocate on every call). *)
let rec find_hole sub seq =
  if seq >= sub.recover then -1
  else if Seqset.mem sub.sacked seq then find_hole sub (seq + 1)
  else seq

let retransmit_hole sub =
  let seq = find_hole sub (Int.max sub.snd_una (sub.high_rtx + 1)) in
  if seq < 0 then false
  else begin
    sub.retransmits <- sub.retransmits + 1;
    sub.high_rtx <- seq;
    transmit sub seq;
    true
  end

let enter_recovery sub =
  let conn = sub.conn in
  let traced = Trace.enabled () in
  let from_state = if traced then trace_state sub else Trace.Slow_start in
  invalidate_increase sub;
  conn.cc.Repro_cc.Cc_types.on_loss ~idx:sub.idx;
  let v = views conn in
  let decrease = conn.cc.Repro_cc.Cc_types.loss_decrease ~views:v ~idx:sub.idx in
  sub.f.ssthresh <- fmax (sub.f.cwnd -. decrease) (min_ssthresh sub);
  sub.recover <- sub.snd_nxt;
  sub.in_recovery <- true;
  sub.high_rtx <- sub.snd_una - 1;
  ignore (retransmit_hole sub);
  sub.f.cwnd <- sub.f.ssthresh +. float_of_int sub.dupacks;
  ensure_rto sub;
  if traced then emit_transition sub ~from_state;
  check_window sub

(* The coupled increase (e.g. OLIA's alpha) is a whole-connection
   computation — O(subflows) work and allocation per call — for a value
   that only drifts on RTT timescales. Refresh it once per cwnd of
   newly-acked packets and spend the cached value in between; every
   cwnd/ssthresh discontinuity (loss, timeout, recovery exit, path-
   manager changes) invalidates the cache so the next ACK recomputes. *)
let congestion_avoidance_increase sub newly =
  let conn = sub.conn in
  if sub.inc_credit <= 0 then begin
    let v = views conn in
    sub.f.inc_cached <-
      conn.cc.Repro_cc.Cc_types.increase ~views:v ~idx:sub.idx;
    sub.inc_credit <- Int.max 1 (int_of_float sub.f.cwnd)
  end;
  sub.inc_credit <- sub.inc_credit - newly;
  sub.f.cwnd <-
    fmax 1. (sub.f.cwnd +. (float_of_int newly *. sub.f.inc_cached))

let on_new_ack sub ackno =
  let conn = sub.conn in
  let traced = Trace.enabled () in
  let from_state = if traced then trace_state sub else Trace.Slow_start in
  let newly = ackno - sub.snd_una in
  sub.snd_una <- ackno;
  Seqset.advance sub.sacked ackno;
  (* after a go-back-N rewind the receiver may already hold later data *)
  if ackno > sub.snd_nxt then sub.snd_nxt <- ackno;
  conn.cc.Repro_cc.Cc_types.on_ack ~idx:sub.idx ~acked:newly;
  if sub.in_recovery then begin
    if ackno > sub.recover then begin
      (* full ACK: leave recovery, deflate to ssthresh *)
      invalidate_increase sub;
      sub.in_recovery <- false;
      sub.dupacks <- 0;
      sub.f.cwnd <- fmax 1. sub.f.ssthresh
    end
    else begin
      (* partial ACK: retransmit the next hole, deflate *)
      ignore (retransmit_hole sub);
      sub.f.cwnd <- fmax 1. (sub.f.cwnd -. float_of_int newly +. 1.)
    end
  end
  else begin
    sub.dupacks <- 0;
    if sub.f.cwnd < sub.f.ssthresh then
      (* slow start, with appropriate-byte-counting capped at 2 packets
         per ACK so cumulative jumps after recovery do not cause bursts *)
      sub.f.cwnd <- sub.f.cwnd +. float_of_int (Int.min newly 2)
    else congestion_avoidance_increase sub newly
  end;
  (* restart unconditionally: at w = 1 the flight is momentarily zero here
     (the next segment goes out in try_send just after), and a stale
     deadline would fire spuriously mid-flight *)
  restart_rto sub;
  if traced then begin
    emit_transition sub ~from_state;
    emit_cwnd sub
  end;
  check_window sub;
  check_completion conn

(* Early retransmit (RFC 5827): with fewer than four segments in flight the
   duplicate-ACK threshold drops to flight-1, so small windows can still
   recover without a timeout. *)
let dupack_threshold sub =
  let fl = flight sub in
  if fl >= 4 then 3 else Int.max 1 (fl - 1)

let on_dup_ack sub =
  if sub.in_recovery then begin
    (* each duplicate means a packet left the network: retransmit the next
       SACK hole if any, else inflate to clock out new data *)
    if not (retransmit_hole sub) then sub.f.cwnd <- sub.f.cwnd +. 1.
  end
  else begin
    sub.dupacks <- sub.dupacks + 1;
    if sub.dupacks >= dupack_threshold sub then enter_recovery sub
  end;
  if Trace.enabled () then emit_cwnd sub;
  check_window sub

let record_sack sub lo hi =
  for seq = Int.max lo sub.snd_una to hi - 1 do
    Seqset.add sub.sacked seq
  done

let[@olia.alloc_free] ack_handler sub (p : Packet.t) =
  (match p.kind with
  | Packet.Data -> assert false
  | Packet.Ack ->
    if not sub.conn.completed then begin
      let ackno = p.ackno in
      sample_rtt sub p.times.echo;
      record_sack sub p.sack_lo p.sack_hi;
      (* the packet goes back to the pool before the ACK is processed:
         nothing below reads it, and the cell is free for reuse by
         whatever try_send transmits *)
      Packet.free p;
      if ackno > sub.snd_una then on_new_ack sub ackno
      else if ackno = sub.snd_una then on_dup_ack sub;
      try_send sub
    end
    else Packet.free p)

(* --- receiver ------------------------------------------------------ *)

(* The SACK block is the contiguous run of out-of-order data around the
   segment that just arrived, as a real receiver would report first.
   The run bounds walk tail-recursively rather than through local
   [ref]s. *)
let rec run_lo sub lo =
  if Seqset.mem sub.ooo (lo - 1) then run_lo sub (lo - 1) else lo

let rec run_hi sub hi =
  if Seqset.mem sub.ooo hi then run_hi sub (hi + 1) else hi

(* Inlined, like [sample_rtt], so [echo] stays unboxed. *)
let[@inline] send_ack sub ~echo ~sack_lo ~sack_hi =
  let ack =
    Packet.ack ~flow:sub.conn.flow_id ~subflow:sub.idx ~ackno:sub.rcv_cum
      ~echo ~sack_lo ~sack_hi ~route:sub.rev_route
      ~sent_at:(Sim.now sub.conn.rcv_sim)
  in
  Packet.forward ack

let[@olia.alloc_free] sink_handler sub (p : Packet.t) =
  match p.kind with
  | Packet.Ack -> assert false
  | Packet.Data ->
    let seq = p.seq in
    let sent_at = p.times.sent_at in
    (* the sink owns the segment; recycle it before building the ACK so
       the ACK reuses the same pool cell *)
    Packet.free p;
    if seq = sub.rcv_cum then begin
      sub.rcv_cum <- run_hi sub (seq + 1);
      Seqset.advance sub.ooo sub.rcv_cum
    end
    else if seq > sub.rcv_cum then Seqset.add sub.ooo seq;
    (* every segment is acknowledged at once; out-of-order data carries
       a SACK block, in-order and duplicate data the empty one *)
    let held = Seqset.mem sub.ooo seq in
    send_ack sub ~echo:sent_at
      ~sack_lo:(if held then run_lo sub seq else 0)
      ~sack_hi:(if held then run_hi sub (seq + 1) else 0)

(* --- construction --------------------------------------------------- *)

let create ~sim ?rcv_sim ~cc ~paths ?size_pkts ?(start = 0.)
    ?(initial_cwnd = 2.) ?(rcv_wnd = 10_000.) ?on_complete ~flow_id () =
  if Array.length paths = 0 then invalid_arg "Tcp.create: no paths";
  let rcv_sim = match rcv_sim with Some s -> s | None -> sim in
  let conn =
    {
      sim;
      rcv_sim;
      cc;
      flow_id;
      subs = [||];
      views = [||];
      unassigned = (match size_pkts with None -> -1 | Some s -> s);
      completed = false;
      completion_time = None;
      size_pkts;
      on_complete;
      limits = { rcv_wnd };
    }
  in
  let multipath = Array.length paths > 1 in
  let initial_ssthresh =
    if multipath then
      match cc.Repro_cc.Cc_types.multipath_initial_ssthresh with
      | Some s -> s
      | None -> infinity
    else infinity
  in
  let make_sub idx (path : path) =
    let sub =
      {
        conn;
        idx;
        fwd_route = [||];
        rev_route = [||];
        f =
          {
            cwnd = initial_cwnd;
            ssthresh = initial_ssthresh;
            srtt = 0.;
            rttvar = 0.;
            rto = 1.;
            inc_cached = 0.;
          };
        snd_una = 0;
        snd_nxt = 0;
        limit = 0;
        dupacks = 0;
        in_recovery = false;
        recover = 0;
        rto_timer = Sim.Timer.none;
        rto_fire = ignore;
        retransmits = 0;
        timeouts = 0;
        sacked = Seqset.create ();
        high_rtx = -1;
        inc_credit = 0;
        enabled = true;
        rcv_cum = 0;
        ooo = Seqset.create ();
      }
    in
    sub.fwd_route <- Array.append path.fwd [| sink_handler sub |];
    sub.rev_route <- Array.append path.rev [| ack_handler sub |];
    sub.rto_fire <-
      (fun () ->
        if (not sub.conn.completed) && flight sub > 0 then on_timeout sub);
    sub
  in
  conn.subs <- Array.mapi make_sub paths;
  conn.views <-
    Array.map
      (fun _ -> { Repro_cc.Cc_types.cwnd = 0.; rtt = 0.1 })
      conn.subs;
  Array.iteri
    (fun idx sub ->
      ignore
        (Sim.schedule_at ~src:"tcp.start" sim start (fun () ->
             if Trace.enabled () then
               Trace.subflow_add ~time:(Sim.now sim) ~flow:conn.flow_id
                 ~subflow:idx;
             try_send sub)
          : Sim.Timer.t))
    conn.subs;
  conn

let subflow_count conn = Array.length conn.subs

let total_acked conn =
  Array.fold_left (fun a s -> a + s.snd_una) 0 conn.subs

let completed conn = conn.completed
let completion_time conn = conn.completion_time
let subflow_cwnd conn idx = conn.subs.(idx).f.cwnd
let subflow_ssthresh conn idx = conn.subs.(idx).f.ssthresh
let subflow_rtt conn idx = conn.subs.(idx).f.srtt
let subflow_acked conn idx = conn.subs.(idx).snd_una
let subflow_retransmits conn idx = conn.subs.(idx).retransmits
let subflow_timeouts conn idx = conn.subs.(idx).timeouts

let set_subflow_enabled conn idx enabled =
  let sub = conn.subs.(idx) in
  if Trace.enabled () && sub.enabled <> enabled then
    if enabled then
      Trace.subflow_add ~time:(Sim.now conn.sim) ~flow:conn.flow_id
        ~subflow:idx
    else
      Trace.subflow_remove ~time:(Sim.now conn.sim) ~flow:conn.flow_id
        ~subflow:idx;
  (* the subflow set feeds every subflow's coupled increase *)
  Array.iter invalidate_increase conn.subs;
  sub.enabled <- enabled;
  if enabled then try_send sub

let subflow_enabled conn idx = conn.subs.(idx).enabled
