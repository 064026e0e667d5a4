module Trace = Repro_obs.Trace
module Profile = Repro_obs.Profile

type msg = {
  arrival : float;
  egress : float;
      (* the packet's departure from the wired queue feeding the
         channel: the instant the sequential run's pipe arms the
         delivery for. Passed as [~sched] to [Sim.schedule_pkt] so the
         destination wheel breaks same-instant ties exactly like the
         sequential run. *)
  src_shard : int;
  src_seq : int;
      (* send index across ALL of the source shard's channels: the
         order in which the sends executed on the source domain,
         i.e. the order in which the sequential run would have armed
         these deliveries. The merge tie-break after (arrival, egress). *)
  kind : Packet.kind;
  pkt_seq : int;
  flow : int;
  subflow : int;
  hop : int;
  route : Packet.hop array;
  ackno : int;
  sack_lo : int;
  sack_hi : int;
  sent_at : float;
  enqueued_at : float;
  echo : float;
}

type channel = {
  src_shard : int;
  dst_shard : int;
  latency : float;
  src_sim : Sim.t;
  src_counter : int ref;
      (* shared across all channels leaving the same shard; touched
         only by the source domain *)
  (* [passed] and the [ahead] heap are touched only by the source
     domain (inside its window, or after the run); [inbox] is the
     cross-domain hand-off and is the only field both sides touch,
     always under [lock]. Messages are pushed in send order, so the
     reversed list is the channel's FIFO. *)
  mutable passed : int; (* messages whose egress the source clock reached *)
  mutable ahead : floatarray; (* min-heap of the other messages' egress *)
  mutable ahead_len : int;
  lock : Mutex.t;
  mutable inbox : msg list;
}

type t = {
  sims : Sim.t array;
  lookahead : float;
  counters : int ref array;  (* per-shard send counters, one per source *)
  mutable channels : channel list;  (* reverse registration order *)
}

let create ~sims ~lookahead =
  let n = Array.length sims in
  if n = 0 then invalid_arg "Shard.create: no shards";
  if n > 1 && not (Float.is_finite lookahead && lookahead > 0.) then
    invalid_arg "Shard.create: lookahead must be finite and positive";
  { sims; lookahead; counters = Array.init n (fun _ -> ref 0); channels = [] }

let shard_count t = Array.length t.sims
let sim t i = t.sims.(i)

let open_channel t ~src ~dst =
  let n = Array.length t.sims in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Shard.open_channel: shard out of range";
  if src = dst then invalid_arg "Shard.open_channel: src = dst";
  let ch =
    {
      src_shard = src;
      dst_shard = dst;
      latency = t.lookahead;
      src_sim = t.sims.(src);
      src_counter = t.counters.(src);
      passed = 0;
      ahead = Float.Array.make 16 0.;
      ahead_len = 0;
      lock = Mutex.create ();
      inbox = [];
    }
  in
  t.channels <- ch :: t.channels;
  ch

(* --- the egress heap ---

   A message counts as sent once the source clock reaches its egress,
   the instant its packet leaves the wired queue feeding the channel:
   a packet still queued at the horizon never left. Egress times of the
   channel's different queues interleave, so the ones still ahead of
   the clock sit in a binary min-heap. *)

let rec sift_up a i v =
  let parent = (i - 1) / 2 in
  if i > 0 && Float.Array.get a parent > v then begin
    Float.Array.set a i (Float.Array.get a parent);
    sift_up a parent v
  end
  else Float.Array.set a i v

let rec sift_down a n i v =
  let l = (2 * i) + 1 in
  if l >= n then Float.Array.set a i v
  else
    let c =
      if l + 1 < n && Float.Array.get a (l + 1) < Float.Array.get a l then l + 1
      else l
    in
    if Float.Array.get a c < v then begin
      Float.Array.set a i (Float.Array.get a c);
      sift_down a n c v
    end
    else Float.Array.set a i v

(* Count every egress the source clock has reached. *)
let rec pass ch now =
  if ch.ahead_len > 0 && Float.Array.get ch.ahead 0 <= now then begin
    ch.passed <- ch.passed + 1;
    ch.ahead_len <- ch.ahead_len - 1;
    sift_down ch.ahead ch.ahead_len 0
      (Float.Array.get ch.ahead ch.ahead_len);
    pass ch now
  end

let push_ahead ch egress =
  let n = ch.ahead_len in
  if n = Float.Array.length ch.ahead then begin
    let a = Float.Array.make (2 * n) 0. in
    Float.Array.blit ch.ahead 0 a 0 n;
    ch.ahead <- a
  end;
  ch.ahead_len <- n + 1;
  sift_up ch.ahead n egress

(* A send runs on the source domain, inside its window, when the wired
   queue feeding the channel admits the packet: it snapshots the
   packet into an immutable message, recycles the packet into the
   source domain's pool, and parks the message in the inbox. The
   egress is the packet's departure from that queue, so the arrival
   lies at least one service time plus the latency ahead. The
   destination reads the packet's payload only through the message,
   never the (pooled, domain-local) packet record itself. *)
let send ch (p : Packet.t) =
  let egress = p.Packet.times.Packet.departs in
  let now = Sim.now ch.src_sim in
  if not (egress > now) then
    invalid_arg
      "Shard.send: egress not ahead of the clock (a channel must be fed \
       by a wired queue)";
  pass ch now;
  push_ahead ch egress;
  let src_seq = !(ch.src_counter) in
  ch.src_counter := src_seq + 1;
  let m =
    {
      arrival = egress +. ch.latency;
      egress;
      src_shard = ch.src_shard;
      src_seq;
      kind = p.Packet.kind;
      pkt_seq = p.Packet.seq;
      flow = p.Packet.flow;
      subflow = p.Packet.subflow;
      hop = p.Packet.hop;
      route = p.Packet.route;
      ackno = p.Packet.ackno;
      sack_lo = p.Packet.sack_lo;
      sack_hi = p.Packet.sack_hi;
      sent_at = p.Packet.times.Packet.sent_at;
      enqueued_at = p.Packet.times.Packet.enqueued_at;
      echo = p.Packet.times.Packet.echo;
    }
  in
  Packet.free p;
  Mutex.lock ch.lock;
  ch.inbox <- m :: ch.inbox;
  Mutex.unlock ch.lock

let sent_count ch =
  pass ch (Sim.now ch.src_sim);
  ch.passed

let compare_msg a b =
  let c = Float.compare a.arrival b.arrival in
  if c <> 0 then c
  else
    let c = Float.compare a.egress b.egress in
    if c <> 0 then c
    else
      let c = Int.compare a.src_shard b.src_shard in
      if c <> 0 then c else Int.compare a.src_seq b.src_seq

let merge batches = List.sort compare_msg (List.concat batches)

let take_inbox ch =
  Mutex.lock ch.lock;
  let l = ch.inbox in
  ch.inbox <- [];
  Mutex.unlock ch.lock;
  List.rev l

(* Re-materialize one message on the destination shard: a fresh packet
   from this domain's pool, positioned mid-route, delivered at its
   arrival time. The message was sent at admission, at least one
   service time before its egress, so the arrival lies beyond the
   window the message was sent in; one that does not is a broken
   lookahead, not rounding slack. *)
let deliver sim (m : msg) =
  if m.arrival < Sim.now sim then
    invalid_arg
      (Printf.sprintf
         "Shard.deliver: arrival %.17g before the destination clock %.17g"
         m.arrival (Sim.now sim));
  let p =
    match m.kind with
    | Packet.Data ->
      Packet.data ~flow:m.flow ~subflow:m.subflow ~seq:m.pkt_seq
        ~sent_at:m.sent_at ~route:m.route
    | Packet.Ack ->
      Packet.ack ~flow:m.flow ~subflow:m.subflow ~ackno:m.ackno ~echo:m.echo
        ~sack_lo:m.sack_lo ~sack_hi:m.sack_hi ~route:m.route
        ~sent_at:m.sent_at
  in
  p.Packet.hop <- m.hop;
  p.Packet.times.Packet.enqueued_at <- m.enqueued_at;
  Sim.schedule_pkt ~src:"shard.ingress" sim ~sched:m.egress m.arrival p

(* A sense-reversing barrier on a mutex + condition. Two waits per
   window: one after every shard has drained (so nobody starts filling
   inboxes for window w while another shard is still taking window
   w-1's batch), one after every shard has run its window (so the next
   drain sees all of window w's sends). A worker that raises breaks the
   barrier, so the others stop at their next wait instead of waiting
   for it forever, and the pool re-raises its exception. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
    mutable broken : bool;
  }

  let create parties =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      parties;
      count = 0;
      phase = 0;
      broken = false;
    }

  (* [false] once the barrier is broken. *)
  let wait b =
    Mutex.lock b.lock;
    let phase = b.phase in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.phase <- phase + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = phase && not b.broken do
        Condition.wait b.cond b.lock
      done;
    let ok = not b.broken in
    Mutex.unlock b.lock;
    ok

  let break b =
    Mutex.lock b.lock;
    b.broken <- true;
    Condition.broadcast b.cond;
    Mutex.unlock b.lock
end

(* The smallest [w >= 1] whose boundary [float w *. lookahead] reaches
   [horizon], tested with the arithmetic the window loop uses for its
   boundaries. The rounded quotient is within one window of it. *)
let windows ~lookahead ~horizon =
  if horizon <= 0. then 0
  else
    let reaches w = float_of_int w *. lookahead >= horizon in
    let rec up w = if reaches w then down w else up (w + 1)
    and down w = if w > 1 && reaches (w - 1) then down (w - 1) else w in
    up (Stdlib.max 1 (int_of_float (Float.ceil (horizon /. lookahead))))

let drain ingress sim =
  match ingress with
  | [] -> ()
  | _ ->
    let batches = List.map take_inbox ingress in
    List.iter (deliver sim) (merge batches)

let run_windows ~pool t ~horizon =
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg "Shard.run_windows: horizon must be finite and non-negative";
  let n = Array.length t.sims in
  (* Tracing and profiling are per-worker: each domain binds its own
     trace ring (when tracing is armed) and tags its profile table with
     its shard id, so the window loop runs armed with no shared
     state. *)
  if n = 1 then begin
    (* one shard: no channels can exist (open_channel rejects src = dst),
       so the window loop degenerates to chained run_until calls — run
       the single call directly on the calling domain. Chained and
       single run_until are bitwise identical, so a one-shard group is
       exactly a plain sequential run. *)
    if Trace.enabled () then Trace.bind_ring ~shard:0;
    Profile.bind ~shard:0;
    Sim.run_until t.sims.(0) horizon
  end
  else begin
    (* per-destination ingress lists, in registration order so the
       pre-merge concatenation order is deterministic (the sort makes it
       immaterial, but determinism should not hang on that) *)
    let ingress = Array.make n [] in
    List.iter
      (fun ch -> ingress.(ch.dst_shard) <- ch :: ingress.(ch.dst_shard))
      t.channels;
    let nw = windows ~lookahead:t.lookahead ~horizon in
    let barrier = Barrier.create n in
    let barrier_wait =
      if Profile.enabled () then fun () ->
        let ok = ref true in
        Profile.dispatch ~src:"shard.barrier" (fun () ->
            ok := Barrier.wait barrier);
        !ok
      else fun () -> Barrier.wait barrier
    in
    let worker i () =
      if Trace.enabled () then Trace.bind_ring ~shard:i;
      Profile.bind ~shard:i;
      let sim = t.sims.(i) in
      let ing = ingress.(i) in
      let rec window w =
        if w <= nw then begin
          drain ing sim;
          if barrier_wait () then begin
            Sim.run_until sim
              (Stdlib.min horizon (float_of_int w *. t.lookahead));
            if barrier_wait () then window (w + 1)
          end
        end
      in
      try window 1
      with e ->
        Barrier.break barrier;
        raise e
    in
    pool (Array.init n (fun i -> worker i))
  end
