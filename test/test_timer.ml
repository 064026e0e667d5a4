(* The Timer.t half of the scheduler API: cancellation, rescheduling,
   self re-arming periodic work, and the hierarchical timing wheel
   behind them. The centrepiece is a model-based property checking the
   wheel dispatches exactly like a reference (time, seq) heap over
   random workloads of schedule/cancel/reschedule — the wheel is an
   optimization, never a semantic change. The last tests pin the
   performance contract: the steady-state packet path and the random
   draws allocate nothing on the minor heap, and a real TCP connection,
   lossless or lossy, allocates nothing per ACK but the floats its
   congestion controller returns. *)

open Mptcp_repro.Netsim
module Invariant = Mptcp_repro.Stats.Invariant

(* --- reference model --------------------------------------------------- *)

(* One pending event as the specification sees it: fire in ascending
   (time, seq) order, seq taken at scheduling (or rescheduling) time. *)
type model_ev = { id : int; mutable m_time : float; mutable m_seq : int }

let model_compare a b =
  let c = compare a.m_time b.m_time in
  if c <> 0 then c else compare a.m_seq b.m_seq

(* Random workload interleaving schedule, cancel, reschedule and
   run_until, mirrored against the model. Times span all wheel levels:
   sub-microsecond, seconds, and hours. *)
let prop_wheel_matches_reference_heap =
  QCheck.Test.make ~name:"timer: wheel dispatches like a (time, seq) heap"
    ~count:80
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let sim = Sim.create () in
      let fired = ref [] in
      (* both live and already-fired handles: cancelling a stale handle
         must be a no-op, so the workload tries it *)
      let pending = ref [] in
      let stale = ref [] in
      let model = ref [] in
      let model_seq = ref 0 in
      let take_seq () =
        let s = !model_seq in
        incr model_seq;
        s
      in
      let rand_delay () =
        match Rng.int rng 4 with
        | 0 -> Rng.uniform rng 1e-5
        | 1 -> Rng.uniform rng 1.
        | 2 -> Rng.uniform rng 60.
        | _ -> Rng.uniform rng 7200.
      in
      let next_id = ref 0 in
      let schedule () =
        let id = !next_id in
        incr next_id;
        let time = Sim.now sim +. rand_delay () in
        let h =
          Sim.schedule_at ~src:"test.model" sim time (fun () ->
              fired := id :: !fired)
        in
        let ev = { id; m_time = time; m_seq = take_seq () } in
        pending := (h, ev) :: !pending;
        model := ev :: !model
      in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let cancel () =
        match !pending with
        | [] -> ()
        | l ->
          let h, ev = pick l in
          Sim.Timer.cancel sim h;
          pending := List.filter (fun (h', _) -> h' != h) !pending;
          model := List.filter (fun e -> e != ev) !model
      in
      let cancel_stale () =
        match !stale with [] -> () | l -> Sim.Timer.cancel sim (pick l)
      in
      let reschedule () =
        match !pending with
        | [] -> ()
        | l ->
          let h, ev = pick l in
          let time = Sim.now sim +. rand_delay () in
          Sim.Timer.reschedule sim h time;
          ev.m_time <- time;
          ev.m_seq <- take_seq ()
      in
      let run_step () =
        let horizon = Sim.now sim +. rand_delay () in
        Sim.run_until sim horizon;
        (* everything due has fired: move it out of the model in
           specification order and out of the live handle set *)
        let due, rest =
          List.partition (fun e -> e.m_time <= horizon) !model
        in
        let due = List.sort model_compare due in
        model := rest;
        let due_ids = List.map (fun e -> e.id) due in
        pending :=
          List.filter
            (fun (h, e) ->
              if List.memq e due then begin
                stale := h :: !stale;
                false
              end
              else true)
            !pending;
        due_ids
      in
      let expected = ref [] in
      for _ = 1 to 8 do
        for _ = 1 to 25 do
          match Rng.int rng 10 with
          | 0 | 1 -> cancel ()
          | 2 -> cancel_stale ()
          | 3 | 4 -> reschedule ()
          | _ -> schedule ()
        done;
        expected := !expected @ run_step ()
      done;
      Sim.run sim;
      expected := !expected @ List.map (fun e -> e.id) (List.sort model_compare !model);
      List.rev !fired = !expected)

(* --- cancel ------------------------------------------------------------ *)

let test_cancel_before_fire () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at ~src:"test" sim 1. (fun () -> fired := true) in
  Alcotest.(check bool) "active before" true (Sim.Timer.active sim h);
  Sim.Timer.cancel sim h;
  Alcotest.(check bool) "inactive after cancel" false (Sim.Timer.active sim h);
  Sim.run sim;
  Alcotest.(check bool) "never fired" false !fired;
  Alcotest.(check int) "nothing dispatched" 0 (Sim.events_processed sim)

let test_cancel_after_fire_noop () =
  let sim = Sim.create () in
  let h = Sim.schedule_at ~src:"test" sim 1. (fun () -> ()) in
  (* a later event whose cell may reuse the cancelled slot *)
  let fired = ref false in
  Sim.run_until sim 1.5;
  Alcotest.(check bool) "stale after fire" false (Sim.Timer.active sim h);
  Sim.Timer.cancel sim h;
  Sim.Timer.cancel sim h;
  ignore
    (Sim.schedule_at ~src:"test" sim 2. (fun () -> fired := true)
      : Sim.Timer.t);
  Sim.Timer.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "unrelated event survives stale cancels" true !fired

let test_timer_none_inert () =
  let sim = Sim.create () in
  Alcotest.(check bool) "none is inactive" false
    (Sim.Timer.active sim Sim.Timer.none);
  Sim.Timer.cancel sim Sim.Timer.none

(* --- reschedule -------------------------------------------------------- *)

let test_reschedule_moves_deadline () =
  let sim = Sim.create () in
  let at = ref nan in
  let h = Sim.schedule_at ~src:"test" sim 1. (fun () -> at := Sim.now sim) in
  Sim.Timer.reschedule sim h 3.;
  Sim.run sim;
  Alcotest.(check (float 0.)) "fires at the new time" 3. !at;
  Alcotest.(check int) "one dispatch" 1 (Sim.events_processed sim)

let test_reschedule_backward_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at ~src:"test" sim 5. (fun () -> ()) : Sim.Timer.t);
  Sim.run_until sim 2.;
  let h = Sim.schedule_at ~src:"test" sim 4. (fun () -> ()) in
  Alcotest.check_raises "backward reschedule"
    (Invalid_argument "Sim.Timer.reschedule: time in the past") (fun () ->
      Sim.Timer.reschedule sim h 1.);
  Alcotest.check_raises "non-finite reschedule"
    (Invalid_argument "Sim.Timer.reschedule: non-finite time") (fun () ->
      Sim.Timer.reschedule sim h nan)

let test_reschedule_stale_rejected () =
  let sim = Sim.create () in
  let h = Sim.schedule_at ~src:"test" sim 1. (fun () -> ()) in
  Sim.run sim;
  Alcotest.check_raises "stale handle"
    (Invalid_argument "Sim.Timer.reschedule: timer not active") (fun () ->
      Sim.Timer.reschedule sim h 2.)

(* --- non-finite times -------------------------------------------------- *)

let test_non_finite_rejected () =
  let sim = Sim.create () in
  List.iter
    (fun bad ->
      Alcotest.check_raises "non-finite schedule"
        (Invalid_argument "Sim.schedule_at: non-finite time") (fun () ->
          ignore
            (Sim.schedule_at ~src:"test" sim bad (fun () -> ())
              : Sim.Timer.t)))
    [ nan; infinity; neg_infinity ]

(* --- periodic work ------------------------------------------------------ *)

(* Every timer fires once; a periodic source re-arms itself as the last
   statement of its callback. The re-arm then takes its tie-break
   sequence number after everything the callback armed, so an event the
   callback arms for the next tick's instant runs before that tick. *)
let test_rearm_ticks_each_period () =
  let sim = Sim.create () in
  let log = ref [] in
  let note what = log := Printf.sprintf "%s %g" what (Sim.now sim) :: !log in
  let rec tick () =
    note "tick";
    ignore
      (Sim.schedule_after ~src:"test.echo" sim 0.5 (fun () -> note "echo")
        : Sim.Timer.t);
    if Sim.now sim < 1.5 then
      ignore (Sim.schedule_after ~src:"test.tick" sim 0.5 tick : Sim.Timer.t)
  in
  ignore (Sim.schedule_after ~src:"test.tick" sim 0.5 tick : Sim.Timer.t);
  Sim.run sim;
  Alcotest.(check (list string))
    "first tick at now + period, each echo before the tick it ties"
    [ "tick 0.5"; "echo 1"; "tick 1"; "echo 1.5"; "tick 1.5"; "echo 2" ]
    (List.rev !log)

(* --- overflow spill ---------------------------------------------------- *)

(* The wheel spans 2^48 ns (~3.26 days); events beyond it live on the
   sorted spill list and must still interleave correctly with wheel
   events and with each other. *)
let test_overflow_spill_ordering () =
  let sim = Sim.create () in
  let day = 86_400. in
  let order = ref [] in
  let ev tag time =
    ignore
      (Sim.schedule_at ~src:"test.spill" sim time (fun () ->
           order := tag :: !order)
        : Sim.Timer.t)
  in
  ev "near" 1.;
  ev "spill_b" (5. *. day);
  ev "spill_a" (4. *. day);
  ev "wheel" (2. *. day);
  Sim.run sim;
  Alcotest.(check (list string))
    "spill interleaves in time order"
    [ "near"; "wheel"; "spill_a"; "spill_b" ]
    (List.rev !order);
  Alcotest.(check (float 0.)) "clock reached the far event" (5. *. day)
    (Sim.now sim)

let test_overflow_spill_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h =
    Sim.schedule_at ~src:"test.spill" sim 4e5 (fun () -> fired := true)
  in
  ignore (Sim.schedule_at ~src:"test" sim 4e5 (fun () -> ()) : Sim.Timer.t);
  Sim.Timer.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled spill event never fires" false !fired

(* --- allocation contract ----------------------------------------------- *)

(* The performance half of the redesign: once pools are warm, the
   steady-state enqueue -> serve -> deliver -> ACK -> deliver cycle
   runs without touching the minor heap. Timer cells come from the
   wheel's free list, packets from the packet pool, and the per-packet
   closures are gone (persistent [on_served], static [Packet.forward]).
   Only meaningful under the native-code compiler: bytecode boxes
   everything. *)
(* The zero-alloc guarantee depends on [Sim.schedule_*] inlining into
   callers so computed deadlines never box at a call boundary. Dev
   builds pass [-opaque], which discards cross-module inlining info, so
   they box once per schedule; release builds do not. Probe which kind
   of build this is by scheduling with a computed (non-constant) delay:
   an inlining build stages it unboxed and allocates nothing. *)
let build_inlines_schedule_path () =
  let sim = Sim.create () in
  let fn () = () in
  let sched i =
    Sim.Timer.cancel sim
      (Sim.schedule_after ~src:"canary" sim (float_of_int i *. 1e-9) fn)
  in
  for i = 1 to 100 do sched i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do sched i done;
  let w1 = Gc.minor_words () in
  w1 -. w0 < 100.

let test_steady_state_zero_alloc () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let q =
    Queue.create ~sim ~rng ~rate_bps:12e6 ~buffer_pkts:64
      ~discipline:Queue.Droptail ()
  in
  let fwd_pipe = Pipe.create ~sim ~delay:0.02 in
  let rev_pipe = Pipe.create ~sim ~delay:0.02 in
  let acked = ref 0 in
  let ack_sink (p : Packet.t) =
    incr acked;
    Packet.free p
  in
  let rev_route = [| Pipe.hop rev_pipe; ack_sink |] in
  let responder (p : Packet.t) =
    let seq = p.Packet.seq in
    let echo = p.Packet.times.Packet.sent_at in
    Packet.free p;
    Packet.forward
      (Packet.ack ~flow:0 ~subflow:0 ~ackno:(seq + 1) ~echo ~sack_lo:0 ~sack_hi:0
         ~route:rev_route ~sent_at:(Sim.now sim))
  in
  let fwd_route = [| Queue.hop q; Pipe.hop fwd_pipe; responder |] in
  let sent = ref 0 and src = ref Sim.Timer.none in
  let rec tick () =
    Packet.forward
      (Packet.data ~flow:0 ~subflow:0 ~seq:!sent ~sent_at:(Sim.now sim)
         ~route:fwd_route);
    incr sent;
    src := Sim.schedule_after ~src:"test.source" sim 0.002 tick
  in
  src := Sim.schedule_at ~src:"test.source" sim 0. tick;
  (* warm-up: grow pools, the queue ring and the wheel's cell arrays *)
  Sim.run_until sim 1.;
  let before = !acked in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 11.;
  let w1 = Gc.minor_words () in
  Sim.Timer.cancel sim !src;
  Sim.run sim;
  let packets = !acked - before in
  Alcotest.(check bool) "traffic flowed" true (packets > 4000);
  (* armed invariant checks build their messages eagerly, so with them
     nothing is asserted about allocation (as in test_tcp_zero_alloc) *)
  if Sys.backend_type = Sys.Native && not (Invariant.enabled ()) then
    if build_inlines_schedule_path () then
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words for %d packets" packets)
        0. (w1 -. w0)
    else begin
      (* non-inlining (dev/-opaque) build: each boxed float is 2 words;
         a loose per-packet bound still catches real regressions such
         as a record or closure allocated per event *)
      let per_pkt = (w1 -. w0) /. float_of_int packets in
      Alcotest.(check bool)
        (Printf.sprintf "minor words per packet (%.1f) < 64" per_pkt)
        true (per_pkt < 64.)
    end

(* RED's drop draw and a [Burst] gate's loss draw run per packet. The
   SplitMix64 state is read and written unboxed, so once [Rng.float]
   inlines (release builds; see the canary above) 10^5 draws allocate
   nothing. *)
let test_rng_draws_zero_alloc () =
  let r = Rng.create ~seed:1 in
  let hits = ref 0 and sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    if Rng.float r < 0.5 then incr hits;
    sum := !sum + Rng.int r 1000
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "draws ran" true (!hits > 0 && !sum > 0);
  if Sys.backend_type = Sys.Native && build_inlines_schedule_path () then
    Alcotest.(check (float 0.)) "minor words for 10^5 draws" 0. (w1 -. w0)

(* The wired half of the contract: a queue built by [Duplex] hands each
   packet to its wire at admission, so a link hop costs exactly one
   event (the arrival at the far end) and still nothing on the minor
   heap. A hand-rolled source and responder over four Duplex links:
   every event of the whole run is a source tick or one of the eight
   link crossings of a packet and its ACK. *)
let test_duplex_one_event_per_hop () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let links =
    Array.init 4 (fun i ->
        Mptcp_repro.Topology.Duplex.create ~sim ~rng ~rate_bps:12e6
          ~delay:(0.001 *. float_of_int (i + 1))
          ~buffer_pkts:64 ~discipline:Queue.Droptail ())
  in
  let module D = Mptcp_repro.Topology.Duplex in
  let acked = ref 0 in
  let ack_sink (p : Packet.t) =
    incr acked;
    Packet.free p
  in
  let rev_route =
    Array.concat
      (List.rev_map D.rev_hops (Array.to_list links) @ [ [| ack_sink |] ])
  in
  let responder (p : Packet.t) =
    let seq = p.Packet.seq in
    let echo = p.Packet.times.Packet.sent_at in
    Packet.free p;
    Packet.forward
      (Packet.ack ~flow:0 ~subflow:0 ~ackno:(seq + 1) ~echo ~sack_lo:0 ~sack_hi:0
         ~route:rev_route ~sent_at:(Sim.now sim))
  in
  let fwd_route =
    Array.concat
      (List.map D.fwd_hops (Array.to_list links) @ [ [| responder |] ])
  in
  let sent = ref 0 and src = ref Sim.Timer.none in
  let rec tick () =
    Packet.forward
      (Packet.data ~flow:0 ~subflow:0 ~seq:!sent ~sent_at:(Sim.now sim)
         ~route:fwd_route);
    incr sent;
    src := Sim.schedule_after ~src:"test.source" sim 0.002 tick
  in
  src := Sim.schedule_at ~src:"test.source" sim 0. tick;
  Sim.run_until sim 1.;
  let before = !acked in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 11.;
  let w1 = Gc.minor_words () in
  Sim.Timer.cancel sim !src;
  Sim.run sim;
  let packets = !acked - before in
  Alcotest.(check bool) "traffic flowed" true (packets > 4000);
  Alcotest.(check int) "every packet acknowledged" !sent !acked;
  Alcotest.(check int) "events = source ticks + one per link crossing"
    (!sent + (8 * !acked))
    (Sim.events_processed sim);
  Array.iter
    (fun l ->
      Alcotest.(check int) "forward bytes" (!sent * Packet.data_size)
        (Queue.bytes_forwarded (D.fwd_queue l));
      Alcotest.(check int) "reverse bytes" (!acked * Packet.ack_size)
        (Queue.bytes_forwarded (D.rev_queue l));
      Alcotest.(check int) "drained" 0 (Queue.backlog (D.fwd_queue l)))
    links;
  if Sys.backend_type = Sys.Native && not (Invariant.enabled ()) then
    if build_inlines_schedule_path () then
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words for %d packets" packets)
        0. (w1 -. w0)
    else begin
      (* non-inlining build: see test_steady_state_zero_alloc; bounded
         per link crossing, as a packet here makes eight *)
      let per_hop = (w1 -. w0) /. float_of_int (8 * packets) in
      Alcotest.(check bool)
        (Printf.sprintf "minor words per link crossing (%.1f) < 32" per_hop)
        true (per_hop < 32.)
    end

(* The same contract on real connections: a lossless [Tcp] connection
   over Queue+Pipe allocates nothing per ACK except the float each CC
   [increase] closure returns, boxed across the call (2 words). With
   several subflows every algorithm gets OLIA's initial ssthresh of
   1 MSS, so the measured window runs congestion avoidance and calls
   [increase]; a single subflow stays in slow start. [rcv_wnd] caps the
   flight below the buffer, so nothing is ever dropped. Armed invariant
   checks build their messages eagerly, so with them nothing is
   asserted about allocation. *)
let tcp_alloc_case ?(duplex = false) ~algo ~subflows () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let base = Mptcp_repro.Cc.Registry.create algo in
  let calls = ref 0 in
  let cc =
    {
      base with
      Mptcp_repro.Cc.Types.multipath_initial_ssthresh = Some 1.;
      increase =
        (fun ~views ~idx ->
          incr calls;
          base.Mptcp_repro.Cc.Types.increase ~views ~idx);
    }
  in
  let acks = ref 0 in
  let count_ack p =
    incr acks;
    Packet.forward p
  in
  let path i =
    let delay = 0.005 *. float_of_int (i + 1) in
    if duplex then
      let module D = Mptcp_repro.Topology.Duplex in
      let l =
        D.create ~sim ~rng ~rate_bps:10e6 ~delay ~buffer_pkts:100
          ~discipline:Queue.Droptail ()
      in
      {
        Tcp.fwd = D.fwd_hops l;
        rev = Array.append (D.rev_hops l) [| count_ack |];
      }
    else
      let q =
        Queue.create ~sim ~rng ~rate_bps:10e6 ~buffer_pkts:100
          ~discipline:Queue.Droptail ()
      in
      {
        Tcp.fwd = [| Queue.hop q; Pipe.hop (Pipe.create ~sim ~delay) |];
        rev = [| Pipe.hop (Pipe.create ~sim ~delay); count_ack |];
      }
  in
  let conn =
    Tcp.create ~sim ~cc ~paths:(Array.init subflows path) ~initial_cwnd:40.
      ~rcv_wnd:40. ~flow_id:0 ()
  in
  Sim.run_until sim 2.;
  let acks0 = !acks and calls0 = !calls in
  let ev0 = Sim.events_processed sim in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 6.;
  let w1 = Gc.minor_words () in
  let events = Sim.events_processed sim - ev0 in
  let name =
    Printf.sprintf "%s%s, %d subflow(s)" algo
      (if duplex then " over Duplex" else "")
      subflows
  in
  let retx = ref 0 in
  for i = 0 to subflows - 1 do
    retx := !retx + Tcp.subflow_retransmits conn i
  done;
  Alcotest.(check int) (name ^ ": lossless") 0 !retx;
  (name, w1 -. w0, !acks - acks0, !calls - calls0, events)

let tcp_zero_alloc ~duplex () =
  let measured = Sys.backend_type = Sys.Native && not (Invariant.enabled ()) in
  let strict = measured && build_inlines_schedule_path () in
  List.iter
    (fun algo ->
      List.iter
        (fun subflows ->
          let name, words, acks, calls, events =
            tcp_alloc_case ~duplex ~algo ~subflows ()
          in
          Alcotest.(check bool) (name ^ ": ACKs flowed") true (acks > 1000);
          if strict then
            Alcotest.(check (float 0.))
              (Printf.sprintf
                 "%s: minor words beyond 2 per increase (%d ACKs, %d calls)"
                 name acks calls)
              0.
              (words -. (2. *. float_of_int calls))
          else if measured && duplex then begin
            (* non-inlining build: every float crossing into Sim boxes,
               and a wired hop makes more such calls per event; bound the
               words per event instead *)
            let per_event = words /. float_of_int events in
            Alcotest.(check bool)
              (Printf.sprintf "%s: minor words per event (%.1f) < 32" name
                 per_event)
              true (per_event < 32.)
          end
          else if measured then begin
            (* non-inlining build: see the bound above *)
            let per_ack = words /. float_of_int acks in
            Alcotest.(check bool)
              (Printf.sprintf "%s: minor words per ACK (%.1f) < 64" name
                 per_ack)
              true (per_ack < 64.)
          end)
        [ 1; 2; 8 ])
    [ "reno"; "lia"; "olia"; "olia-fp"; "balia" ]

(* The same contract under loss, on the impairments the paper's
   scenarios use: a RED bottleneck (Scenarios A-C), a [Fault] gate in
   [Burst] mode (the wireless path's random loss) and a gate that flaps
   down and up (outages that end in an RTO and go-back-N). Each lost
   segment runs the RED draw, the SACK scoreboard, the receiver's
   out-of-order set and the CC's loss hooks; all of it allocates
   nothing but the float each [increase] and [loss_decrease] closure
   returns. [rcv_wnd] caps the flight, as on the lossless rig, and the
   packet pool is warmed first: a window still growing inside the
   measured span would otherwise draw fresh packets from the heap. *)
type loss_rig = Red_bottleneck | Burst_gate | Outage_flaps

let loss_rig_name = function
  | Red_bottleneck -> "RED bottleneck"
  | Burst_gate -> "Fault burst gate"
  | Outage_flaps -> "Fault outage flaps"

let warm_packet_pool n =
  Array.iter Packet.free
    (Array.init n (fun seq ->
         Packet.data ~flow:0 ~subflow:0 ~seq ~sent_at:0. ~route:[||]))

let tcp_lossy_case ~rig ~algo =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let base = Mptcp_repro.Cc.Registry.create algo in
  let increases = ref 0 and decreases = ref 0 in
  let cc =
    {
      base with
      Mptcp_repro.Cc.Types.increase =
        (fun ~views ~idx ->
          incr increases;
          base.Mptcp_repro.Cc.Types.increase ~views ~idx);
      loss_decrease =
        (fun ~views ~idx ->
          incr decreases;
          base.Mptcp_repro.Cc.Types.loss_decrease ~views ~idx);
    }
  in
  let path i =
    let delay = 0.005 *. float_of_int (i + 1) in
    let discipline =
      match rig with
      | Red_bottleneck ->
        Queue.Red { min_th = 5.; max_th = 15.; max_p = 0.1; weight = 0.002 }
      | Burst_gate | Outage_flaps -> Queue.Droptail
    in
    let q =
      Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps:10e6 ~buffer_pkts:100
        ~discipline ()
    in
    let gate = Fault.create ~sim ~rng:(Rng.split rng) () in
    (match rig with
    | Red_bottleneck -> ()
    | Burst_gate -> Fault.set_mode gate (Fault.Burst { loss_prob = 0.01 })
    | Outage_flaps ->
      for k = 0 to 11 do
        let down_at = 0.25 +. (0.5 *. float_of_int k) in
        Fault.schedule_flap gate ~down_at ~up_at:(down_at +. 0.05)
      done);
    {
      Tcp.fwd =
        [| Fault.hop gate; Queue.hop q; Pipe.hop (Pipe.create ~sim ~delay) |];
      rev = [| Pipe.hop (Pipe.create ~sim ~delay) |];
    }
  in
  let subflows = 2 in
  let conn =
    Tcp.create ~sim ~cc ~paths:(Array.init subflows path) ~rcv_wnd:40.
      ~flow_id:0 ()
  in
  let retransmits () =
    let n = ref 0 in
    for i = 0 to subflows - 1 do
      n := !n + Tcp.subflow_retransmits conn i
    done;
    !n
  in
  warm_packet_pool 1024;
  Sim.run_until sim 2.;
  let retx0 = retransmits () and acked0 = Tcp.total_acked conn in
  let calls0 = !increases + !decreases in
  let w0 = Gc.minor_words () in
  Sim.run_until sim 6.;
  let w1 = Gc.minor_words () in
  let name = Printf.sprintf "%s, %s" (loss_rig_name rig) algo in
  Alcotest.(check bool) (name ^ ": retransmits") true (retransmits () > retx0);
  ( name,
    w1 -. w0,
    Tcp.total_acked conn - acked0,
    !increases + !decreases - calls0 )

let tcp_lossy_zero_alloc () =
  let measured = Sys.backend_type = Sys.Native && not (Invariant.enabled ()) in
  let strict = measured && build_inlines_schedule_path () in
  List.iter
    (fun rig ->
      List.iter
        (fun algo ->
          let name, words, acked, calls = tcp_lossy_case ~rig ~algo in
          Alcotest.(check bool) (name ^ ": data flowed") true (acked > 1000);
          if strict then
            Alcotest.(check (float 0.))
              (Printf.sprintf
                 "%s: minor words beyond 2 per increase or loss_decrease \
                  (%d calls)"
                 name calls)
              0.
              (words -. (2. *. float_of_int calls))
          else if measured then begin
            (* non-inlining build: see the lossless rig's bound *)
            let per_pkt = words /. float_of_int acked in
            Alcotest.(check bool)
              (Printf.sprintf "%s: minor words per packet (%.1f) < 64" name
                 per_pkt)
              true (per_pkt < 64.)
          end)
        [ "reno"; "lia"; "olia"; "olia-fp"; "balia" ])
    [ Red_bottleneck; Burst_gate; Outage_flaps ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q prop_wheel_matches_reference_heap;
    Alcotest.test_case "cancel before fire" `Quick test_cancel_before_fire;
    Alcotest.test_case "cancel after fire is a no-op" `Quick
      test_cancel_after_fire_noop;
    Alcotest.test_case "Timer.none is inert" `Quick test_timer_none_inert;
    Alcotest.test_case "reschedule moves the deadline" `Quick
      test_reschedule_moves_deadline;
    Alcotest.test_case "reschedule backward rejected" `Quick
      test_reschedule_backward_rejected;
    Alcotest.test_case "reschedule of stale handle rejected" `Quick
      test_reschedule_stale_rejected;
    Alcotest.test_case "non-finite times rejected" `Quick
      test_non_finite_rejected;
    Alcotest.test_case "re-arm: ticks each period" `Quick
      test_rearm_ticks_each_period;
    Alcotest.test_case "overflow spill ordering" `Quick
      test_overflow_spill_ordering;
    Alcotest.test_case "overflow spill cancel" `Quick test_overflow_spill_cancel;
    Alcotest.test_case "steady-state path allocates nothing" `Quick
      test_steady_state_zero_alloc;
    Alcotest.test_case "Rng draws allocate nothing" `Quick
      test_rng_draws_zero_alloc;
    Alcotest.test_case "TCP ACK path allocates only the CC return" `Quick
      (tcp_zero_alloc ~duplex:false);
    Alcotest.test_case "Duplex link hop is one event and allocates nothing"
      `Quick test_duplex_one_event_per_hop;
    Alcotest.test_case
      "TCP ACK path through Duplex links allocates only the CC return" `Quick
      (tcp_zero_alloc ~duplex:true);
    Alcotest.test_case
      "TCP loss path (RED, burst, outage) allocates only the CC returns"
      `Quick tcp_lossy_zero_alloc;
  ]
