module Trace = Repro_obs.Trace

(* A fault gate sits on a route like any other hop and applies the
   currently scheduled failure mode. Modes are switched by events on
   the simulator clock, so a fault schedule is part of the seeded,
   deterministic run — two runs with the same seed see the same drops
   at the same times. *)

type mode =
  | Up
  | Down
  | Burst of { loss_prob : float }
  | Reorder of { prob : float; extra_delay : float }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  name_id : int;
  mutable mode : mode;
  mutable dropped : int;
  mutable reordered : int;
  mutable passed : int;
}

let create ~sim ~rng ?(name = "fault") () =
  {
    sim;
    rng;
    name_id = Trace.intern name;
    mode = Up;
    dropped = 0;
    reordered = 0;
    passed = 0;
  }

let is_down t = match t.mode with Down -> true | _ -> false
let dropped t = t.dropped
let reordered t = t.reordered
let passed t = t.passed

(* Each range is written so that a NaN parameter fails it: every
   comparison with NaN is false, and a NaN loss probability would
   otherwise pass as zero ([Rng.float < nan] never drops). *)
let check_burst ~who loss_prob =
  if not (loss_prob >= 0. && loss_prob < 1.) then
    invalid_arg (who ^ ": burst loss_prob must be in [0, 1)")

let set_mode t mode =
  (match mode with
  | Burst { loss_prob } -> check_burst ~who:"Fault.set_mode" loss_prob
  | Reorder { prob; extra_delay } ->
    if not (prob >= 0. && prob <= 1.) then
      invalid_arg "Fault.set_mode: reorder prob must be in [0, 1]";
    if not (extra_delay > 0.) then
      invalid_arg "Fault.set_mode: reorder extra_delay must be positive"
  | Up | Down -> ());
  t.mode <- mode

let drop t (p : Packet.t) ~cause =
  t.dropped <- t.dropped + 1;
  if Trace.enabled () then
    Trace.pkt_drop ~time:(Sim.now t.sim) ~queue:t.name_id ~flow:p.flow
      ~subflow:p.subflow ~seq:p.seq
      ~kind:(Packet.kind_code p.kind)
      ~cause;
  Packet.free p

let hop t (p : Packet.t) =
  match t.mode with
  | Up ->
    t.passed <- t.passed + 1;
    Packet.forward p
  | Down ->
    (* A dead link swallows traffic in both directions: data and ACKs. *)
    drop t p ~cause:Trace.Link_down
  | Burst { loss_prob } -> (
    match p.kind with
    | Packet.Ack ->
      t.passed <- t.passed + 1;
      Packet.forward p
    | Packet.Data ->
      if Rng.float t.rng < loss_prob then drop t p ~cause:Trace.Random_loss
      else begin
        t.passed <- t.passed + 1;
        Packet.forward p
      end)
  | Reorder { prob; extra_delay } ->
    if Rng.float t.rng < prob then begin
      t.reordered <- t.reordered + 1;
      let now = Sim.now t.sim in
      Sim.schedule_pkt ~src:"fault.reorder" t.sim ~sched:now
        (now +. extra_delay) p
    end
    else begin
      t.passed <- t.passed + 1;
      Packet.forward p
    end

let schedule_mode t ~at mode =
  ignore
    (Sim.schedule_at ~src:"fault.mode" t.sim at (fun () -> set_mode t mode)
      : Sim.Timer.t)

let schedule_flap t ~down_at ~up_at =
  if up_at <= down_at then invalid_arg "Fault.schedule_flap: up_at <= down_at";
  schedule_mode t ~at:down_at Down;
  schedule_mode t ~at:up_at Up

let schedule_burst t ~at ~until ~loss_prob =
  if until <= at then invalid_arg "Fault.schedule_burst: until <= at";
  check_burst ~who:"Fault.schedule_burst" loss_prob;
  schedule_mode t ~at (Burst { loss_prob });
  schedule_mode t ~at:until Up

let schedule_reorder t ~at ~until ~prob ~extra_delay =
  if until <= at then invalid_arg "Fault.schedule_reorder: until <= at";
  schedule_mode t ~at (Reorder { prob; extra_delay });
  schedule_mode t ~at:until Up
