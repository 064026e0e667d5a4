(* Structured event tracing for the simulator.

   The design point is zero cost when disarmed: every instrumentation
   site in lib/netsim guards its event construction with
   [if Trace.enabled () then ...], and [enabled] is a single ref read,
   so the tracing-off hot path neither allocates nor branches beyond
   that one test. Armed, every record goes to the calling domain's
   binary ring; the rings decode offline into plain event records of
   scalars, which serialize through [Repro_stats.Json] to JSONL (one
   compact object per line). *)

module Json = Repro_stats.Json

type tcp_state = Slow_start | Congestion_avoidance | Fast_recovery
type drop_cause = Overflow | Red_early | Random_loss | Link_down

type event =
  | Pkt_enqueue of {
      time : float;
      queue : string;
      flow : int;
      subflow : int;
      seq : int;
      kind : string;
      backlog : int;
    }
  | Pkt_drop of {
      time : float;
      queue : string;
      flow : int;
      subflow : int;
      seq : int;
      kind : string;
      cause : drop_cause;
    }
  | Pkt_forward of {
      time : float;
      queue : string;
      flow : int;
      subflow : int;
      seq : int;
      kind : string;
      bytes : int;
      qdelay : float;
    }
  | Tcp_state of {
      time : float;
      flow : int;
      subflow : int;
      from_state : tcp_state;
      to_state : tcp_state;
    }
  | Cwnd_update of {
      time : float;
      flow : int;
      subflow : int;
      cwnd : float;
      ssthresh : float;
    }
  | Rto_fired of { time : float; flow : int; subflow : int; rto : float }
  | Rtt_sample of {
      time : float;
      flow : int;
      subflow : int;
      rtt : float;
      srtt : float;
    }
  | Subflow_add of { time : float; flow : int; subflow : int }
  | Subflow_remove of { time : float; flow : int; subflow : int }

let state_name = function
  | Slow_start -> "slow_start"
  | Congestion_avoidance -> "congestion_avoidance"
  | Fast_recovery -> "fast_recovery"

let state_of_name = function
  | "slow_start" -> Some Slow_start
  | "congestion_avoidance" -> Some Congestion_avoidance
  | "fast_recovery" -> Some Fast_recovery
  | _ -> None

let cause_name = function
  | Overflow -> "overflow"
  | Red_early -> "red_early"
  | Random_loss -> "random_loss"
  | Link_down -> "link_down"

let cause_of_name = function
  | "overflow" -> Some Overflow
  | "red_early" -> Some Red_early
  | "random_loss" -> Some Random_loss
  | "link_down" -> Some Link_down
  | _ -> None

(* Every object leads with an "ev" discriminator so a stream consumer
   can dispatch without probing field sets. *)
let to_json = function
  | Pkt_enqueue { time; queue; flow; subflow; seq; kind; backlog } ->
    Json.Obj
      [
        ("ev", Json.String "pkt_enqueue"); ("t", Json.Float time);
        ("queue", Json.String queue); ("flow", Json.Int flow);
        ("subflow", Json.Int subflow); ("seq", Json.Int seq);
        ("kind", Json.String kind); ("backlog", Json.Int backlog);
      ]
  | Pkt_drop { time; queue; flow; subflow; seq; kind; cause } ->
    Json.Obj
      [
        ("ev", Json.String "pkt_drop"); ("t", Json.Float time);
        ("queue", Json.String queue); ("flow", Json.Int flow);
        ("subflow", Json.Int subflow); ("seq", Json.Int seq);
        ("kind", Json.String kind);
        ("cause", Json.String (cause_name cause));
      ]
  | Pkt_forward { time; queue; flow; subflow; seq; kind; bytes; qdelay } ->
    Json.Obj
      [
        ("ev", Json.String "pkt_forward"); ("t", Json.Float time);
        ("queue", Json.String queue); ("flow", Json.Int flow);
        ("subflow", Json.Int subflow); ("seq", Json.Int seq);
        ("kind", Json.String kind); ("bytes", Json.Int bytes);
        ("qdelay", Json.Float qdelay);
      ]
  | Tcp_state { time; flow; subflow; from_state; to_state } ->
    Json.Obj
      [
        ("ev", Json.String "tcp_state"); ("t", Json.Float time);
        ("flow", Json.Int flow); ("subflow", Json.Int subflow);
        ("from", Json.String (state_name from_state));
        ("to", Json.String (state_name to_state));
      ]
  | Cwnd_update { time; flow; subflow; cwnd; ssthresh } ->
    Json.Obj
      [
        ("ev", Json.String "cwnd_update"); ("t", Json.Float time);
        ("flow", Json.Int flow); ("subflow", Json.Int subflow);
        ("cwnd", Json.Float cwnd); ("ssthresh", Json.Float ssthresh);
      ]
  | Rto_fired { time; flow; subflow; rto } ->
    Json.Obj
      [
        ("ev", Json.String "rto_fired"); ("t", Json.Float time);
        ("flow", Json.Int flow); ("subflow", Json.Int subflow);
        ("rto", Json.Float rto);
      ]
  | Rtt_sample { time; flow; subflow; rtt; srtt } ->
    Json.Obj
      [
        ("ev", Json.String "rtt_sample"); ("t", Json.Float time);
        ("flow", Json.Int flow); ("subflow", Json.Int subflow);
        ("rtt", Json.Float rtt); ("srtt", Json.Float srtt);
      ]
  | Subflow_add { time; flow; subflow } ->
    Json.Obj
      [
        ("ev", Json.String "subflow_add"); ("t", Json.Float time);
        ("flow", Json.Int flow); ("subflow", Json.Int subflow);
      ]
  | Subflow_remove { time; flow; subflow } ->
    Json.Obj
      [
        ("ev", Json.String "subflow_remove"); ("t", Json.Float time);
        ("flow", Json.Int flow); ("subflow", Json.Int subflow);
      ]

let field fields name =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let ( let* ) = Result.bind

let as_float name = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | Json.Null -> Ok nan (* non-finite floats serialize as null *)
  | _ -> Error (Printf.sprintf "field %S is not a number" name)

let as_int name = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S is not an integer" name)

let as_string name = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" name)

let floatf fields name =
  let* v = field fields name in
  as_float name v

let intf fields name =
  let* v = field fields name in
  as_int name v

let stringf fields name =
  let* v = field fields name in
  as_string name v

let statef fields name =
  let* s = stringf fields name in
  match state_of_name s with
  | Some st -> Ok st
  | None -> Error (Printf.sprintf "unknown tcp state %S" s)

let of_json json =
  match json with
  | Json.Obj fields -> (
    let* ev = stringf fields "ev" in
    match ev with
    | "pkt_enqueue" ->
      let* time = floatf fields "t" in
      let* queue = stringf fields "queue" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* seq = intf fields "seq" in
      let* kind = stringf fields "kind" in
      let* backlog = intf fields "backlog" in
      Ok (Pkt_enqueue { time; queue; flow; subflow; seq; kind; backlog })
    | "pkt_drop" ->
      let* time = floatf fields "t" in
      let* queue = stringf fields "queue" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* seq = intf fields "seq" in
      let* kind = stringf fields "kind" in
      let* cause_s = stringf fields "cause" in
      let* cause =
        match cause_of_name cause_s with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown drop cause %S" cause_s)
      in
      Ok (Pkt_drop { time; queue; flow; subflow; seq; kind; cause })
    | "pkt_forward" ->
      let* time = floatf fields "t" in
      let* queue = stringf fields "queue" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* seq = intf fields "seq" in
      let* kind = stringf fields "kind" in
      let* bytes = intf fields "bytes" in
      let* qdelay = floatf fields "qdelay" in
      Ok (Pkt_forward { time; queue; flow; subflow; seq; kind; bytes; qdelay })
    | "tcp_state" ->
      let* time = floatf fields "t" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* from_state = statef fields "from" in
      let* to_state = statef fields "to" in
      Ok (Tcp_state { time; flow; subflow; from_state; to_state })
    | "cwnd_update" ->
      let* time = floatf fields "t" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* cwnd = floatf fields "cwnd" in
      let* ssthresh = floatf fields "ssthresh" in
      Ok (Cwnd_update { time; flow; subflow; cwnd; ssthresh })
    | "rto_fired" ->
      let* time = floatf fields "t" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* rto = floatf fields "rto" in
      Ok (Rto_fired { time; flow; subflow; rto })
    | "rtt_sample" ->
      let* time = floatf fields "t" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      let* rtt = floatf fields "rtt" in
      let* srtt = floatf fields "srtt" in
      Ok (Rtt_sample { time; flow; subflow; rtt; srtt })
    | "subflow_add" ->
      let* time = floatf fields "t" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      Ok (Subflow_add { time; flow; subflow })
    | "subflow_remove" ->
      let* time = floatf fields "t" in
      let* flow = intf fields "flow" in
      let* subflow = intf fields "subflow" in
      Ok (Subflow_remove { time; flow; subflow })
    | other -> Error (Printf.sprintf "unknown event %S" other))
  | _ -> Error "trace event is not a JSON object"

(* --- integer encodings ---------------------------------------------- *)

(* Fixed codes for the binary ring records. The string forms above stay
   the JSONL wire format; these never appear outside the rings. *)

let state_code = function
  | Slow_start -> 0
  | Congestion_avoidance -> 1
  | Fast_recovery -> 2

let state_of_code = function
  | 0 -> Slow_start
  | 1 -> Congestion_avoidance
  | 2 -> Fast_recovery
  | c -> invalid_arg (Printf.sprintf "Trace: unknown tcp state code %d" c)

let cause_code = function
  | Overflow -> 0
  | Red_early -> 1
  | Random_loss -> 2
  | Link_down -> 3

let cause_of_code = function
  | 0 -> Overflow
  | 1 -> Red_early
  | 2 -> Random_loss
  | 3 -> Link_down
  | c -> invalid_arg (Printf.sprintf "Trace: unknown drop cause code %d" c)

(* Packet kind codes follow [Packet.kind_code]: data 0, ack 1. *)
let kind_name_of_code = function
  | 0 -> "data"
  | 1 -> "ack"
  | c -> invalid_arg (Printf.sprintf "Trace: unknown packet kind code %d" c)

(* --- interning ------------------------------------------------------- *)

(* Source labels (queue names) intern to small ints at component
   creation time, so the armed emission path stores an int instead of
   touching a string. The table is process-global and mutex-protected:
   interning happens at topology construction (cold), and each decode
   copies the table once (offline). *)

let intern_lock = Mutex.create ()

(* lint: allow R2 -- process-global intern table: written only at component creation under [intern_lock], read back offline by the decoder *)
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 64

(* lint: allow R2 -- reverse side of [intern_tbl], same discipline *)
let intern_names : string array ref = ref (Array.make 64 "")

(* lint: allow R2 -- count of interned names, guarded by [intern_lock] *)
let intern_count = ref 0

let intern s =
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt intern_tbl s with
      | Some id -> id
      | None ->
        let id = !intern_count in
        let names = !intern_names in
        let cap = Array.length names in
        if id = cap then begin
          let names' = Array.make (2 * cap) "" in
          Array.blit names 0 names' 0 cap;
          intern_names := names'
        end;
        !intern_names.(id) <- s;
        Hashtbl.add intern_tbl s id;
        incr intern_count;
        id)

(* Every name interned so far, indexed by id: one copy per decode. *)
let interned_names () =
  Mutex.protect intern_lock (fun () -> Array.sub !intern_names 0 !intern_count)

(* --- rings ------------------------------------------------------------ *)

(* Armed tracing is ring-only: each participating domain binds its own
   {!Ring}, emission is a lock-free single-writer binary append, and
   {!decode_rings} merges the rings offline into the canonical event
   order. *)

(* lint: allow R2 -- the one-ref-read guard behind every instrumentation site, flipped only between runs (arm_rings/disarm_rings) *)
let rings_on = ref false

(* lint: allow R2 -- ring capacity for subsequent bind_ring calls, set by arm_rings before workers start *)
let ring_capacity = ref (1 lsl 16)

(* lint: allow R2 -- bound rings in registration order, appended under [lock] by bind_ring, read offline by decode_rings *)
let registry : (int * Ring.t) list ref = ref []

(* lint: allow R2 -- registration counter for [registry], bumped under [lock] *)
let reg_count = ref 0

let lock = Mutex.create ()
let[@inline] enabled () = !rings_on

(* --- per-domain ring binding and dispatch context --------------------- *)

let ring_key = Domain.DLS.new_key (fun () -> Ring.null)

(* The dispatch context: the scheduler stores the currently-dispatching
   event's ordering key here ({!set_dispatch_ctx}, called once per
   dispatch while tracing is armed), and every record written during
   that dispatch carries it. The decoder sorts on it, which is what
   lets N per-shard rings merge back into exactly the sequential
   dispatch order: distinct same-instant dispatches are ordered by
   [(sched, class, packet identity)] — the scheduler's own
   shard-invariant tie-break. The last int word is a per-domain
   dispatch ordinal, bumped on every call: it marks which consecutive
   ring records one dispatch wrote, so the decoder moves them as one
   block and keeps their emission order. *)
type dctx = { cf : floatarray; ci : int array }

let ctx_key =
  Domain.DLS.new_key (fun () ->
      { cf = Float.Array.make 1 0.; ci = Array.make 6 0 })

let[@inline] set_dispatch_ctx ~sched ~cls ~flow ~subflow ~pseq ~kind =
  let c = Domain.DLS.get ctx_key in
  Float.Array.unsafe_set c.cf 0 sched;
  Array.unsafe_set c.ci 0 cls;
  Array.unsafe_set c.ci 1 flow;
  Array.unsafe_set c.ci 2 subflow;
  Array.unsafe_set c.ci 3 pseq;
  Array.unsafe_set c.ci 4 kind;
  Array.unsafe_set c.ci 5 (Array.unsafe_get c.ci 5 + 1)

let arm_rings ?capacity () =
  Mutex.protect lock (fun () ->
      (match capacity with
      | Some c ->
        if c < 1 then invalid_arg "Trace.arm_rings: capacity must be positive";
        ring_capacity := c
      | None -> ());
      registry := [];
      reg_count := 0;
      rings_on := true)

(* A domain that already holds a ring of this arming under [shard]
   keeps it: a sharded run started from a domain that bound shard 0
   (as {!capture} does) then writes one ring there, not two. *)
let bind_ring ~shard =
  if not !rings_on then
    invalid_arg "Trace.bind_ring: rings are not armed (call arm_rings first)";
  let cur = Domain.DLS.get ring_key in
  let registered =
    Mutex.protect lock (fun () ->
        List.exists (fun (_, r) -> r == cur) !registry)
  in
  if not (registered && Ring.shard cur = shard) then begin
    let r = Ring.create ~shard ~capacity:!ring_capacity in
    Mutex.protect lock (fun () ->
        registry := (!reg_count, r) :: !registry;
        incr reg_count);
    Domain.DLS.set ring_key r
  end

let unbind_ring () = Domain.DLS.set ring_key Ring.null

let disarm_rings () =
  Mutex.protect lock (fun () ->
      rings_on := false;
      registry := [];
      reg_count := 0);
  unbind_ring ()

let rings_dropped () =
  Mutex.protect lock (fun () ->
      List.fold_left (fun acc (_, r) -> acc + Ring.dropped r) 0 !registry)

(* --- armed emission --------------------------------------------------- *)

(* Record layout (owned here, storage in {!Ring}: 13 int and 4 float
   words). Int words: 0 tag, 1 dispatch class, 2-5 dispatching packet
   identity (flow, subflow, seq, kind), 6-11 payload, 12 dispatch
   ordinal. Float words: 0 event time, 1 dispatch sched key, 2-3
   payload. Every store goes to the slot the record's claim returned. *)

let tag_pkt_enqueue = 0
let tag_pkt_drop = 1
let tag_pkt_forward = 2
let tag_tcp_state = 3
let tag_cwnd_update = 4
let tag_rto_fired = 5
let tag_rtt_sample = 6
let tag_subflow_add = 7
let tag_subflow_remove = 8

(* A wired queue's departure, written at admission: it decodes to a
   [Pkt_forward] but carries the dispatch key the serve event would
   have had instead of the admitting dispatch's, and forms a group of
   its own (see [ring_groups]). *)
let tag_pkt_depart = 9

(* Claim a slot and fill the shared header words. On a domain with no
   bound ring the claim hits {!Ring.null} and raises [Ring.Full]: an
   armed emission with nowhere to go is a wiring bug, not a record to
   drop. *)
let[@inline] write_header r tag time =
  let c = Domain.DLS.get ctx_key in
  let s = Ring.claim r in
  Ring.set_f r s 0 time;
  Ring.set_f r s 1 (Float.Array.unsafe_get c.cf 0);
  Ring.set_i r s 0 tag;
  Ring.set_i r s 1 (Array.unsafe_get c.ci 0);
  Ring.set_i r s 2 (Array.unsafe_get c.ci 1);
  Ring.set_i r s 3 (Array.unsafe_get c.ci 2);
  Ring.set_i r s 4 (Array.unsafe_get c.ci 3);
  Ring.set_i r s 5 (Array.unsafe_get c.ci 4);
  Ring.set_i r s 12 (Array.unsafe_get c.ci 5);
  s

(* The scalar emission functions: the armed hot path. Each is a claim
   plus unboxed word stores — zero minor allocation, proven by the R9
   roots below. [@inline] matters as much as the body: without it every
   float argument boxes at the call boundary (this repo builds without
   flambda), exactly like [Sim.schedule_after]. *)

let[@inline] [@olia.alloc_free] pkt_enqueue ~time ~queue ~flow ~subflow ~seq ~kind
    ~backlog =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_pkt_enqueue time in
  Ring.set_i r s 6 queue;
  Ring.set_i r s 7 flow;
  Ring.set_i r s 8 subflow;
  Ring.set_i r s 9 seq;
  Ring.set_i r s 10 kind;
  Ring.set_i r s 11 backlog

let[@inline] [@olia.alloc_free] pkt_drop ~time ~queue ~flow ~subflow ~seq ~kind ~cause =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_pkt_drop time in
  Ring.set_i r s 6 queue;
  Ring.set_i r s 7 flow;
  Ring.set_i r s 8 subflow;
  Ring.set_i r s 9 seq;
  Ring.set_i r s 10 kind;
  Ring.set_i r s 11 (cause_code cause)

let[@inline] [@olia.alloc_free] pkt_forward ~time ~queue ~flow ~subflow ~seq ~kind
    ~bytes ~qdelay =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_pkt_forward time in
  Ring.set_f r s 2 qdelay;
  Ring.set_i r s 6 queue;
  Ring.set_i r s 7 flow;
  Ring.set_i r s 8 subflow;
  Ring.set_i r s 9 seq;
  Ring.set_i r s 10 kind;
  Ring.set_i r s 11 bytes

(* The header is the virtual serve event's key: [(time, sched)] with
   the closure class and no packet identity. *)
let[@inline] [@olia.alloc_free] pkt_depart ~time ~sched ~queue ~flow ~subflow ~seq
    ~kind ~bytes ~qdelay =
  let r = Domain.DLS.get ring_key in
  let s = Ring.claim r in
  Ring.set_f r s 0 time;
  Ring.set_f r s 1 sched;
  Ring.set_f r s 2 qdelay;
  Ring.set_i r s 0 tag_pkt_depart;
  Ring.set_i r s 1 0;
  Ring.set_i r s 2 0;
  Ring.set_i r s 3 0;
  Ring.set_i r s 4 0;
  Ring.set_i r s 5 0;
  Ring.set_i r s 6 queue;
  Ring.set_i r s 7 flow;
  Ring.set_i r s 8 subflow;
  Ring.set_i r s 9 seq;
  Ring.set_i r s 10 kind;
  Ring.set_i r s 11 bytes

let[@inline] note_horizon h = Ring.set_horizon (Domain.DLS.get ring_key) h

let[@inline] [@olia.alloc_free] tcp_state ~time ~flow ~subflow ~from_state ~to_state =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_tcp_state time in
  Ring.set_i r s 6 flow;
  Ring.set_i r s 7 subflow;
  Ring.set_i r s 8 (state_code from_state);
  Ring.set_i r s 9 (state_code to_state)

let[@inline] [@olia.alloc_free] cwnd_update ~time ~flow ~subflow ~cwnd ~ssthresh =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_cwnd_update time in
  Ring.set_f r s 2 cwnd;
  Ring.set_f r s 3 ssthresh;
  Ring.set_i r s 6 flow;
  Ring.set_i r s 7 subflow

let[@inline] [@olia.alloc_free] rto_fired ~time ~flow ~subflow ~rto =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_rto_fired time in
  Ring.set_f r s 2 rto;
  Ring.set_i r s 6 flow;
  Ring.set_i r s 7 subflow

let[@inline] [@olia.alloc_free] rtt_sample ~time ~flow ~subflow ~rtt ~srtt =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_rtt_sample time in
  Ring.set_f r s 2 rtt;
  Ring.set_f r s 3 srtt;
  Ring.set_i r s 6 flow;
  Ring.set_i r s 7 subflow

let[@inline] [@olia.alloc_free] subflow_add ~time ~flow ~subflow =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_subflow_add time in
  Ring.set_i r s 6 flow;
  Ring.set_i r s 7 subflow

let[@inline] [@olia.alloc_free] subflow_remove ~time ~flow ~subflow =
  let r = Domain.DLS.get ring_key in
  let s = write_header r tag_subflow_remove time in
  Ring.set_i r s 6 flow;
  Ring.set_i r s 7 subflow

(* Variant-level entry point for tests and callers that hold an
   {!event}: decomposes to the scalar functions. Queue names re-intern,
   so a ring round-trip preserves them. *)
let emit = function
  | Pkt_enqueue { time; queue; flow; subflow; seq; kind; backlog } ->
    pkt_enqueue ~time ~queue:(intern queue) ~flow ~subflow ~seq
      ~kind:(if kind = "ack" then 1 else 0)
      ~backlog
  | Pkt_drop { time; queue; flow; subflow; seq; kind; cause } ->
    pkt_drop ~time ~queue:(intern queue) ~flow ~subflow ~seq
      ~kind:(if kind = "ack" then 1 else 0)
      ~cause
  | Pkt_forward { time; queue; flow; subflow; seq; kind; bytes; qdelay } ->
    pkt_forward ~time ~queue:(intern queue) ~flow ~subflow ~seq
      ~kind:(if kind = "ack" then 1 else 0)
      ~bytes ~qdelay
  | Tcp_state { time; flow; subflow; from_state; to_state } ->
    tcp_state ~time ~flow ~subflow ~from_state ~to_state
  | Cwnd_update { time; flow; subflow; cwnd; ssthresh } ->
    cwnd_update ~time ~flow ~subflow ~cwnd ~ssthresh
  | Rto_fired { time; flow; subflow; rto } ->
    rto_fired ~time ~flow ~subflow ~rto
  | Rtt_sample { time; flow; subflow; rtt; srtt } ->
    rtt_sample ~time ~flow ~subflow ~rtt ~srtt
  | Subflow_add { time; flow; subflow } -> subflow_add ~time ~flow ~subflow
  | Subflow_remove { time; flow; subflow } ->
    subflow_remove ~time ~flow ~subflow

(* --- offline decoding ------------------------------------------------- *)

let queue_name names id =
  if id < 0 || id >= Array.length names then
    invalid_arg (Printf.sprintf "Trace: unknown queue id %d" id);
  Array.unsafe_get names id

(* [names] is the decode's copy of the intern table. *)
let event_of_record names r s =
  let time = Ring.get_f r s 0 in
  let tag = Ring.get_i r s 0 in
  if tag = tag_pkt_enqueue then
    Pkt_enqueue
      {
        time;
        queue = queue_name names (Ring.get_i r s 6);
        flow = Ring.get_i r s 7;
        subflow = Ring.get_i r s 8;
        seq = Ring.get_i r s 9;
        kind = kind_name_of_code (Ring.get_i r s 10);
        backlog = Ring.get_i r s 11;
      }
  else if tag = tag_pkt_drop then
    Pkt_drop
      {
        time;
        queue = queue_name names (Ring.get_i r s 6);
        flow = Ring.get_i r s 7;
        subflow = Ring.get_i r s 8;
        seq = Ring.get_i r s 9;
        kind = kind_name_of_code (Ring.get_i r s 10);
        cause = cause_of_code (Ring.get_i r s 11);
      }
  else if tag = tag_pkt_forward || tag = tag_pkt_depart then
    Pkt_forward
      {
        time;
        queue = queue_name names (Ring.get_i r s 6);
        flow = Ring.get_i r s 7;
        subflow = Ring.get_i r s 8;
        seq = Ring.get_i r s 9;
        kind = kind_name_of_code (Ring.get_i r s 10);
        bytes = Ring.get_i r s 11;
        qdelay = Ring.get_f r s 2;
      }
  else if tag = tag_tcp_state then
    Tcp_state
      {
        time;
        flow = Ring.get_i r s 6;
        subflow = Ring.get_i r s 7;
        from_state = state_of_code (Ring.get_i r s 8);
        to_state = state_of_code (Ring.get_i r s 9);
      }
  else if tag = tag_cwnd_update then
    Cwnd_update
      {
        time;
        flow = Ring.get_i r s 6;
        subflow = Ring.get_i r s 7;
        cwnd = Ring.get_f r s 2;
        ssthresh = Ring.get_f r s 3;
      }
  else if tag = tag_rto_fired then
    Rto_fired
      {
        time;
        flow = Ring.get_i r s 6;
        subflow = Ring.get_i r s 7;
        rto = Ring.get_f r s 2;
      }
  else if tag = tag_rtt_sample then
    Rtt_sample
      {
        time;
        flow = Ring.get_i r s 6;
        subflow = Ring.get_i r s 7;
        rtt = Ring.get_f r s 2;
        srtt = Ring.get_f r s 3;
      }
  else if tag = tag_subflow_add then
    Subflow_add
      {
        time;
        flow = Ring.get_i r s 6;
        subflow = Ring.get_i r s 7;
      }
  else if tag = tag_subflow_remove then
    Subflow_remove
      {
        time;
        flow = Ring.get_i r s 6;
        subflow = Ring.get_i r s 7;
      }
  else invalid_arg (Printf.sprintf "Trace: unknown record tag %d" tag)

let[@inline] is_depart r s = Ring.get_i r s 0 = tag_pkt_depart

(* A decode's groups. Group [g] is four ints of [gs] from [4 * g]: its
   ring (an index into [rings]), the ring indices of its first and last
   record, and its first record's slot. A dispatch group is the run of
   records one dispatch wrote, less the departure records written
   inside it; a departure group is one departure record. Records are
   decoded once the groups are in order, and before that only to
   compare two groups that tie on their whole key. *)
type groups = {
  rings : Ring.t array;  (** by (shard, registration) *)
  ranks : int array;  (** each ring's registration number *)
  names : string array;  (** the intern table, copied once *)
  gs : int array;
}

let[@inline] g_ring d g =
  Array.unsafe_get d.rings (Array.unsafe_get d.gs (4 * g))
let[@inline] g_first d g = Array.unsafe_get d.gs ((4 * g) + 1)
let[@inline] g_last d g = Array.unsafe_get d.gs ((4 * g) + 2)
let[@inline] g_slot d g = Array.unsafe_get d.gs ((4 * g) + 3)

let add_group d g ~ring ~first ~slot =
  d.gs.(4 * g) <- ring;
  d.gs.((4 * g) + 1) <- first;
  d.gs.((4 * g) + 2) <- first;
  d.gs.((4 * g) + 3) <- slot

(* The events of group [g] in emission order, consed onto [acc]. *)
let group_events d g acc =
  let r = g_ring d g and first = g_first d g and s0 = g_slot d g in
  let cap = Ring.capacity r in
  let acc = ref acc in
  for i = g_last d g downto first do
    let s = s0 + (i - first) in
    let s = if s >= cap then s - cap else s in
    if i = first || not (is_depart r s) then
      acc := event_of_record d.names r s :: !acc
  done;
  !acc

(* Split ring [k] into groups, numbered from [g]; returns the next
   free group number. The groups are stored in [d.gs] when [store]; a
   first walk without it sizes [gs]. A dispatch group is a run of
   consecutive records sharing the dispatch ordinal and the record time
   (records written outside any dispatch, between two [run_until]
   calls, keep the last ordinal but not its time). A departure record
   is a group of its own, keyed as the serve event it stands for, and
   is skipped over when the records around it are grouped, so it never
   splits the dispatch that wrote it. A departure later than the ring's
   horizon is dropped: its serve event would never have run. *)
let ring_groups ~store d k g =
  let r = d.rings.(k) in
  let n = Ring.length r in
  if n = 0 then g
  else begin
    let cap = Ring.capacity r and s0 = Ring.slot_of_index r 0 in
    let horizon = Ring.horizon r in
    let g = ref g and open_g = ref (-1) and prev = ref (-1) in
    for i = 0 to n - 1 do
      let s = if s0 + i >= cap then s0 + i - cap else s0 + i in
      if is_depart r s then begin
        if Ring.get_f r s 0 <= horizon then begin
          if store then add_group d !g ~ring:k ~first:i ~slot:s;
          incr g
        end
      end
      else begin
        let p = !prev in
        if
          p >= 0
          && Ring.get_i r p 12 = Ring.get_i r s 12
          && Float.equal (Ring.get_f r p 0) (Ring.get_f r s 0)
        then (if store then d.gs.((4 * !open_g) + 2) <- i)
        else begin
          if store then add_group d !g ~ring:k ~first:i ~slot:s;
          open_g := !g;
          incr g
        end;
        prev := s
      end
    done;
    !g
  end

let rec compare_words ra sa rb sb k =
  if k > 5 then 0
  else
    let c = Int.compare (Ring.get_i ra sa k) (Ring.get_i rb sb k) in
    if c <> 0 then c else compare_words ra sa rb sb (k + 1)

let compare_groups d a b =
  let ra = g_ring d a and sa = g_slot d a in
  let rb = g_ring d b and sb = g_slot d b in
  let c = Float.compare (Ring.get_f ra sa 0) (Ring.get_f rb sb 0) in
  if c <> 0 then c
  else
    let c = Float.compare (Ring.get_f ra sa 1) (Ring.get_f rb sb 1) in
    if c <> 0 then c
    else
      (* header int words 1-5: class, then the packet identity *)
      let c = compare_words ra sa rb sb 1 in
      if c <> 0 then c
      else
        (* Distinct dispatches can share the whole key: two closures
           armed at one [(time, sched)] carry no packet identity, and
           the scheduler orders them by arming sequence, which is not
           shard-invariant (it depends on when a window drain ran).
           Their records' content is shard-invariant, so it
           canonicalizes the order — the same on a 1-ring and an N-ring
           decode. Structural compare of the decoded events is total
           and deterministic (ints, floats, interned-back strings). *)
        let c = Stdlib.compare (group_events d a []) (group_events d b []) in
        if c <> 0 then c
        else
          let c = Int.compare d.ranks.(d.gs.(4 * a)) d.ranks.(d.gs.(4 * b)) in
          if c <> 0 then c else Int.compare (g_first d a) (g_first d b)

(* Merge the ordered runs [src.(lo..mid-1)] and [src.(mid..hi-1)] into
   [dst.(lo..hi-1)]. *)
let merge cmp src dst lo mid hi =
  if cmp src.(mid - 1) src.(mid) <= 0 then Array.blit src lo dst lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid and k = ref lo in
    while !i < mid && !j < hi do
      let x = src.(!i) and y = src.(!j) in
      if cmp x y <= 0 then begin
        dst.(!k) <- x;
        incr i
      end
      else begin
        dst.(!k) <- y;
        incr j
      end;
      incr k
    done;
    if !i < mid then Array.blit src !i dst !k (mid - !i)
    else Array.blit src !j dst !k (hi - !j)
  end

(* Natural merge sort of [a.(lo..hi-1)]: find the ascending runs, then
   merge neighbouring runs pass by pass until one is left. Input already
   in order costs [hi - lo - 1] comparisons and no copy; any disorder
   still sorts. [b] and [runs] are scratch, as long as [a] and one
   longer. *)
let sort_runs cmp a b runs lo hi =
  if hi - lo > 1 then begin
    let n = ref 0 in
    runs.(0) <- lo;
    for i = lo + 1 to hi - 1 do
      if cmp a.(i - 1) a.(i) > 0 then begin
        incr n;
        runs.(!n) <- i
      end
    done;
    incr n;
    runs.(!n) <- hi;
    let src = ref a and dst = ref b in
    while !n > 1 do
      (* run [m] of the next pass is runs [r] and [r + 1] of this one;
         [runs] is rewritten in place, below the entries still unread *)
      let m = ref 0 and r = ref 0 in
      while !r < !n do
        let lo = runs.(!r) in
        if !r + 1 < !n then begin
          merge cmp !src !dst lo runs.(!r + 1) runs.(!r + 2);
          r := !r + 2
        end
        else begin
          Array.blit !src lo !dst lo (runs.(!r + 1) - lo);
          incr r
        end;
        runs.(!m) <- lo;
        incr m
      done;
      runs.(!m) <- hi;
      n := !m;
      let t = !src in
      src := !dst;
      dst := t
    done;
    if !src != a then Array.blit !src lo a lo (hi - lo)
  end

(* Merge every bound ring's records into the canonical event order.
   Each ring's dispatch groups keep their ring order, which is the
   order the ring's scheduler dispatched them in: already the canonical
   order wherever the key decides. Its departure groups, written at
   admission, are sorted apart. One natural merge sort then joins these
   runs, so a sequential unwired ring costs one comparison per group,
   and correctness never rests on the ring's order. Every component of
   the order before rank and position is shard-invariant, so a 1-ring
   decode and an N-ring decode of the same run order identically: that
   is the byte-identity the shard-invariance gate checks. Besides its
   events and their list, the decode allocates seven ints per group:
   four for the group, three for the sort. *)
let decode_rings () =
  let registry =
    Array.of_list
      (Mutex.protect lock (fun () ->
           List.sort
             (fun (ra, a) (rb, b) ->
               let c = Int.compare (Ring.shard a) (Ring.shard b) in
               if c <> 0 then c else Int.compare ra rb)
             !registry))
  in
  let rings = Array.map snd registry in
  let d =
    {
      rings;
      ranks = Array.map fst registry;
      names = interned_names ();
      gs = [||];
    }
  in
  let nr = Array.length rings in
  let bounds = Array.make (nr + 1) 0 in
  for k = 0 to nr - 1 do
    bounds.(k + 1) <- ring_groups ~store:false d k bounds.(k)
  done;
  let ng = bounds.(nr) in
  let d = { d with gs = Array.make (4 * ng) 0 } in
  for k = 0 to nr - 1 do
    ignore (ring_groups ~store:true d k bounds.(k) : int)
  done;
  let order = Array.make ng 0 and scratch = Array.make ng 0 in
  let runs = Array.make (ng + 1) 0 in
  let cmp = compare_groups d in
  let depart g = is_depart (g_ring d g) (g_slot d g) in
  let next = ref 0 in
  for k = 0 to nr - 1 do
    for g = bounds.(k) to bounds.(k + 1) - 1 do
      if not (depart g) then begin
        order.(!next) <- g;
        incr next
      end
    done;
    let departures = !next in
    for g = bounds.(k) to bounds.(k + 1) - 1 do
      if depart g then begin
        order.(!next) <- g;
        incr next
      end
    done;
    sort_runs cmp order scratch runs departures !next
  done;
  sort_runs cmp order scratch runs 0 ng;
  let evs = ref [] in
  for k = ng - 1 downto 0 do
    evs := group_events d order.(k) !evs
  done;
  !evs

(* --- capture ----------------------------------------------------------- *)

exception Overflow of { dropped : int; needed : int }

let capture ~capacity f =
  arm_rings ~capacity ();
  Fun.protect ~finally:disarm_rings (fun () ->
      bind_ring ~shard:0;
      let result = f () in
      let dropped = rings_dropped () in
      if dropped > 0 then begin
        let needed =
          Mutex.protect lock (fun () ->
              List.fold_left
                (fun n (_, r) -> Int.max n (Ring.written r))
                0 !registry)
        in
        raise (Overflow { dropped; needed })
      end;
      (result, decode_rings ()))

let write_jsonl ~path events =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun ev ->
          output_string oc (Json.to_string (to_json ev));
          output_char oc '\n')
        events)
