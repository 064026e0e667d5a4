(** Structured event tracing for the simulator.

    Instrumentation sites in [lib/netsim] call the scalar emission
    functions ({!pkt_enqueue}, {!cwnd_update}, ...) only when {!enabled}
    returns true, so the tracing-off path costs one ref read and
    allocates nothing. Armed, each participating domain binds a binary
    {!Ring} with {!bind_ring}; emission is a fixed-width record write —
    zero minor allocation, covered by the R9 [\[@olia.alloc_free\]]
    proof — and {!decode_rings} merges the rings offline into the
    canonical event order, the same at any shard count. {!capture}
    wraps the whole cycle around one run.

    The JSONL wire format ({!write_jsonl}) is one compact
    [Repro_stats.Json] object per line, led by an ["ev"]
    discriminator; ring records decode back to {!event} values. *)

type tcp_state = Slow_start | Congestion_avoidance | Fast_recovery

type drop_cause =
  | Overflow  (** buffer full on arrival *)
  | Red_early  (** RED early (probabilistic) drop *)
  | Random_loss  (** Bernoulli drop by a [Fault] gate in [Burst] mode *)
  | Link_down  (** fault-injected outage swallowed the packet *)

type event =
  | Pkt_enqueue of {
      time : float;
      queue : string;
      flow : int;
      subflow : int;
      seq : int;
      kind : string;
      backlog : int;  (** occupancy after the packet was admitted *)
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
          (** queue residence: seconds between the packet's admission
              ({!Pkt_enqueue}) and this forward, service included *)
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
  | Rto_fired of {
      time : float;
      flow : int;
      subflow : int;
      rto : float;  (** the RTO that just expired, pre-backoff *)
    }
  | Rtt_sample of {
      time : float;
      flow : int;
      subflow : int;
      rtt : float;  (** the raw sample from the ACK's echoed timestamp *)
      srtt : float;  (** smoothed estimate after folding the sample in *)
    }
  | Subflow_add of { time : float; flow : int; subflow : int }
  | Subflow_remove of { time : float; flow : int; subflow : int }

val to_json : event -> Repro_stats.Json.t

val of_json : Repro_stats.Json.t -> (event, string) result
(** Inverse of {!to_json}. Finite floats round-trip exactly (the Json
    printer guarantees it); a [null] numeric field reads back as nan. *)

(** {1 Interning}

    Queue names intern to small ints at component creation time so the
    armed emission path stores an int instead of touching a string.
    Interning is mutex-protected and happens off the hot path (topology
    construction, and one copy of the table per {!decode_rings}). *)

val intern : string -> int
(** Id of [s], allocating a fresh one on first sight. Stable for the
    process lifetime. *)

(** {1 Rings} *)

val enabled : unit -> bool
(** One ref read — true between {!arm_rings} and {!disarm_rings}.
    Instrumentation sites must guard emission with it, and worker loops
    use it to decide whether to {!bind_ring}. *)

val arm_rings : ?capacity:int -> unit -> unit
(** Arm tracing and reset the ring registry. Subsequent {!bind_ring}
    calls create rings of [capacity] records (default [65536]); a full
    ring overwrites its oldest record and counts it in
    {!rings_dropped}. The capacity only caps a ring: its storage is
    allocated 4096 records at a time as they are written. Call before
    the traced run starts, from the orchestrating domain. *)

val bind_ring : shard:int -> unit
(** Create a fresh ring for the calling domain (its chunk table only,
    no record storage), register it under [shard], and install it in
    domain-local storage: every subsequent armed emission on this
    domain writes the ring. A domain that already holds a ring of the
    current arming under [shard] keeps it. Workers call this once at
    window-loop start. Raises [Invalid_argument] if rings are not
    armed. *)

val unbind_ring : unit -> unit
(** Detach the calling domain from its ring (the ring stays
    registered for decoding). An armed emission on a domain without a
    ring raises [Ring.Full]. *)

val disarm_rings : unit -> unit
(** Disarm tracing, drop the registry and unbind the calling domain.
    Decode first. *)

val rings_dropped : unit -> int
(** Total records lost to overflow across all registered rings —
    nonzero means {!decode_rings} is incomplete and the rings need a
    bigger capacity. *)

val decode_rings : unit -> event list
(** Merge every registered ring into the canonical event order. The
    consecutive records one dispatch wrote (same dispatch ordinal, same
    time) form a group and keep their emission order; departure records
    ({!pkt_depart}) are skipped over and form groups of their own,
    and those past their ring's horizon are dropped. Groups sort by
    their dispatch key [(time, sched, class, dispatching-packet
    identity)] — the scheduler's own dispatch order — then by content
    (closures armed at one [(time, sched)] carry no packet identity,
    and their arming order is not shard-invariant), with ring rank and
    in-ring position as the final tie-break. Every component before
    rank/pos is shard-invariant, so an N-shard decode is byte-identical
    to the 1-shard decode of the same seed.

    Cost: linear in the records wherever the rings already hold
    dispatch order. A group is four ints (ring, first and last record,
    first slot) whose key is read from the ring words; each ring's
    dispatch groups keep their ring order, its departure groups are
    sorted, and one natural merge sort joins these runs, so a
    sequential unwired ring takes one comparison per group. Two groups
    are decoded to compare their content only when they tie on the
    whole key. The intern table is copied once per call. Only the
    events, their list and the group arrays are allocated (about 18
    words per record on the Scenario B report capture). *)

exception Overflow of { dropped : int; needed : int }
(** A ring overflowed during {!capture}: [dropped] records were lost,
    and [needed] is the smallest per-ring capacity that holds the run
    (the most records any one ring received). *)

val capture : capacity:int -> (unit -> 'a) -> 'a * event list
(** [capture ~capacity f] arms rings of [capacity] records, binds
    shard 0 on the calling domain, runs [f] and decodes every ring of
    the arming — also those that sharded workers bind inside [f].
    Rings are disarmed afterwards, also when [f] raises. Raises
    {!Overflow} when any ring dropped records, so a decode is either
    complete or absent. *)

val write_jsonl : path:string -> event list -> unit
(** Write events to [path] as JSONL, one {!to_json} object per line. *)

(** {1 Scalar emission}

    The armed hot path: one function per event, taking the interned
    queue id and integer kind code instead of strings. They allocate
    nothing on the minor heap (R9-proven). Callers guard with
    {!enabled} and pass [Packet.kind_code] / the queue's interned id. *)

val pkt_enqueue :
  time:float ->
  queue:int ->
  flow:int ->
  subflow:int ->
  seq:int ->
  kind:int ->
  backlog:int ->
  unit

val pkt_drop :
  time:float ->
  queue:int ->
  flow:int ->
  subflow:int ->
  seq:int ->
  kind:int ->
  cause:drop_cause ->
  unit

val pkt_forward :
  time:float ->
  queue:int ->
  flow:int ->
  subflow:int ->
  seq:int ->
  kind:int ->
  bytes:int ->
  qdelay:float ->
  unit

val pkt_depart :
  time:float ->
  sched:float ->
  queue:int ->
  flow:int ->
  subflow:int ->
  seq:int ->
  kind:int ->
  bytes:int ->
  qdelay:float ->
  unit
(** A departure record: a queue that hands each packet to its wire at
    admission (a wired queue, [Queue.wired_hop]) writes it then, with the
    departure [time] and the service start [sched]. It decodes to the
    {!Pkt_forward} event the queue's serve event would have written at
    [time], under that event's dispatch key [(time, sched, closure, no
    packet)], as a group of its own: it does not split the records of
    the dispatch it was written in. A departure later than the ring's
    last noted horizon ({!note_horizon}) is dropped, because that serve
    event would never have run. *)

val note_horizon : float -> unit
(** Note on the calling domain's ring the horizon its simulator just
    reached ([Sim.run_until]; [Sim.run] notes [infinity]). Called
    only while tracing is armed; a no-op on a domain with no ring. A
    ring keeps only the last horizon, so the filter assumes one
    simulation per ring per arming, as every capture path runs it. *)

val tcp_state :
  time:float ->
  flow:int ->
  subflow:int ->
  from_state:tcp_state ->
  to_state:tcp_state ->
  unit

val cwnd_update :
  time:float -> flow:int -> subflow:int -> cwnd:float -> ssthresh:float -> unit

val rto_fired : time:float -> flow:int -> subflow:int -> rto:float -> unit

val rtt_sample :
  time:float -> flow:int -> subflow:int -> rtt:float -> srtt:float -> unit

val subflow_add : time:float -> flow:int -> subflow:int -> unit
val subflow_remove : time:float -> flow:int -> subflow:int -> unit

val emit : event -> unit
(** Variant-level entry point: decomposes to the scalar functions,
    re-interning the queue name. For tests and callers holding an
    {!event}. *)

val set_dispatch_ctx :
  sched:float -> cls:int -> flow:int -> subflow:int -> pseq:int -> kind:int ->
  unit
(** Called by the scheduler once per dispatch while tracing is armed:
    records the dispatching event's ordering key — arming time [sched],
    dispatch class [cls] (closures 0, packets 1), and the dispatched
    packet's identity (zeros for closures) — in domain-local storage,
    and bumps the domain's dispatch ordinal. Every ring record written
    during the dispatch carries both; the decoder groups on the ordinal
    and sorts on the key. Allocation-free. *)
