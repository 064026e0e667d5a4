(** Conservative parallel simulation: one {!Sim} event loop per shard,
    synchronized in lockstep windows of length [lookahead].

    A sharded topology is an ordinary topology whose graph has been cut
    at links of latency ≥ [lookahead]: each cut link's propagation pipe
    is replaced by a cross-shard {!channel}, and every shard runs its
    own simulator, in its own domain, over the sub-topology it owns.

    The synchronization protocol is the classic conservative-lookahead
    window loop, degenerate (all-to-all) form: all shards advance
    through the same window boundaries [H_w = w·lookahead]. A message
    sent at time [s ∈ (H_{w-1}, H_w]] travels a channel of latency
    [lookahead], so it arrives strictly after [H_w] — exchanging
    inboxes at every boundary therefore delivers every message before
    its arrival time is reached, no shard ever receives an event in its
    past, and no rollback is needed. Deadlock-freedom is immediate:
    windows are fixed in advance, every shard always advances to the
    next boundary without waiting on message availability, and the two
    barriers per window are the only blocking points. See DESIGN.md
    ("Sharded multicore simulation") for the full argument.

    A channel is the wire of a wired queue ([Queue.wired_hop] with
    [Queue.Channel], as [Topology.Fattree] builds every cut link): the
    queue calls {!send} when it admits the packet, and the message's
    egress is the packet's departure from that queue
    ([times.departs]), at least one service time later. A message
    therefore arrives at least a service time plus the lookahead after
    it was sent, beyond the window it was sent in, with room to spare:
    {!send} refuses a packet whose departure is not ahead of the clock,
    and delivery refuses an arrival behind the destination's clock,
    instead of clamping it.

    Determinism: within a window each shard is an ordinary sequential
    simulator. At each boundary the drained messages are merged in
    [(arrival, egress, src_shard, src_seq)] order ({!compare_msg})
    before being scheduled, so the schedule-order tie-break of {!Sim} is a pure
    function of the simulation state — results are reproducible for a
    given (seed, shard count). Moreover each delivery carries its
    source-shard egress time as the [sched] tie-break key of
    {!Sim.schedule_pkt} — the same key the sequential run's
    propagation pipe produces — and its packet the header the
    sequential run's would carry, so same-instant events dispatch in
    the sequential order regardless of shard count, and a sharded run
    is bitwise identical to the unsharded one. A one-shard group is
    trivially so because windowed [run_until] calls chain exactly like
    a single call. *)

type t
(** A shard group: the sims, their channels and the lookahead. *)

type channel
(** A unidirectional cross-shard link stage of fixed latency: packets
    {!send} hands it on the source shard reappear on the
    destination shard [latency] seconds later (re-allocated from the
    destination domain's packet pool). *)

(** One message in flight on a channel, exposed for the merge-order
    property tests. *)
type msg = {
  arrival : float;  (** absolute delivery time on the destination sim *)
  egress : float;
      (** the packet's departure from the wired queue feeding the
          channel — the instant the sequential run's propagation pipe
          arms the delivery timer for. Passed as the [~sched] tie-break
          key to {!Sim.schedule_pkt} so sharded and sequential runs
          order same-instant arrivals identically. *)
  src_shard : int;
  src_seq : int;
      (** send index across all of the source shard's channels — the
          order in which the sends executed on the source domain.
          It orders only messages equal in arrival and egress, whose
          deliveries the destination then orders by packet content. *)
  kind : Packet.kind;
  pkt_seq : int;
  flow : int;
  subflow : int;
  hop : int;
      (** index into [route] of the slot after the channel's: the
          delivered packet's next slot, as a pending arrival's [hop]
          names it in the sequential run *)
  route : Packet.hop array;
  ackno : int;
  sack_lo : int;
  sack_hi : int;
      (** the ACK's SACK block [\[sack_lo, sack_hi)], copied from
          {!Packet.t}; empty (both 0) on data and in-order ACKs *)
  sent_at : float;
  enqueued_at : float;
  echo : float;
}

val create : sims:Sim.t array -> lookahead:float -> t
(** A group over the given per-shard simulators. [lookahead] is the
    window length and the latency of every channel; it must be finite
    and positive when there is more than one shard. Raises
    [Invalid_argument] on an empty [sims]. *)

val shard_count : t -> int

val sim : t -> int -> Sim.t
(** The simulator owned by one shard. *)

val open_channel : t -> src:int -> dst:int -> channel
(** Register a channel from shard [src] to shard [dst] whose latency is
    the group's lookahead. Raises [Invalid_argument] if [src = dst] or
    either index is out of range. Construction-time only: not safe
    once {!run_windows} has started. *)

val send : channel -> Packet.t -> unit
(** Hand a packet to the channel: the wired queue feeding it calls this
    at admission, with the packet's hop index already past the
    channel's route slot. It consumes the packet (returning it to the
    source domain's pool) and enqueues a timestamped message; the
    destination shard re-materializes the packet at the next window
    boundary and delivers it at [times.departs + latency]. Raises
    [Invalid_argument] unless [times.departs] is ahead of the source
    clock: a channel must be fed by a wired queue. On a route, [send ch]
    is the cut link's wire slot, which the queue steps over: it keeps
    hop indices equal to the sequential run's. *)

val sent_count : channel -> int
(** Messages whose egress the source clock has reached (source-domain
    view): after {!run_windows}, the packets that left the cut link's
    queue by the horizon. A packet the queue admitted but still held at
    the horizon is handed to the channel yet not counted. *)

val compare_msg : msg -> msg -> int
(** The deterministic merge order: [(arrival, egress, src_shard,
    src_seq)], lexicographically — arrival first so deliveries schedule
    in dispatch order, then the sequential run's arming order (egress
    instant, then send order within it). A total order on distinct
    messages from the runtime ([src_seq] is unique per source shard). *)

val merge : msg list list -> msg list
(** Merge per-channel FIFO batches into dispatch order — the order in
    which the destination shard schedules the arrivals, and therefore
    the order {!Sim} breaks same-instant ties. Equals sorting the
    concatenation by {!compare_msg}; exposed for the QCheck property
    ("merged dispatch order equals the sequential order"). *)

val windows : lookahead:float -> horizon:float -> int
(** Number of lockstep windows needed to reach [horizon]: the smallest
    [w >= 1] with [float w *. lookahead >= horizon] (0 when [horizon <=
    0.]), so the last window's boundary never falls short of the
    horizon. *)

val run_windows :
  pool:((unit -> unit) array -> unit) -> t -> horizon:float -> unit
(** Run every shard to [horizon] through the barrier/window loop, one
    worker per shard scheduled by [pool] (pass [Repro_exp.Sweep.pool]
    to use the sweep engine's domain plumbing, or a sequential pool for
    single-domain tests — the results are identical by construction;
    with a single shard the loop degenerates to chained [run_until]
    calls on the calling domain). Tracing and profiling are
    per-worker: when tracing is armed ([Trace.arm_rings]) each worker
    binds its own ring under its shard id — the decoded merge
    reproduces the sequential event order — and each worker's profile
    table is tagged with its shard (barrier wait accounted under
    ["shard.barrier"]). A worker that raises breaks the window
    barrier, so the other workers stop at their next wait instead of
    blocking, and its exception is re-raised after all domains have
    been joined (an arrival behind the destination's clock raises
    [Invalid_argument] this way). *)
