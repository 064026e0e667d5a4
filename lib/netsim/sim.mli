(** Discrete-event simulation core: a clock and a time-ordered set of
    timers, dispatched in an order fixed by the simulation state, so
    runs are deterministic.

    Internally the scheduler is a hierarchical timing wheel over
    ns-resolution integer ticks (four levels of 256 slots; events beyond
    the wheel horizon fall back to a sorted spill list). Dispatch order
    is [(time, sched, class, packet content, seq)] on the exact [float]
    times. [sched] is the arming time: the clock, or the instant a
    packet event names ({!schedule_pkt}), so wired, unwired and sharded
    runs break ties identically. At equal [(time, sched)] closures come
    before packet events, packet events order by their packet's header,
    which a cross-shard delivery re-materializes exactly, and the arming
    order [seq] decides the rest. The tick quantisation is never
    observable.

    Timer cells are pooled in free lists and handles are unboxed
    integers, so the steady-state schedule/cancel/reschedule cycle of a
    well-behaved component (one persistent timer, re-armed in place)
    allocates nothing.

    Every timer fires once. Periodic work re-arms itself with
    {!schedule_after} as the last statement of its callback, which
    takes the tie-break sequence number after everything the callback
    scheduled. *)

type t

type sim = t
(** Alias so {!Timer}'s signature can refer to the simulator type. *)

(** Cancellable timer handles.

    A handle names one scheduled occurrence. It is an unboxed integer
    carrying a generation stamp: once the timer has fired or been
    cancelled, the handle goes stale and every operation on it is
    either a no-op ([cancel]) or an error ([reschedule]), never a
    corruption of an unrelated timer that happens to reuse the cell. *)
module Timer : sig
  type t

  val none : t
  (** A handle that is never active: the right initial value for a
      mutable timer field. *)

  val active : sim -> t -> bool
  (** [active sim h] is [true] while the timer is scheduled and has not
      yet fired or been cancelled. *)

  val cancel : sim -> t -> unit
  (** Cancel the timer. A no-op on a stale handle (already fired or
      cancelled), so callers need not track firing themselves. *)

  val reschedule : sim -> t -> float -> unit
  (** [reschedule sim h time] moves a pending timer to [time], keeping
      its callback and handle but taking a fresh tie-break sequence
      number (exactly as if it had been cancelled and scheduled anew at
      this instant). Raises [Invalid_argument] if the handle is stale,
      [time] is not finite, or [time] is in the past (rescheduling
      backward across [now] is rejected). *)
end

val create : unit -> t
(** A simulator at time 0 with no events. *)

val now : t -> float
(** Current simulated time, seconds. *)

val next_seq : t -> int
(** The tie-break sequence number the next armed timer will take:
    timers armed earlier hold smaller ones. *)

val departed : t -> float -> float -> int -> bool
(** [departed t dep start seq] answers, for a timer that was never
    armed: would a closure armed when the clock read [start], due at
    [dep], have dispatched before the event now running? [seq] is the
    sequence number it would have taken ({!next_seq} at that moment),
    or [-1] if the caller cannot say. It holds when [dep < now t], or
    when [dep = now t] and either no dispatch is running (after
    {!run_until} or {!run} returns, every event at or before [now] has
    run), or the current event was armed later ([start] below its
    [sched]), or it was armed at the same instant and is a packet
    delivery (closures sort before packets at an equal [(time,
    sched)]), or it is a closure armed at the same instant that took a
    sequence number at or above [seq]. A wired queue (one whose route
    slot names its wire, [Queue.wired_hop]) asks this of each service
    it never scheduled.

    With [seq = -1] that last case cannot be decided: the scheduler
    would order the two closures by arming sequence, so this raises
    [Invalid_argument] rather than guess. A wired queue knows [seq]
    for the first packet of a busy period, whose service starts at its
    admission, but not for later ones, whose service starts when their
    predecessor leaves. Reaching the raise takes a closure armed at
    such a departure instant whose delay equals the next packet's
    service time exactly. *)

val schedule_at : src:string -> t -> float -> (unit -> unit) -> Timer.t
(** [schedule_at ~src t time fn] runs [fn] when the clock reaches
    [time] and returns a handle for cancellation. Raises
    [Invalid_argument] if [time] is in the past or not finite (NaN and
    infinities are rejected rather than silently misordering the
    schedule). [src] labels the event source for [Repro_obs.Profile]
    attribution; when profiling is armed at scheduling time the
    callback is wrapped to account its dispatch count and wall time,
    otherwise the label costs nothing. *)

val schedule_after : src:string -> t -> float -> (unit -> unit) -> Timer.t
(** [schedule_after ~src t delay fn] =
    [schedule_at ~src t (now t +. delay) fn]. *)

val schedule_pkt : src:string -> t -> sched:float -> float -> Packet.t -> unit
(** [schedule_pkt ~src t ~sched time p] delivers [p] to the slot its
    [hop] names ({!Packet.forward}) when the clock reaches [time],
    ordered among same-instant events as if armed when the clock read
    [sched]: [now t] for a plain delay ([Pipe.hop], [Fault]'s reorder),
    a wired queue's departure for the arrival it arms on its wire
    ([Pipe.send]), the message's source-shard egress for a cross-shard
    delivery ([Shard.deliver]). [sched] may lie in the past; it is an
    ordering key, not a deadline. The packet rides in the pooled timer
    cell itself, so arming allocates nothing, and a pending packet's
    [hop] names its next slot, the one convention the content tie-break
    compares. [src] labels the event for [Repro_obs.Profile] as in
    {!schedule_at}; a profiled packet event keeps its place in the
    dispatch order. Raises [Invalid_argument] if [time] is in the past
    or not finite. *)

val run_until : t -> float -> unit
(** Process events in order until no event remains at or before the
    horizon; the clock ends at the horizon. *)

val run : t -> unit
(** Process events until none remain. A source that re-arms itself
    unconditionally keeps this running forever; bound it or use
    {!run_until}. *)

val pending : t -> int
(** Number of scheduled timers. *)

val events_processed : t -> int
(** Total events executed so far (for the micro-benchmarks). *)

val max_heap_depth : t -> int
(** High-water mark of the scheduler: the most timers that were ever
    pending at once (for the observability counters). *)
