(** Packets and forwarding.

    A packet carries its remaining route as an array of hops; each hop is
    a function consuming the packet (a queue's enqueue, a pipe's delay, or
    an endpoint's protocol handler).

    Packet records are pooled: {!data} and {!ack} recycle cells from a
    per-domain free list and the component that consumes a packet — a
    protocol sink, or a queue/fault stage that drops it — must hand it
    back with {!free}. All fields are mutable for that reason; treat a
    packet as owned by whoever currently holds it. The float timestamps
    live in the float-only {!type-stamps} sub-record so re-stamping them
    never allocates. *)

type kind =
  | Data  (** one MSS of payload *)
  | Ack
      (** cumulative ACK; the payload rides in the [ackno], [sack_lo],
          [sack_hi] and [times.echo] fields so that building one
          allocates nothing *)

(** Float-only timestamp block (unboxed stores). *)
type stamps = {
  mutable sent_at : float;  (** departure time from the sender *)
  mutable enqueued_at : float;
      (** admission time at the queue currently holding the packet,
          re-stamped at every queue hop; [sent_at] until first queued.
          Queue-residence spans ([Pkt_forward.qdelay]) derive from it. *)
  mutable echo : float;
      (** ACKs only: departure timestamp of the packet that triggered
          the ACK, used for RTT sampling *)
  mutable departs : float;
      (** when the packet leaves the last wired queue it crossed (a
          wired queue's slot stamps it at admission, then arms its
          wire, [Pipe.send] or [Shard.send], which takes its timing
          from it); [sent_at] until then. Not part of the scheduler's
          content key. *)
}

type t = {
  mutable kind : kind;
  mutable seq : int;
      (** sequence number, in packets (Data only; 0 for ACKs) *)
  mutable size_bytes : int;
  mutable flow : int;  (** connection id, for tracing *)
  mutable subflow : int;
  mutable hop : int;  (** index of the next hop to visit *)
  mutable route : hop array;
  mutable ackno : int;
      (** ACKs only: the next expected sequence number *)
  mutable sack_lo : int;
  mutable sack_hi : int;
      (** ACKs only: the most recent SACK block [\[sack_lo, sack_hi)]
          of out-of-order data held by the receiver, the run around the
          segment that triggered the ACK; an empty range (both 0) on
          the in-order path and on data packets *)
  times : stamps;
  mutable live : bool;
      (** debug-only ownership bit: set by the pool, cleared by
          {!free}; checked when OLIA_DEBUG_INVARIANTS is armed *)
}

and hop = t -> unit

val data_size : int
(** 1500 bytes: MSS-sized segments. *)

val ack_size : int
(** 40 bytes. *)

val kind_code : kind -> int
(** [Data] is 0, [Ack] is 1: the fixed integer encoding used by the
    binary trace rings and the scheduler's content tie-break. *)

val data : flow:int -> subflow:int -> seq:int -> sent_at:float ->
  route:hop array -> t
(** A data packet positioned at the first hop of [route], drawn from the
    per-domain pool. *)

val ack : flow:int -> subflow:int -> ackno:int -> echo:float ->
  sack_lo:int -> sack_hi:int -> route:hop array -> sent_at:float -> t
(** An acknowledgment positioned at the first hop of [route], drawn from
    the per-domain pool, carrying the SACK block
    [\[sack_lo, sack_hi)] (pass [~sack_lo:0 ~sack_hi:0] for none). *)

val free : t -> unit
(** Return a packet to the pool. Call exactly once, at the point the
    packet leaves the simulation: a protocol sink that has absorbed it,
    or a queue/fault stage that dropped it. Double frees raise
    [Invariant.Violation] when invariants are armed. *)

val forward : t -> unit
(** Deliver the packet to the slot its [hop] names, stepping [hop] past
    it: the one way a packet advances. A packet event
    ([Sim.schedule_pkt]) calls it at dispatch, so a pending packet's
    [hop] names its next slot, the one convention the scheduler's
    content tie-break compares. With invariants armed, raises
    [Invariant.Violation] on a freed packet or an index outside the
    route — for a pending packet, when it arrives; past the end of the
    route it fails an assertion in any case. *)

val sentinel : unit -> t
(** A fresh packet that is outside the pool protocol ([live = false],
    never to be forwarded or freed): a placeholder for "no packet" slots
    in data structures. *)
