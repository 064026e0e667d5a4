(** TCP and MPTCP endpoints.

    One [conn] is a sender/receiver pair joined by one or more paths. With
    a single path and the Reno algorithm this is regular TCP; with several
    paths and a coupled algorithm ([Repro_cc]) it is an MPTCP connection
    whose subflows share the congestion controller, as in the paper's
    Linux implementation (§IV-B):

    - slow start, congestion avoidance, fast retransmit / NewReno-style
      fast recovery and retransmission timeouts per subflow;
    - the congestion-avoidance increase per ACK is delegated to the
      algorithm, which sees every subflow's window and RTT;
    - losses apply the algorithm's decrease (TCP halving for LIA/OLIA)
      and are reported to it (OLIA's ℓ counters);
    - when several paths are established and the algorithm requests it
      (OLIA), the initial slow-start threshold is forced to 1 MSS. *)

type path = {
  fwd : Packet.hop array;  (** sender → receiver hops (queues, pipes) *)
  rev : Packet.hop array;  (** receiver → sender hops for ACKs *)
}

type conn

val create :
  sim:Sim.t ->
  ?rcv_sim:Sim.t ->
  cc:Repro_cc.Cc_types.t ->
  paths:path array ->
  ?size_pkts:int ->
  ?start:float ->
  ?initial_cwnd:float ->
  ?rcv_wnd:float ->
  ?on_complete:(float -> unit) ->
  flow_id:int ->
  unit ->
  conn
(** Create a connection and schedule every subflow's first
    transmission at [start] (default 0). [size_pkts = None] means an
    infinite (long-lived) flow; finite flows call [on_complete] with
    the completion time once every packet is delivered.
    [initial_cwnd] defaults to 2 packets and [rcv_wnd] — the
    receiver-window cap on each subflow's usable window — to 10000
    packets. The receiver acknowledges every segment at once, as in
    the htsim comparisons, and the RTO floor is 0.2 s. The [cc]
    instance must be private to this connection.

    [rcv_sim] (default [sim]) is the event loop of the receiver
    endpoint, for sharded topologies where sender and receiver run in
    different domains ({!Shard}): the data sink then sends its ACKs on
    [rcv_sim]; the receiver arms no timer. Sender-side and
    receiver-side mutable state are disjoint field sets, so no locking
    is needed as long as the forward route is dispatched by [rcv_sim]
    past the shard cut and the reverse route by [sim]. *)

val subflow_count : conn -> int
val total_acked : conn -> int
(** Unique data packets delivered so far (across subflows). *)

val completed : conn -> bool
val completion_time : conn -> float option

val subflow_cwnd : conn -> int -> float
(** Current congestion window of a subflow, packets. *)

val subflow_ssthresh : conn -> int -> float

val subflow_rtt : conn -> int -> float
(** Smoothed RTT estimate (0 before the first sample). *)

val subflow_acked : conn -> int -> int
(** Cumulatively acknowledged packets on one subflow. *)

val subflow_retransmits : conn -> int -> int
val subflow_timeouts : conn -> int -> int

val set_subflow_enabled : conn -> int -> bool -> unit
(** Allow or forbid new data on a subflow. Disabling lets the flight
    drain but sends nothing new (used by [Path_manager] to discard bad
    paths, the paper's §VII suggestion); re-enabling resumes sending. *)

val subflow_enabled : conn -> int -> bool
