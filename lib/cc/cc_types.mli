(** Common interface of coupled congestion-control algorithms.

    A multipath connection owns a number of subflows; the transport layer
    reports per-ACK and per-loss events and asks the algorithm for the
    congestion-avoidance window increase. Windows are measured in packets
    (MSS units) and may be fractional. *)

type subflow_view = {
  mutable cwnd : float;  (** congestion window, packets *)
  mutable rtt : float;  (** smoothed round-trip time, seconds *)
}
(* Both fields are mutable (and float-only, so stores stay unboxed): the
   transport layer refreshes one long-lived view array per connection
   instead of rebuilding it on every ACK. Algorithms must treat views as
   read-only snapshots valid only for the current call. *)
(** What an algorithm may observe about each subflow (exactly the
    information available to a regular TCP sender, as the paper
    requires). *)

type t = {
  name : string;
  multipath_initial_ssthresh : float option;
      (** [Some s]: when the connection has several subflows, slow-start
          threshold is forced to [s] packets (OLIA's Linux implementation
          uses 1 MSS, §IV-B); [None] keeps regular TCP slow start. *)
  on_ack : idx:int -> acked:int -> unit;
      (** bookkeeping for [acked] newly-acknowledged packets on subflow
          [idx] (OLIA's inter-loss counters ℓ₁/ℓ₂). A packet count, as
          the kernel keeps it; an [int] also crosses the closure call
          without a boxed float on every ACK. *)
  on_loss : idx:int -> unit;
      (** bookkeeping for a loss event on subflow [idx]. *)
  increase : views:subflow_view array -> idx:int -> float;
      (** congestion-avoidance window increase per ACK on subflow [idx],
          in packets; may be negative (OLIA shifts traffic away from
          maximal-window paths). *)
  loss_decrease : views:subflow_view array -> idx:int -> float;
      (** window decrement to apply on a loss event (TCP halves:
          [cwnd/2]). *)
}
(** A packed algorithm instance. Instances are stateful and must not be
    shared between connections. *)

val halve : views:subflow_view array -> idx:int -> float
(** The unmodified TCP decrease [cwnd/2] (paper §IV: OLIA and LIA use
    unmodified TCP behavior on loss). *)

val fmax : float -> float -> float
(** [fmax a b] is [Stdlib.max a b] on floats: [if a >= b then a else b],
    so NaN and signed zeros resolve as they do there (unlike
    [Float.max]). Being monomorphic and inlined, it skips the C
    polymorphic compare and the argument boxing that [Stdlib.max]
    costs. *)

val fmin : float -> float -> float
(** [fmin a b] is [Stdlib.min a b] on floats, like {!fmax}. *)
