(** Deterministic fault injection: a gate hop that can take a link
    down, drop data packets at random, or delay (reorder) packets for
    scheduled windows of simulated time.

    Place {!hop} on a route like a queue or pipe and drive the failure
    schedule with {!schedule_flap}, {!schedule_burst} and
    {!schedule_reorder}. Mode switches ride the simulator clock and
    randomness comes from the seeded {!Rng}, so a fault scenario is as
    reproducible as any other run — the conformance harness
    ([lib/check]) relies on byte-identical reports across runs.

    While [Down] the gate swallows traffic in both directions (data and
    ACKs), as a dead link would; [Burst] drops each data packet
    independently and lets ACKs through, as a lossy wireless hop with a
    reliable reverse channel would (a gate left in [Burst] for the
    whole run is the wireless scenario's random-loss link); [Reorder]
    holds back a random subset of packets by a fixed extra delay so
    later packets overtake them. Drops are traced as [Trace.Pkt_drop]:
    outage drops with cause [Link_down], burst drops with
    [Random_loss]. *)

type mode =
  | Up  (** pass-through (initial state) *)
  | Down  (** swallow everything *)
  | Burst of { loss_prob : float }  (** Bernoulli-drop data packets *)
  | Reorder of { prob : float; extra_delay : float }
      (** delay a [prob]-fraction of packets by [extra_delay] seconds *)

type t

val create : sim:Sim.t -> rng:Rng.t -> ?name:string -> unit -> t
(** A gate starting [Up]. [name] (default ["fault"]) labels trace
    events. *)

val hop : t -> Packet.hop
(** The gate's entry point, to place on routes. *)

val is_down : t -> bool

val set_mode : t -> mode -> unit
(** Switch immediately. Raises [Invalid_argument] on parameters outside
    their ranges ([Burst]: [0 <= loss_prob < 1]; [Reorder]:
    [0 <= prob <= 1], [extra_delay > 0]), NaN included. *)

val schedule_flap : t -> down_at:float -> up_at:float -> unit
(** Link outage over [\[down_at, up_at)]. Raises [Invalid_argument]
    unless [down_at < up_at]. *)

val schedule_burst : t -> at:float -> until:float -> loss_prob:float -> unit
(** Burst-loss episode over [\[at, until)] dropping each data packet
    with probability [loss_prob] (in [\[0, 1)]; checked at once). *)

val schedule_reorder :
  t -> at:float -> until:float -> prob:float -> extra_delay:float -> unit
(** Reordering window over [\[at, until)]: each packet is delayed by
    [extra_delay] with probability [prob]. *)

val dropped : t -> int
(** Packets swallowed (outage plus burst losses). *)

val reordered : t -> int
(** Packets held back by a reorder window. *)

val passed : t -> int
(** Packets forwarded immediately. *)
