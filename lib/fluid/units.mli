(** Unit conventions shared by the analytical models.

    Rates and capacities are expressed in packets (MSS) per second, round
    trip times in seconds and loss probabilities are dimensionless. Helpers
    convert to and from the Mbps figures quoted in the paper. *)

val pps_of_mbps : float -> float
(** Convert a rate in Mbit/s to MSS-sized (1500-byte, as in the paper's
    Fig. 17 discussion) packets per second. *)

val mbps_of_pps : float -> float
(** Convert packets per second to Mbit/s. *)

val probe_rate : rtt:float -> float
(** The minimum probing traffic of a window-based algorithm: one MSS per
    RTT, in packets per second. *)
