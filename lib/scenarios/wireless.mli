(** Wireless multipath scenario, after Chen, Lim, Gibbens, Nahum, Khalili
    and Towsley's measurement study (the paper's reference [12], which
    found "MPTCP with OLIA always outperforms MPTCP with LIA in wireless
    networks").

    A dual-homed client bonds a WiFi-like path (higher rate, random
    non-congestion losses, short RTT) with a cellular-like path (lower
    rate, clean, long RTT). *)

type config = {
  wifi_mbps : float;
  wifi_loss : float;  (** random per-packet loss on the WiFi path *)
  wifi_delay_ms : float;  (** one-way propagation *)
  cell_mbps : float;
  cell_delay_ms : float;
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** 20 Mb/s WiFi with 1% random loss and 15 ms delay; 8 Mb/s cellular
    with 40 ms delay; OLIA; 90 s / 20 s warm-up. *)

val run : config -> Repro_exp.Outcome.t
(** Metrics, in order: [wifi_mbps] and [cell_mbps] (goodput carried
    over each path after the warm-up; [cell_mbps] is 0 for ["reno"],
    which uses the WiFi path alone), [total_mbps], and [wifi_timeouts]
    (retransmission timeouts on the WiFi subflow).

    The registry checks its inputs; called directly, it trusts them. *)
