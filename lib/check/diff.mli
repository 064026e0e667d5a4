(** Differential measurements between the float congestion-control
    model and its fixed-point kernel twins ([olia-fp], [balia-fp]).

    {!paired} runs one seeded measurement under each backend, and
    {!lockstep} drives both backends per-ACK through one prescribed
    schedule. Both return flat metric lists; the [diff/] cases of
    {!Conformance} bound them with bands citing the kernel source
    ({!olia_source}, {!balia_source}) the integer side mirrors. *)

val olia_source : string
val balia_source : string

val paired :
  float_algo:string -> fixed_algo:string ->
  (string -> (string * float) list) -> (string * float) list
(** [paired ~float_algo ~fixed_algo measure] runs [measure] once per
    backend and exports, for each metric [m] of the float run,
    [m.float], [m.fixed] and [m.rel_dev] =
    [|float - fixed| / max |float| 1e-9] (NaN when the fixed run lacks
    [m]). *)

type lockstep_result = {
  max_rel_divergence : float;
      (** largest per-subflow relative cwnd divergence over the run,
          after allowing the one packet the integer cwnd quantizes *)
  final_float : float array;  (** per-subflow cwnd after the run *)
  final_fixed : float array;
}

val lockstep : float_algo:string -> fixed_algo:string -> lockstep_result
(** Drive both backends through an identical prescribed ACK/loss
    schedule on two asymmetric synthetic subflows for 4000 steps (no
    simulator, no randomness). *)

val lockstep_metrics :
  float_algo:string -> fixed_algo:string -> (string * float) list
(** {!lockstep}'s joint [max_rel_divergence], then each subflow's final
    cwnd as {!paired} exports it ([final_cwnd_sf0.float], ...). *)
