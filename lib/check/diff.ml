module Cc = Repro_cc.Cc_types
module Registry = Repro_cc.Registry

(* Differential measurements between the float congestion-control
   model and its fixed-point kernel twins: the same seeded scenario is
   run once per backend and the resulting metrics must agree within a
   divergence band. The twins truncate cwnd to whole packets and carry
   every update in scaled integers, so the trajectories are not
   identical — but both sit in the same equilibrium basin, and the
   bands bound how far the integer arithmetic may drift the measured
   goodputs. The sources name the kernel code the integer side
   mirrors; the bands cite them. *)

let olia_source =
  "net/mptcp/mptcp_olia.c (linux-4.1 MPTCP tree): scale=10 fixed-point \
   rate/epsilon/snd_cwnd_cnt arithmetic"

let balia_source =
  "net/mptcp/mptcp_balia.c (linux-4.1 MPTCP tree): recalc_ai with \
   alpha_scale=10, rate_scale_limit=25, scale_num=5"

(* The relative deviation is taken against the float model, the
   reference the twin is meant to reproduce. *)
let deviations fm xm =
  List.concat_map
    (fun (m, fv) ->
      let xv = Option.value (List.assoc_opt m xm) ~default:Float.nan in
      [
        (m ^ ".float", fv);
        (m ^ ".fixed", xv);
        ( m ^ ".rel_dev",
          abs_float (fv -. xv) /. Stdlib.max (abs_float fv) 1e-9 );
      ])
    fm

let paired ~float_algo ~fixed_algo measure =
  deviations (measure float_algo) (measure fixed_algo)

(* --- lockstep driver --------------------------------------------------- *)

(* Drive two CC backends through an identical, fully prescribed ACK/loss
   schedule on two asymmetric synthetic subflows — no simulator, no
   randomness. Each step delivers one ACK per subflow (or a prescribed
   loss), applies the backend's increase/decrease to its own view
   array, and tracks the largest relative cwnd divergence between the
   trajectories. This pins the per-ACK update rules against each other
   far more tightly than a goodput comparison can. *)

type lockstep_result = {
  max_rel_divergence : float;
  final_float : float array;  (** per-subflow cwnd after the run *)
  final_fixed : float array;
}

let lockstep_subflows = [| (10., 0.05); (6., 0.15) |]

let lockstep ~float_algo ~fixed_algo =
  let mk algo =
    ( Registry.create algo,
      Array.map
        (fun (cwnd, rtt) -> { Cc.cwnd; rtt })
        lockstep_subflows )
  in
  let ccf, vf = mk float_algo in
  let cci, vi = mk fixed_algo in
  let nsub = Array.length lockstep_subflows in
  let step_one (cc : Cc.t) v idx loss =
    if loss then begin
      cc.Cc.on_loss ~idx;
      let d = cc.Cc.loss_decrease ~views:v ~idx in
      v.(idx).Cc.cwnd <- Stdlib.max 1. (v.(idx).Cc.cwnd -. d)
    end
    else begin
      cc.Cc.on_ack ~idx ~acked:1;
      let inc = cc.Cc.increase ~views:v ~idx in
      v.(idx).Cc.cwnd <- Stdlib.max 1. (v.(idx).Cc.cwnd +. inc)
    end
  in
  let max_rel = ref 0. in
  for t = 1 to 4000 do
    for idx = 0 to nsub - 1 do
      (* losses at fixed co-prime periods: identical on both backends,
         dependent on neither backend's state *)
      let loss = t mod (311 + (172 * idx)) = 0 in
      step_one ccf vf idx loss;
      step_one cci vi idx loss
    done;
    for idx = 0 to nsub - 1 do
      (* the twin keeps an integer cwnd, so the trajectories may always
         sit one packet apart; the divergence metric allows that
         quantum and bounds the drift beyond it *)
      let d = abs_float (vf.(idx).Cc.cwnd -. vi.(idx).Cc.cwnd) in
      let rel =
        Stdlib.max 0. (d -. 1.)
        /. Stdlib.max (Stdlib.max vf.(idx).Cc.cwnd vi.(idx).Cc.cwnd) 1.
      in
      if rel > !max_rel then max_rel := rel
    done
  done;
  {
    max_rel_divergence = !max_rel;
    final_float = Array.map (fun v -> v.Cc.cwnd) vf;
    final_fixed = Array.map (fun v -> v.Cc.cwnd) vi;
  }

let lockstep_metrics ~float_algo ~fixed_algo =
  let r = lockstep ~float_algo ~fixed_algo in
  let final a = [ ("final_cwnd_sf0", a.(0)); ("final_cwnd_sf1", a.(1)) ] in
  ("max_rel_divergence", r.max_rel_divergence)
  :: deviations (final r.final_float) (final r.final_fixed)
