module Invariant = Repro_stats.Invariant

type algorithm = Uncoupled | Lia | Olia | Olia_probing

type options = {
  damping : float;
  max_iter : int;
  tol : float;
  min_loss : float;
}

let default_options =
  { damping = 0.05; max_iter = 50_000; tol = 1e-9; min_loss = 1e-10 }

let target_rates algo (user : Network_model.user) losses =
  let paths =
    Array.to_list
      (Array.mapi
         (fun r (route : Network_model.route) ->
           { Tcp_model.loss = losses.(r); rtt = route.rtt })
         user.routes)
  in
  let rates =
    match algo with
    | Uncoupled -> List.map Tcp_model.tcp_rate paths
    | Lia -> Tcp_model.lia_rates paths
    | Olia -> Tcp_model.olia_rates paths
    | Olia_probing -> Tcp_model.olia_rates_with_probing paths
  in
  Array.of_list rates

(* Worst relative gap between [x] and the rates the algorithm would
   pick at the losses [x] itself induces — zero exactly at a fixed
   point. Reported in the same units as the iteration's convergence
   test so the bound below follows from [max_change < tol]. *)
let residual ?(min_loss = default_options.min_loss) net algo x =
  let loads = Network_model.link_loads net x in
  let link_p =
    Array.mapi
      (fun i l -> Network_model.link_loss l loads.(i))
      net.Network_model.links
  in
  let route_p = Network_model.route_losses net link_p in
  let worst = ref 0. in
  Array.iteri
    (fun u (user : Network_model.user) ->
      let losses = Array.map (fun p -> Stdlib.max p min_loss) route_p.(u) in
      let target = target_rates algo user losses in
      Array.iteri
        (fun r xt ->
          let scale = Stdlib.max (abs_float x.(u).(r)) 1e-9 in
          let gap = abs_float (xt -. x.(u).(r)) /. scale in
          if gap > !worst then worst := gap)
        target)
    net.Network_model.users;
  !worst

(* A damped step that moved less than [tol·scale] means the gap to the
   target was below [tol/damping·scale]; allow 50× slack for the
   target map's own sensitivity between the last two iterates. *)
let residual_bound options = 50. *. options.tol /. options.damping

let check_fixed_point ?(options = default_options) net algo x =
  if Invariant.enabled () then begin
    let r = residual ~min_loss:options.min_loss net algo x in
    Invariant.require (Float.is_finite r)
      "Equilibrium: non-finite residual at claimed fixed point";
    Invariant.require
      (r <= residual_bound options)
      (Printf.sprintf
         "Equilibrium: residual %.3g exceeds solver bound %.3g" r
         (residual_bound options))
  end

let solve ?(options = default_options) net algo =
  Network_model.validate net;
  let { damping; max_iter; tol; min_loss } = options in
  let x =
    Array.map
      (fun (u : Network_model.user) ->
        (* Start from a modest rate on every route. *)
        Array.map
          (fun (r : Network_model.route) ->
            net.Network_model.links.(r.links.(0)).capacity
            /. float_of_int (Network_model.route_count net))
          u.routes)
      net.Network_model.users
  in
  let rec iterate k =
    if k >= max_iter then failwith "Equilibrium.solve: no convergence";
    let loads = Network_model.link_loads net x in
    let link_p =
      Array.mapi (fun i l -> Network_model.link_loss l loads.(i)) net.links
    in
    let route_p = Network_model.route_losses net link_p in
    let max_change = ref 0. in
    Array.iteri
      (fun u (user : Network_model.user) ->
        let losses = Array.map (fun p -> Stdlib.max p min_loss) route_p.(u) in
        let target = target_rates algo user losses in
        Array.iteri
          (fun r xt ->
            let old = x.(u).(r) in
            let next = ((1. -. damping) *. old) +. (damping *. xt) in
            x.(u).(r) <- next;
            let scale = Stdlib.max (abs_float old) 1e-9 in
            let change = abs_float (next -. old) /. scale in
            if change > !max_change then max_change := change)
          target)
      net.users;
    if !max_change < tol then begin
      check_fixed_point ~options net algo x;
      x
    end
    else iterate (k + 1)
  in
  iterate 0

let user_utilities net x =
  Array.mapi
    (fun u (user : Network_model.user) ->
      let acc = ref 0. in
      Array.iteri
        (fun r (route : Network_model.route) ->
          acc := !acc +. (x.(u).(r) /. (route.rtt *. route.rtt)))
        user.routes;
      !acc)
    net.Network_model.users

(* SplitMix64-style scalar generator for reproducible perturbations. *)
let next_float state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

let pareto_witness ?(trials = 2000) ?(step = 0.05) ~seed net x =
  let state = ref (Int64.of_int seed) in
  let base_util = user_utilities net x in
  let base_cost = Network_model.congestion_cost net x in
  let nu = Array.length net.Network_model.users in
  let tol = 1e-9 in
  let perturb () =
    Array.mapi
      (fun u xu ->
        Array.mapi
          (fun r xr ->
            let scale =
              Stdlib.max xr
                (0.1
                *. net.Network_model.links.((net.users.(u).routes.(r)).links.(0))
                     .capacity)
            in
            let delta = (next_float state -. 0.5) *. 2. *. step *. scale in
            Stdlib.max 0. (xr +. delta))
          xu)
      x
  in
  let dominates x' =
    let util' = user_utilities net x' in
    let cost' = Network_model.congestion_cost net x' in
    if cost' > base_cost +. tol then false
    else
      let strictly_better = ref false in
      let never_worse = ref true in
      for u = 0 to nu - 1 do
        if util'.(u) < base_util.(u) -. tol then never_worse := false;
        if util'.(u) > base_util.(u) +. tol then strictly_better := true
      done;
      !never_worse && !strictly_better
  in
  let rec search k =
    if k = 0 then None
    else
      let x' = perturb () in
      if dominates x' then Some x' else search (k - 1)
  in
  search trials
