type params = { n1 : int; n2 : int; c1 : float; c2 : float; rtt : float }

type lia_point = {
  z : float;
  p1 : float;
  p2 : float;
  x1 : float;
  x2 : float;
  y : float;
  norm_type1 : float;
  norm_type2 : float;
}

let check { n1; n2; c1; c2; rtt } =
  if n1 <= 0 || n2 <= 0 then invalid_arg "Scenario_a: user counts must be > 0";
  if c1 <= 0. || c2 <= 0. then invalid_arg "Scenario_a: capacities must be > 0";
  if rtt <= 0. then invalid_arg "Scenario_a: rtt must be > 0"

let lia ({ n1; n2; c1; c2; rtt } as params) =
  check params;
  let ratio_n = float_of_int n1 /. float_of_int n2 in
  let target = c2 /. c1 in
  (* Eq. (10): z + z²/(1+2z²)·(N1/N2) = C2/C1, LHS strictly increasing. *)
  let f z = z +. (z *. z /. (1. +. (2. *. z *. z)) *. ratio_n) -. target in
  let z = Roots.find_increasing_root ~f () in
  let p1 = 2. /. ((rtt *. c1) ** 2.) in
  let p2 = p1 /. (z *. z) in
  (* LIA splits: x1+x2 = C1 and x2 = C1/(2 + p2/p1). *)
  let x2 = c1 /. (2. +. (p2 /. p1)) in
  let x1 = c1 -. x2 in
  let y = sqrt (2. /. p2) /. rtt in
  {
    z;
    p1;
    p2;
    x1;
    x2;
    y;
    norm_type1 = 1.;
    norm_type2 = y /. c2;
  }

type allocation = {
  type1_total : float;
  type2_total : float;
  norm1 : float;
  norm2 : float;
}

let optimum_with_probing ({ n1; n2; c1; c2; rtt } as params) =
  check params;
  let probe = Units.probe_rate ~rtt in
  let ratio_n = float_of_int n1 /. float_of_int n2 in
  let y = c2 -. (ratio_n *. probe) in
  {
    type1_total = c1;
    type2_total = y;
    norm1 = 1.;
    norm2 = y /. c2;
  }
