type params = { n1 : int; n2 : int; c1 : float; c2 : float; rtt : float }

type regime = Balanced | Ap1_better

type lia_point = {
  regime : regime;
  z : float;
  p1 : float;
  p2 : float;
  x1 : float;
  x2 : float;
  y : float;
  norm_multipath : float;
  norm_single : float;
}

let check { n1; n2; c1; c2; rtt } =
  if n1 <= 0 || n2 <= 0 then invalid_arg "Scenario_c: user counts must be > 0";
  if c1 <= 0. || c2 <= 0. then invalid_arg "Scenario_c: capacities must be > 0";
  if rtt <= 0. then invalid_arg "Scenario_c: rtt must be > 0"

let ratio_n { n1; n2; _ } = float_of_int n1 /. float_of_int n2

let threshold params =
  check params;
  1. /. (2. +. ratio_n params)

let fair_share ({ n1; n2; c1; c2; _ } as params) =
  check params;
  ((float_of_int n1 *. c1) +. (float_of_int n2 *. c2))
  /. float_of_int (n1 + n2)

let lia ({ c1; c2; rtt; _ } as params) =
  check params;
  let rn = ratio_n params in
  if c1 /. c2 < 1. /. (2. +. rn) then begin
    (* Balanced regime: AP1 is the worse path, LIA equalizes totals. *)
    let total = fair_share params in
    let p2 = 2. /. ((rtt *. total) ** 2.) in
    (* x1 = C1 saturates AP1; the remainder flows on AP2. *)
    let x1 = c1 in
    let x2 = total -. c1 in
    (* p1/p2 = x2/x1 from the window-proportionality of Eq. 2. *)
    let p1 = p2 *. x2 /. x1 in
    {
      regime = Balanced;
      z = sqrt (p1 /. p2);
      p1;
      p2;
      x1;
      x2;
      y = total;
      norm_multipath = total /. c1;
      norm_single = total /. c2;
    }
  end
  else begin
    (* AP1 is the better path: z = sqrt(p1/p2) solves the cubic of §III-C. *)
    let z =
      Roots.positive_poly_root [| -.(c2 /. c1); 1.; rn; 1. |]
    in
    let p1 = 2. /. ((rtt *. c1 *. (1. +. (z *. z))) ** 2.) in
    let p2 = p1 /. (z *. z) in
    let x1 = c1 in
    let x2 = c1 *. z *. z in
    let y = sqrt (2. /. p2) /. rtt in
    {
      regime = Ap1_better;
      z;
      p1;
      p2;
      x1;
      x2;
      y;
      norm_multipath = 1. +. (z *. z);
      norm_single = y /. c2;
    }
  end

type allocation = {
  multipath_total : float;
  single_total : float;
  norm_multipath : float;
  norm_single : float;
}

let optimum_with_probing ({ c1; c2; rtt; _ } as params) =
  check params;
  let probe = Units.probe_rate ~rtt in
  let fair = fair_share params in
  let multipath = Stdlib.max (c1 +. probe) fair in
  let single = Stdlib.min (c2 -. (ratio_n params *. probe)) fair in
  {
    multipath_total = multipath;
    single_total = single;
    norm_multipath = multipath /. c1;
    norm_single = single /. c2;
  }
