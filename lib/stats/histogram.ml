(* Linear histograms cover the paper's completion-time PDFs; the log
   variant serves latency distributions, where queue delays and RTTs
   span four decades and equal-width bins would crush the short end
   into one bucket. Both share the counts array; only the bin-edge
   geometry differs. *)

type spacing = Linear | Log

type t = {
  lo : float;
  hi : float;
  spacing : spacing;
  log_lo : float;  (* log lo, cached; 0. for Linear *)
  log_ratio : float;  (* log (hi/lo), cached; 0. for Linear *)
  counts : int array;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  {
    lo;
    hi;
    spacing = Linear;
    log_lo = 0.;
    log_ratio = 0.;
    counts = Array.make bins 0;
    total = 0;
  }

let create_log ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create_log: bins <= 0";
  if lo <= 0. then invalid_arg "Histogram.create_log: lo <= 0";
  if hi <= lo then invalid_arg "Histogram.create_log: hi <= lo";
  {
    lo;
    hi;
    spacing = Log;
    log_lo = log lo;
    log_ratio = log (hi /. lo);
    counts = Array.make bins 0;
    total = 0;
  }

let bins t = Array.length t.counts
let bin_width t = (t.hi -. t.lo) /. float_of_int (bins t)

(* Edge i of n bins: linear lerp for Linear, geometric for Log. *)
let bin_edge t i =
  match t.spacing with
  | Linear -> t.lo +. (float_of_int i *. bin_width t)
  | Log ->
    exp (t.log_lo +. (t.log_ratio *. float_of_int i /. float_of_int (bins t)))

let bin_index t x =
  let i =
    match t.spacing with
    | Linear -> int_of_float ((x -. t.lo) /. bin_width t)
    | Log ->
      if x <= t.lo then 0
      else
        int_of_float
          (float_of_int (bins t) *. (log x -. t.log_lo) /. t.log_ratio)
  in
  if i < 0 then 0 else if i >= bins t then bins t - 1 else i

let add t x =
  let i = bin_index t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total

let bin_center t i =
  match t.spacing with
  | Linear -> t.lo +. ((float_of_int i +. 0.5) *. bin_width t)
  | Log -> sqrt (bin_edge t i *. bin_edge t (i + 1))

let bin_count t i = t.counts.(i)

let pdf t =
  let norm = if t.total = 0 then 0. else 1. /. float_of_int t.total in
  Array.mapi
    (fun i c ->
      let w = bin_edge t (i + 1) -. bin_edge t i in
      (bin_center t i, float_of_int c *. norm /. w))
    t.counts

let cdf t =
  let acc = ref 0 in
  let norm = if t.total = 0 then 0. else 1. /. float_of_int t.total in
  Array.mapi
    (fun i c ->
      acc := !acc + c;
      (bin_edge t (i + 1), float_of_int !acc *. norm))
    t.counts

(* Fraction of observations at or below [x], with linear interpolation
   inside the containing bin — the inverse view of [quantile]. *)
let cdf_at t x =
  if t.total = 0 then nan
  else begin
    let i = bin_index t x in
    let below = ref 0 in
    for j = 0 to i - 1 do
      below := !below + t.counts.(j)
    done;
    let lo = bin_edge t i and hi = bin_edge t (i + 1) in
    let frac =
      if x >= hi then 1. else if x <= lo then 0. else (x -. lo) /. (hi -. lo)
    in
    (float_of_int !below +. (frac *. float_of_int t.counts.(i)))
    /. float_of_int t.total
  end

let quantile t q =
  if t.total = 0 then nan
  else
    let target = q *. float_of_int t.total in
    let rec loop i acc =
      if i >= bins t then t.hi
      else
        let acc' = acc +. float_of_int t.counts.(i) in
        if acc' >= target then
          let inside =
            if t.counts.(i) = 0 then 0.
            else (target -. acc) /. float_of_int t.counts.(i)
          in
          let lo = bin_edge t i and hi = bin_edge t (i + 1) in
          lo +. (inside *. (hi -. lo))
        else loop (i + 1) acc'
    in
    loop 0 0.

let percentile t p = quantile t (p /. 100.)
let percentiles t ps = Array.map (percentile t) ps
