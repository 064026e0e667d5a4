(* Stall-robust statistics over many short timed samples.

   Host stalls (hypervisor steal, a co-tenant's burst) only ever make a
   sample slower, and they land in a minority of short samples; an
   order statistic of the samples ignores them where a sum or a mean
   absorbs them. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks, as numpy's default and
   Python's statistics.quantiles(method="inclusive"). *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else if n = 1 then s.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else
      let frac = pos -. float_of_int i in
      s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* Median of [values] where each sample counts [weights.(i)] times: the
   smallest value whose cumulative weight reaches half the total. *)
let weighted_median values weights =
  let n = Array.length values in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare values.(i) values.(j)) idx;
  let total = Array.fold_left ( +. ) 0. weights in
  let rec go k acc =
    if k >= n then nan
    else
      let i = idx.(k) in
      let acc = acc +. weights.(i) in
      if acc >= total /. 2. then values.(i) else go (k + 1) acc
  in
  if total <= 0. then nan else go 0 0.
