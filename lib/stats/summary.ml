type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable minv : float;
  mutable maxv : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; minv = nan; maxv = nan }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.minv <- x;
    t.maxv <- x
  end
  else begin
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x
  end

let add_seq t seq = Seq.iter (add t) seq
let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let stdev t = sqrt (variance t)
let min t = t.minv
let max t = t.maxv
let sum t = t.mean *. float_of_int t.n

(* Two-sided 97.5% Student t quantiles for small degrees of freedom; beyond
   the table we use the normal quantile. *)
let t_quantile_975 df =
  let table =
    [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262;
       2.228; 2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101;
       2.093; 2.086; 2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052;
       2.048; 2.045; 2.042 |]
  in
  if df <= 0 then nan
  else if df <= Array.length table then table.(df - 1)
  else 1.96

let ci95_halfwidth t =
  if t.n < 2 then 0.
  else
    let q = t_quantile_975 (t.n - 1) in
    q *. stdev t /. sqrt (float_of_int t.n)

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. fb /. float_of_int n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
    {
      n;
      mean;
      m2;
      minv = Stdlib.min a.minv b.minv;
      maxv = Stdlib.max a.maxv b.maxv;
    }

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let jain_index xs =
  match xs with
  | [] -> nan
  | _ ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0. xs in
    let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if s2 = 0. then 1. else s *. s /. (n *. s2)
