module Invariant = Repro_stats.Invariant

(* Convergence tolerance of every solver here: the bisection interval
   width, and Newton's |f x|. *)
let tol = 1e-12

let bisect ~f lo hi =
  let flo = f lo and fhi = f hi in
  (* Armed invariant: a bisection answer is a finite point of the
     original bracket whose function value is finite — catches NaN
     escapes from the fixed-point polynomials before they propagate
     into rate allocations. *)
  let check root =
    if Invariant.enabled () then begin
      Invariant.require (Float.is_finite root) "Roots.bisect: non-finite root";
      Invariant.require
        (root >= lo && root <= hi)
        "Roots.bisect: root escaped the bracket";
      Invariant.require
        (Float.is_finite (f root))
        "Roots.bisect: non-finite f at root"
    end;
    root
  in
  if Float.equal flo 0. then check lo
  else if Float.equal fhi 0. then check hi
  else if flo *. fhi > 0. then
    invalid_arg "Roots.bisect: no sign change on the interval"
  else
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo < tol || iter = 0 then check mid
      else
        let fmid = f mid in
        if Float.equal fmid 0. then check mid
        else if flo *. fmid < 0. then loop lo mid flo (iter - 1)
        else loop mid hi fmid (iter - 1)
    in
    loop lo hi flo 200

let find_increasing_root ~f () =
  (* Shrink towards 0 until f < 0, grow until f > 0. *)
  let rec find_lo x n =
    if n = 0 then failwith "Roots.find_increasing_root: no negative value"
    else if f x < 0. then x
    else find_lo (x /. 4.) (n - 1)
  in
  let rec find_hi x n =
    if n = 0 then failwith "Roots.find_increasing_root: no positive value"
    else if f x > 0. then x
    else find_hi (x *. 4.) (n - 1)
  in
  let lo = find_lo 1. 200 in
  let hi = find_hi 1. 200 in
  bisect ~f lo hi

let newton ~f ~df x0 =
  let rec loop x iter =
    if iter = 0 then failwith "Roots.newton: no convergence"
    else
      let fx = f x in
      if abs_float fx < tol then begin
        if Invariant.enabled () then
          Invariant.require (Float.is_finite x) "Roots.newton: non-finite root";
        x
      end
      else
        let d = df x in
        if Float.equal d 0. then failwith "Roots.newton: zero derivative"
        else loop (x -. (fx /. d)) (iter - 1)
  in
  loop x0 100

let poly_eval coeffs x =
  let acc = ref 0. in
  for i = Array.length coeffs - 1 downto 0 do
    acc := (!acc *. x) +. coeffs.(i)
  done;
  !acc

let poly_derivative coeffs =
  let n = Array.length coeffs in
  if n <= 1 then [| 0. |]
  else Array.init (n - 1) (fun i -> float_of_int (i + 1) *. coeffs.(i + 1))

let positive_poly_root coeffs =
  let f = poly_eval coeffs in
  if f 0. > 0. then failwith "Roots.positive_poly_root: positive at 0";
  let rec find_hi x n =
    if n = 0 then failwith "Roots.positive_poly_root: never positive"
    else if f x > 0. then x
    else find_hi (x *. 2.) (n - 1)
  in
  let hi = find_hi 1. 200 in
  bisect ~f 0. hi
