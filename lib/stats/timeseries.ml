type t = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create () = { times = Array.make 64 0.; values = Array.make 64 0.; len = 0 }

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. and values = Array.make (2 * cap) 0. in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.values <- values

let add t ~time v =
  if t.len > 0 && time < t.times.(t.len - 1) then
    invalid_arg "Timeseries.add: non-monotonic time";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- v;
  t.len <- t.len + 1

let length t = t.len

let of_arrays ~times values =
  let t = create () in
  Array.iter2 (fun time v -> add t ~time v) times values;
  t

let to_array t =
  Array.init t.len (fun i -> (t.times.(i), t.values.(i)))

let last t =
  if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))

(* Index of the last sample with time <= x, or -1. *)
let find_le t x =
  let rec bs lo hi =
    (* invariant: times.(lo) <= x < times.(hi), conceptually with
       times.(-1) = -inf and times.(len) = +inf *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.times.(mid) <= x then bs mid hi else bs lo mid
  in
  if t.len = 0 || t.times.(0) > x then -1 else bs 0 t.len

let mean_over t ~from ~until =
  if until <= from then nan
  else
    let i0 = find_le t from in
    if i0 < 0 then nan
    else begin
      let acc = ref 0. in
      let tprev = ref from and vprev = ref t.values.(i0) in
      let i = ref (i0 + 1) in
      while !i < t.len && t.times.(!i) < until do
        acc := !acc +. (!vprev *. (t.times.(!i) -. !tprev));
        tprev := t.times.(!i);
        vprev := t.values.(!i);
        incr i
      done;
      acc := !acc +. (!vprev *. (until -. !tprev));
      !acc /. (until -. from)
    end

let resample t ~dt ~from ~until =
  let n = int_of_float (ceil ((until -. from) /. dt)) in
  Array.init (Stdlib.max n 0) (fun k ->
      let x = from +. (float_of_int k *. dt) in
      let i = find_le t x in
      if i < 0 then nan else t.values.(i))

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.times.(i) t.values.(i)
  done;
  !acc
