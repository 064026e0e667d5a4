(* The SplitMix64 state lives in an 8-byte [Bytes], read and written
   through the unboxed 64-bit primitives. A [mutable int64] record field
   would point at a boxed [Int64]: every draw would allocate 3 words and
   take a write barrier. [mix] and [int64] are [@inline] so the state
   stays unboxed through a draw; an out-of-line function returning an
   [int64] boxes its result. Byte order is irrelevant: the state is only
   ever read back whole. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (get_state t 0) golden in
  set_state t 0 s;
  mix s

let split t = of_state (mix (int64 t))

let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (int64 t) 11) /. 9007199254740992.

let uniform t bound = float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection-free modulo is fine here: bounds are tiny vs 2^63. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1)
                  (Int64.of_int bound))

let exponential t ~mean =
  let u = float t in
  (* Guard against log 0. *)
  -.mean *. log (1. -. (u *. 0.9999999999))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let derangement_permutation t n =
  if n < 2 then invalid_arg "Rng.derangement_permutation: n < 2";
  let rec try_once () =
    let p = permutation t n in
    let ok = ref true in
    Array.iteri (fun i v -> if i = v then ok := false) p;
    if !ok then p else try_once ()
  in
  try_once ()
