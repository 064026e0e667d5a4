(* One bit per sequence number, at [seq land mask] of a power-of-two
   ring. Every member lies in [\[base, base + mask]], so no two members
   share a bit; [advance] clears what falls below a new base, and [add]
   doubles the ring when a member lands past its top. The bytes hold
   no pointers, so flipping a bit takes no write barrier. *)

type t = {
  mutable bits : Bytes.t;
  mutable mask : int;  (* capacity in bits - 1; capacity a power of two *)
  mutable base : int;
  mutable count : int;
}

let create () = { bits = Bytes.make 8 '\000'; mask = 63; base = 0; count = 0 }

let[@inline] held bits mask seq =
  let i = seq land mask in
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] flip bits mask seq =
  let i = seq land mask in
  let j = i lsr 3 in
  Bytes.unsafe_set bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits j) lxor (1 lsl (i land 7))))

(* [mem] and [advance] run on every in-order segment and ACK, where the
   set is empty: inlined, that costs a load and a compare. *)
let[@inline] mem t seq =
  t.count > 0 && seq >= t.base && seq - t.base <= t.mask
  && held t.bits t.mask seq

let rec fit cap span = if span < cap then cap else fit (2 * cap) span

(* Re-insert every member into a ring wide enough for [seq]. *)
let grow t seq =
  let bits = t.bits and mask = t.mask in
  let cap = fit (2 * (mask + 1)) (seq - t.base) in
  (* lint: allow R9 -- amortized ring growth: the ring doubles past the widest span of members seen, so at steady state it never runs *)
  t.bits <- Bytes.make (cap lsr 3) '\000';
  t.mask <- cap - 1;
  for s = t.base to t.base + mask do
    if held bits mask s then flip t.bits t.mask s
  done

let add t seq =
  if seq < t.base then invalid_arg "Seqset.add: sequence below the base";
  if seq - t.base > t.mask then grow t seq;
  if not (held t.bits t.mask seq) then begin
    flip t.bits t.mask seq;
    t.count <- t.count + 1
  end

let rec clear t seq stop =
  if seq < stop && t.count > 0 then begin
    if held t.bits t.mask seq then begin
      flip t.bits t.mask seq;
      t.count <- t.count - 1
    end;
    clear t (seq + 1) stop
  end

let[@inline] advance t base =
  if base < t.base then invalid_arg "Seqset.advance: base moved back";
  if t.count > 0 then clear t t.base (Int.min base (t.base + t.mask + 1));
  t.base <- base

let cardinal t = t.count
