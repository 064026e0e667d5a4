(* Pre-allocated binary trace rings: the storage layer under Trace's
   armed-emission path.

   A ring is two flat pre-allocated lanes — an [int array] at stride 16
   and a [floatarray] at stride 4 — indexed by slot. Claiming a slot
   and filling its words is pure unboxed stores, so writing a record
   allocates nothing on the minor heap; Trace owns the record layout
   (which word means what per tag) and this module only owns the
   circular-buffer mechanics.

   Rings are strictly single-writer: one domain writes, and readers
   (the offline decoder) only run after the writing domains have been
   joined, so no field needs atomic access. *)

exception Full

type t = {
  shard : int;
  cap : int;
  ints : int array; (* stride 16 *)
  fl : floatarray; (* stride 4 *)
  horizon : floatarray;
      (* one slot: the last [Sim.run_until] horizon the writing domain
         reached, [infinity] until one is noted (a float field in this
         mixed record would box on every store) *)
  mutable wpos : int; (* next slot to write *)
  mutable count : int; (* retained records, <= cap *)
  mutable dropped : int; (* records overwritten *)
}

let int_stride = 16
let float_stride = 4

let create ~shard ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  {
    shard;
    cap = capacity;
    ints = Array.make (capacity * int_stride) 0;
    fl = Float.Array.make (capacity * float_stride) 0.;
    horizon = Float.Array.make 1 infinity;
    wpos = 0;
    count = 0;
    dropped = 0;
  }

(* The null ring parks unbound domains: with capacity 0 it has no slot
   to overwrite, so an armed emission on a domain that never called
   [Trace.bind_ring] raises [Full] instead of silently corrupting a
   shared buffer. Built directly (create rejects capacity 0) and shared
   read-only. *)
let null =
  (* lint: allow R2 -- claim on a capacity-0 ring raises before any store *)
  {
    shard = -1;
    cap = 0;
    ints = [||];
    fl = Float.Array.create 0;
    horizon = Float.Array.create 0;
    wpos = 0;
    count = 0;
    dropped = 0;
  }

let shard r = r.shard
let capacity r = r.cap
let length r = r.count
let dropped r = r.dropped

(* Total records ever written; the logical sequence number of the
   oldest retained record is [written r - length r = dropped r]. *)
let written r = r.dropped + r.count

(* The null ring has no horizon slot: a domain with no ring has no
   records to filter, so noting a horizon there is a no-op. *)
let set_horizon r h = if r.cap > 0 then Float.Array.unsafe_set r.horizon 0 h
let horizon r =
  if r.cap > 0 then Float.Array.unsafe_get r.horizon 0 else infinity

(* Claim the next slot, returning its index. A full ring overwrites
   its oldest retained record; the null ring raises [Full] (a constant
   exception: raising allocates nothing). *)
let[@inline] claim r =
  if r.count = r.cap then begin
    if r.cap = 0 then raise Full;
    let s = r.wpos in
    let w = s + 1 in
    r.wpos <- (if w = r.cap then 0 else w);
    r.dropped <- r.dropped + 1;
    s
  end
  else begin
    let s = r.wpos in
    let w = s + 1 in
    r.wpos <- (if w = r.cap then 0 else w);
    r.count <- r.count + 1;
    s
  end

let[@inline] set_i r s k v = Array.unsafe_set r.ints ((s lsl 4) + k) v
let[@inline] get_i r s k = Array.unsafe_get r.ints ((s lsl 4) + k)
let[@inline] set_f r s k v = Float.Array.unsafe_set r.fl ((s lsl 2) + k) v
let[@inline] get_f r s k = Float.Array.unsafe_get r.fl ((s lsl 2) + k)

(* Slot index of the [i]-th oldest retained record, [0 <= i < count]. *)
let slot_of_index r i =
  if i < 0 || i >= r.count then invalid_arg "Ring.slot_of_index";
  let start = r.wpos - r.count in
  let start = if start < 0 then start + r.cap else start in
  let s = start + i in
  if s >= r.cap then s - r.cap else s

let reset r =
  set_horizon r infinity;
  r.wpos <- 0;
  r.count <- 0;
  r.dropped <- 0
