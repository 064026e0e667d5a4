(* Binary trace rings in chunked storage: the storage layer under
   Trace's armed-emission path.

   A ring's records live in chunks of [chunk_len] records behind a
   chunk table. A chunk is two flat lanes, an [int array] at stride 13
   and a [floatarray] at stride 4, indexed by slot within the chunk.
   Creating a ring allocates only the table; a chunk is allocated the
   first time the write cursor reaches it (on the ring's first lap), so
   a ring's memory follows the records a run writes and its capacity
   only caps it. A full chunk is far above [Max_young_wosize], so it
   goes straight to the major heap: claiming a slot and filling its
   words is pure unboxed stores through the current chunk, and writing
   a record allocates nothing on the minor heap. Trace owns the record
   layout (which word means what per tag) and this module only owns
   the circular-buffer mechanics.

   Rings are strictly single-writer: one domain writes, and readers
   (the offline decoder) only run after the writing domains have been
   joined, so no field needs atomic access. *)

exception Full

let chunk_bits = 12
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1
let int_stride = 13
let float_stride = 4

type t = {
  shard : int;
  cap : int;
  ints : int array array; (* chunk table; [[||]] until first reached *)
  fl : floatarray array;
  horizon : floatarray;
      (* one slot: the last [Sim.run_until] horizon the writing domain
         reached, [infinity] until one is noted (a float field in this
         mixed record would box on every store) *)
  mutable cur_i : int array; (* the chunk of the last claimed slot *)
  mutable cur_f : floatarray;
  mutable wpos : int; (* next slot to write; [cap] after a lap ends *)
  mutable limit : int; (* end of the current chunk: the fast path's bound *)
  mutable laps : int; (* completed passes through the slots *)
}

let create ~shard ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  let chunks = (capacity + chunk_mask) lsr chunk_bits in
  let no_fl = Float.Array.create 0 in
  {
    shard;
    cap = capacity;
    ints = Array.make chunks [||];
    fl = Array.make chunks no_fl;
    horizon = Float.Array.make 1 infinity;
    cur_i = [||];
    cur_f = no_fl;
    wpos = 0;
    limit = 0;
    laps = 0;
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
    fl = [||];
    horizon = Float.Array.create 0;
    cur_i = [||];
    cur_f = Float.Array.create 0;
    wpos = 0;
    limit = 0;
    laps = 0;
  }

let shard r = r.shard
let capacity r = r.cap
let length r = if r.laps = 0 then r.wpos else r.cap

(* Total records ever written; the logical sequence number of the
   oldest retained record is [written r - length r = dropped r]. *)
let written r = (r.laps * r.cap) + r.wpos
let dropped r = written r - length r

(* The null ring has no horizon slot: a domain with no ring has no
   records to filter, so noting a horizon there is a no-op. *)
let set_horizon r h = if r.cap > 0 then Float.Array.unsafe_set r.horizon 0 h
let horizon r =
  if r.cap > 0 then Float.Array.unsafe_get r.horizon 0 else infinity

(* The claim that crosses into a chunk: the write cursor reached the
   end of the current chunk (or of the ring, where it wraps to slot 0),
   or [create]/[reset] left no current chunk. Makes the cursor's chunk
   current, allocating it on the first lap, and claims its first slot.
   The null ring raises [Full] (a constant exception: raising allocates
   nothing). *)
let[@inline never] claim_chunk r =
  if r.cap = 0 then raise Full;
  let s =
    if r.wpos = r.cap then begin
      r.laps <- r.laps + 1;
      0
    end
    else r.wpos
  in
  let c = s lsr chunk_bits in
  if Array.length (Array.unsafe_get r.ints c) = 0 then begin
    let n = Int.min chunk_len (r.cap - s) in
    (* lint: allow R9 -- once per chunk of 4096 records, on a ring's first lap; a full chunk is allocated in the major heap *)
    Array.unsafe_set r.ints c (Array.make (n * int_stride) 0);
    (* lint: allow R9 -- the float lane of the same first-lap chunk *)
    Array.unsafe_set r.fl c (Float.Array.make (n * float_stride) 0.)
  end;
  r.cur_i <- Array.unsafe_get r.ints c;
  r.cur_f <- Array.unsafe_get r.fl c;
  r.limit <- Int.min (s + chunk_len) r.cap;
  r.wpos <- s + 1;
  s

(* Claim the next slot, returning its index. A full ring overwrites
   its oldest retained record. The fast path is one bound test: the
   slot lies in the current chunk. *)
let[@inline] claim r =
  let s = r.wpos in
  if s < r.limit then begin
    r.wpos <- s + 1;
    s
  end
  else claim_chunk r

(* Stores write the current chunk, so they take only the slot the last
   claim returned; loads go through the chunk table. *)
let[@inline] set_i r s k v =
  Array.unsafe_set r.cur_i (((s land chunk_mask) * int_stride) + k) v

let[@inline] get_i r s k =
  Array.unsafe_get
    (Array.unsafe_get r.ints (s lsr chunk_bits))
    (((s land chunk_mask) * int_stride) + k)

let[@inline] set_f r s k v =
  Float.Array.unsafe_set r.cur_f (((s land chunk_mask) * float_stride) + k) v

let[@inline] get_f r s k =
  Float.Array.unsafe_get
    (Array.unsafe_get r.fl (s lsr chunk_bits))
    (((s land chunk_mask) * float_stride) + k)

(* Slot index of the [i]-th oldest retained record, [0 <= i < length]. *)
let slot_of_index r i =
  if i < 0 || i >= length r then invalid_arg "Ring.slot_of_index";
  let start = if r.laps = 0 || r.wpos = r.cap then 0 else r.wpos in
  let s = start + i in
  if s >= r.cap then s - r.cap else s

(* The next claim re-enters chunk 0 through [claim_chunk]. *)
let reset r =
  set_horizon r infinity;
  r.wpos <- 0;
  r.limit <- 0;
  r.laps <- 0
