(** Binary trace rings in chunked storage: the storage layer under
    {!Trace}'s armed-emission path.

    A ring holds fixed-width records of 13 int words (tag,
    dispatch-context words, payload ints) and 4 float words (time,
    scheduling key, payload floats), 136 bytes per record. They live in
    chunks of 4096 records behind a chunk table: {!create} allocates
    only the table, and {!claim} allocates a chunk (in the major heap)
    the first time the write cursor reaches it, on the ring's first
    lap. So a ring's memory follows the records written, and its
    capacity only caps it. {!claim} hands out the next slot and the
    caller fills its words with plain unboxed stores, so writing a
    record allocates nothing on the minor heap. {!Trace} owns the record
    layout; this module owns only the circular-buffer mechanics.

    Rings are single-writer: exactly one domain writes (via
    [Trace.bind_ring]), and the offline decoder reads only after the
    writing domains have been joined. *)

exception Full
(** Raised by {!claim} on the {!null} ring, i.e. on any armed emission
    from a domain that never bound a ring. A constant exception:
    raising it allocates nothing. *)

type t

val create : shard:int -> capacity:int -> t
(** A ring of [capacity] records. Allocates only the chunk table (one
    slot per 4096 records and lane); record storage comes with the
    records. Raises [Invalid_argument] if [capacity < 1]. *)

val null : t
(** The capacity-0 ring that parks unbound domains: any {!claim}
    raises {!Full}. Shared and read-only by construction. *)

val shard : t -> int
(** The shard id the ring was bound with ([-1] for {!null}). *)

val capacity : t -> int

val length : t -> int
(** Retained records. *)

val dropped : t -> int
(** Records overwritten so far. *)

val written : t -> int
(** Total records ever written; the logical sequence number of the
    oldest retained record is [written r - length r]. *)

val set_horizon : t -> float -> unit
(** Note the horizon the writing domain's simulator just ran to
    ([Sim.run_until] calls this through [Trace.note_horizon]). A no-op
    on {!null}. *)

val horizon : t -> float
(** The last noted horizon; [infinity] if none was noted since
    {!create} or {!reset}. The decoder drops a departure record
    stamped later than this: that departure never happened within the
    run. *)

val claim : t -> int
(** Claim the next slot and return its index for the [set_i]/[set_f]
    stores, and make its chunk the current one. The first claim to reach
    a chunk on the first lap allocates it. A full ring overwrites its
    oldest record (counted in {!dropped}); the {!null} ring raises
    {!Full}. *)

val set_i : t -> int -> int -> int -> unit
(** [set_i r slot k v] stores int word [k] (0..12) of [slot], which
    must be the slot the last {!claim} returned: the store goes through
    the current chunk. *)

val get_i : t -> int -> int -> int
(** [get_i r slot k] reads int word [k] of any retained [slot], through
    the chunk table. *)

val set_f : t -> int -> int -> float -> unit
(** [set_f r slot k v] stores float word [k] (0..3) of [slot], the slot
    the last {!claim} returned. *)

val get_f : t -> int -> int -> float

val slot_of_index : t -> int -> int
(** Slot of the [i]-th oldest retained record ([0 <= i < length r]):
    the decoder's iteration order. *)

val reset : t -> unit
(** Forget all records and the noted horizon. The chunks stay
    allocated, and the next {!claim} writes slot 0 of chunk 0. *)
