(** A set of sequence numbers above a moving base, held as a bit ring.

    TCP's SACK scoreboard (base [snd_una]) and its receiver's
    out-of-order set (base [rcv_cum]) hold only sequence numbers at or
    above a base that never moves back. One bit per sequence number in
    a power-of-two ring of at least 64 bits covers
    [\[base, base + capacity)]; membership, insertion and advancing the
    base allocate nothing. An insertion past the top doubles the ring,
    so the ring settles at the widest span of members a connection
    sees. *)

type t

val create : unit -> t
(** An empty set with base 0 and a 64-bit ring. *)

val mem : t -> int -> bool
(** Whether the sequence number is a member; [false] below the base and
    past the ring's top. *)

val add : t -> int -> unit
(** Insert a sequence number at or above the base, doubling the ring
    until it spans it. Adding a member again is a no-op. Raises
    [Invalid_argument] below the base. *)

val advance : t -> int -> unit
(** [advance t b] drops every member below [b] and makes [b] the base;
    O(1) on an empty set. Raises [Invalid_argument] if [b] is below the
    current base. *)

val cardinal : t -> int
(** The number of members. *)
