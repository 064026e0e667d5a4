(** Deterministic splittable PRNG (SplitMix64). Every experiment takes a
    seed so runs are exactly reproducible. *)

type t

val create : seed:int -> t
(** A generator with the given seed. *)

val split : t -> t
(** An independent generator derived from [t]'s stream, for giving each
    component (queue, workload, …) its own stream. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> float -> float
(** Uniform float in [\[0, bound)]. *)

val int : t -> int -> int
(** Uniform int in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean, for Poisson
    arrival processes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** A uniformly random permutation of [0..n-1]. *)

val derangement_permutation : t -> int -> int array
(** A random permutation with no fixed point ([p.(i) <> i]), used for the
    FatTree random-permutation traffic matrix where no host sends to
    itself. Raises [Invalid_argument] if [n < 2]. *)
