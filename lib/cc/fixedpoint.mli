(** u64-style fixed-point primitives on OCaml's native int, twinned
    with the arithmetic of the kernel's [mptcp_olia.c]/[mptcp_balia.c]
    (linux-4.1 MPTCP tree, SNIPPETS.md). Operands are nonnegative by
    convention; products and shifts saturate at [max_int] where the
    kernel's u64 would wrap. *)

val scale : int
(** OLIA's cwnd/rate scale shift (10 bits). *)

val alpha_scale : int
(** BALIA's alpha fixed-point scale (10 bits). *)

val rate_scale_limit : int
(** BALIA rescales rates once the largest exceeds [2^rate_scale_limit]. *)

val one : int
(** [1 lsl scale]: 1.0 in [scale] units. *)

val cnt_wrap : int
(** [(1 lsl scale) - 1]: snd_cwnd_cnt units per full cwnd step. *)

val div_u64 : int -> int -> int
(** [div_u64 num den] is [num / den], or 0 when [den <= 0] (the
    kernel's div_u64 contract under its zero-divisor floors). *)

val add_sat : int -> int -> int
(** Saturating addition of nonnegative ints. *)

val mul_sat : int -> int -> int
(** Saturating multiplication of nonnegative ints. *)

val shift_sat : int -> int -> int
(** [shift_sat v n] is [v lsl n], saturating at [max_int]. *)

val scale_sat : int -> int
(** [shift_sat v scale]: the mptcp_olia_scale twin. *)

val num_scale_down : int -> int
(** Rescale steps needed to bring a max rate at or below
    [2^rate_scale_limit]. *)

val rescale : int -> int -> int
(** [rescale v down] shifts [v] right by [5 * down] bits: BALIA
    removes 5 bits per rescale step. *)

val of_float_scaled : float -> int
(** Nearest fixed-point value (in [scale] units) of a nonnegative
    float. Float-boundary helper. *)

val to_float_scaled : int -> float
(** Inverse of {!of_float_scaled} up to rounding. *)

val usec_of_sec : float -> int
(** Seconds to srtt microseconds, floored at 1. Float-boundary
    helper. *)
