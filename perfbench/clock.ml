(* Monotonic nanosecond clock; the stub is [@@noalloc] with an unboxed
   result, so reading it inside the timed loop allocates nothing. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
