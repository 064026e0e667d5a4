(* A deliberately-broken armed-emission path, shaped like the scalar
   functions in lib/obs/trace.ml: one branch is unboxed stores
   (arithmetic stands in for them here), but the other builds a tuple
   event payload, so the allocation sits square on the [@olia.alloc_free]
   hot path. The regression test asserts R9 pins exactly that branch —
   proving the gate would fail CI if the real emission path ever built
   its event on the way to the ring. *)

let record ev = ignore ev

let[@olia.alloc_free] rtt_sample time flow rtt =
  if flow land 1 = 0 then ignore (int_of_float (time +. rtt))
  else record (time, flow, rtt)
