(* Host-speed reference kernel.

   On a shared VM the host's speed moves in phases of seconds: other
   tenants slow every window of a run by half again or more, and no
   order statistic over a run's own windows removes a slowdown that
   lasts the whole run. So timed samples are paired with this fixed
   kernel, timed just before them, and reported at the reference speed:
   [sample * ref_ns / kernel_ns]. The kernel is the benchmark's own code
   and never changes with the simulator, so a change to the simulator
   moves the scaled times exactly as it moves the raw ones.

   The kernel streams stores through a 32 MiB buffer. Of the kernels
   tried (dependent random reads over L2- and L3-sized tables,
   streaming stores), its time tracked the per-event cost of the
   cache-resident workloads best across host phases: correlation 0.98
   over 65 passes of ft-perm, scaled per-pass cost within 4 % where the
   raw cost moved by 22 %. The buffer lives outside the OCaml heap
   (Bigarray), so it changes neither the GC counts nor the peak heap,
   and running the kernel allocates nothing. *)

open Bigarray

let writes = 16384

(* The kernel's time on a calm host (Intel Xeon, 2-vCPU KVM guest): the
   speed every scaled time refers to. *)
let ref_ns = 23000.

let stream = lazy (Array1.create int c_layout (1 lsl 22))
let pos = ref 0

(* Allocate and touch the buffer before anything is measured. *)
let init () = Array1.fill (Lazy.force stream) 0

let time_ns () =
  let s = Lazy.force stream in
  let mask = Array1.dim s - 1 in
  let t0 = Clock.now_ns () in
  let p = !pos in
  for j = 0 to writes - 1 do
    Array1.unsafe_set s ((p + j) land mask) j
  done;
  pos := (p + writes) land mask;
  Clock.now_ns () - t0
