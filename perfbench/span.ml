(* Per-layer self time for the traced run.

   Every wrapped entry point (a queue or pipe hop, the pass-through hop
   in front of a TCP endpoint handler, a congestion-control closure) is
   a span. A span's self time is its own duration minus the spans that
   ran inside it. A span that opens with no span around it runs inside
   some event dispatch; its duration is charged to that dispatch's
   class in [top_in], so the dispatch's self time is the profiler's
   per-source total minus [top_in] of its class. The class is known
   statically at wrap time: a hop at index i of a route is called by
   whatever handles hop i-1 (a queue finishing service, a pipe
   delivering), and the first hop of a route by a TCP timer (a hop
   called from inside an ACK or sink handler is never top level).

   The accumulators are plain globals: the traced run is single-domain
   and measures one pass at a time. *)

open Repro_netsim

(* Layers (indices into [self_ns] and [calls]). *)
let queue = 0
let pipe = 1
let tcp = 2
let cc = 3
let n_layers = 4

(* Dispatch classes (indices into [top_in]): the Profile source
   families [queue.*], [pipe.*], [tcp.*] and everything else. *)
let cls_queue = 0
let cls_pipe = 1
let cls_tcp = 2
let cls_other = 3
let n_classes = 4

let class_of_src src =
  let has p = String.starts_with ~prefix:p src in
  if has "queue." then cls_queue
  else if has "pipe." then cls_pipe
  else if has "tcp." then cls_tcp
  else cls_other

let max_depth = 1024
let start_ns = Array.make max_depth 0
let child_ns = Array.make max_depth 0
let depth = ref 0
let self_ns = Array.make n_layers 0
let calls = Array.make n_layers 0
let top_in = Array.make n_classes 0

let reset () =
  depth := 0;
  Array.fill self_ns 0 n_layers 0;
  Array.fill calls 0 n_layers 0;
  Array.fill top_in 0 n_classes 0

let[@inline] enter () =
  let d = !depth + 1 in
  depth := d;
  child_ns.(d) <- 0;
  start_ns.(d) <- Clock.now_ns ()

let[@inline] leave layer cls =
  let t = Clock.now_ns () in
  let d = !depth in
  let incl = t - start_ns.(d) in
  self_ns.(layer) <- self_ns.(layer) + incl - child_ns.(d);
  calls.(layer) <- calls.(layer) + 1;
  depth := d - 1;
  if d > 1 then child_ns.(d - 1) <- child_ns.(d - 1) + incl
  else top_in.(cls) <- top_in.(cls) + incl

let hop layer cls (h : Packet.hop) : Packet.hop =
 fun p ->
  enter ();
  h p;
  leave layer cls

(* Hop kinds of a route, as the topology documents them:
   [Duplex.fwd_hops] is queue-then-pipe. *)
type kind = Q | P

let layer_of = function Q -> queue | P -> pipe
let class_of = function Q -> cls_queue | P -> cls_pipe

(* Wrap every hop of a route and append a pass-through hop, so the TCP
   handler that [Tcp.create] places after it runs inside a [tcp]
   span. *)
let route kinds (hops : Packet.hop array) =
  let n = Array.length hops in
  if Array.length kinds <> n then invalid_arg "Span.route: kinds/hops length";
  let caller i = if i = 0 then cls_tcp else class_of kinds.(i - 1) in
  let wrapped = Array.mapi (fun i h -> hop (layer_of kinds.(i)) (caller i) h) hops in
  Array.append wrapped [| hop tcp (caller n) Packet.forward |]

(* The four closures of a congestion controller. A top-level CC call
   comes from the RTO timer; every other call is nested in a TCP
   span. *)
let cc_wrap (c : Repro_cc.Cc_types.t) =
  {
    c with
    Repro_cc.Cc_types.on_ack =
      (fun ~idx ~acked ->
        enter ();
        c.Repro_cc.Cc_types.on_ack ~idx ~acked;
        leave cc cls_tcp);
    on_loss =
      (fun ~idx ->
        enter ();
        c.Repro_cc.Cc_types.on_loss ~idx;
        leave cc cls_tcp);
    increase =
      (fun ~views ~idx ->
        enter ();
        let r = c.Repro_cc.Cc_types.increase ~views ~idx in
        leave cc cls_tcp;
        r);
    loss_decrease =
      (fun ~views ~idx ->
        enter ();
        let r = c.Repro_cc.Cc_types.loss_decrease ~views ~idx in
        leave cc cls_tcp;
        r);
  }
