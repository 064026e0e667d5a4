(* Pooled packet records.

   Layout choices are driven by the zero-alloc forwarding path:

   - [kind] is a constant constructor; the ACK payload lives in plain
     int fields ([ackno], [sack_lo], [sack_hi]) so building an ACK
     allocates nothing, in order or not.
   - the float timestamps live in [stamps], a float-only record, so
     re-stamping them is an unboxed store. In the main (mixed) record a
     [mutable float] field would box on every write.
   - records are recycled through a per-domain free list: [data]/[ack]
     pop a cell, [free] pushes it back. Sinks and drop sites own the
     packet and must [free] it; [live] catches double frees and
     use-after-free when OLIA_DEBUG_INVARIANTS is armed. *)

module Invariant = Repro_stats.Invariant

type kind = Data | Ack

type stamps = {
  mutable sent_at : float;
  mutable enqueued_at : float;
  mutable echo : float;
  mutable departs : float;
}

type t = {
  mutable kind : kind;
  mutable seq : int;
  mutable size_bytes : int;
  mutable flow : int;
  mutable subflow : int;
  mutable hop : int;
  mutable route : hop array;
  mutable ackno : int;
  mutable sack_lo : int;
  mutable sack_hi : int;
  times : stamps;
  mutable live : bool;
}

and hop = t -> unit

let data_size = 1500
let ack_size = 40
let[@inline] kind_code = function Data -> 0 | Ack -> 1
let no_route : hop array = [||]

let fresh () =
  (* lint: allow R9 -- pool-miss cold path: once the per-domain pool warms up, data/ack recycle cells and never reach [fresh] *)
  {
    kind = Data;
    seq = 0;
    size_bytes = 0;
    flow = 0;
    subflow = 0;
    hop = 0;
    route = no_route;
    ackno = 0;
    sack_lo = 0;
    sack_hi = 0;
    (* lint: allow R9 -- same pool-miss cold path as the outer record *)
    times = { sent_at = 0.; enqueued_at = 0.; echo = 0.; departs = 0. };
    live = true;
  }

let sentinel () =
  let p = fresh () in
  p.live <- false;
  p

type pool = { mutable stack : t array; mutable len : int }

(* Per-domain free list: Exp.Sweep runs simulations on multiple domains,
   and a domain-local pool needs no locking. *)
let pool_key = Domain.DLS.new_key (fun () -> { stack = [||]; len = 0 })

let alloc () =
  let pool = Domain.DLS.get pool_key in
  if pool.len = 0 then fresh ()
  else begin
    pool.len <- pool.len - 1;
    let p = pool.stack.(pool.len) in
    p.live <- true;
    p
  end

let[@olia.alloc_free] free p =
  if Invariant.enabled () then
    Invariant.require p.live "Packet.free: packet already freed";
  p.live <- false;
  p.route <- no_route;
  let pool = Domain.DLS.get pool_key in
  if pool.len = Array.length pool.stack then begin
    let cap = max 64 (2 * pool.len) in
    (* lint: allow R9 -- amortized pool growth: doubling makes this O(1) amortized and absent at steady state *)
    let stack = Array.make cap p in
    Array.blit pool.stack 0 stack 0 pool.len;
    pool.stack <- stack
  end;
  pool.stack.(pool.len) <- p;
  pool.len <- pool.len + 1

let[@inline] [@olia.alloc_free] data ~flow ~subflow ~seq ~sent_at ~route =
  let p = alloc () in
  p.kind <- Data;
  p.seq <- seq;
  p.size_bytes <- data_size;
  p.flow <- flow;
  p.subflow <- subflow;
  p.hop <- 0;
  p.route <- route;
  p.ackno <- 0;
  p.sack_lo <- 0;
  p.sack_hi <- 0;
  p.times.sent_at <- sent_at;
  p.times.enqueued_at <- sent_at;
  p.times.echo <- 0.;
  p.times.departs <- sent_at;
  p

let[@inline] [@olia.alloc_free] ack ~flow ~subflow ~ackno ~echo ~sack_lo ~sack_hi
    ~route ~sent_at =
  let p = alloc () in
  p.kind <- Ack;
  p.seq <- 0;
  p.size_bytes <- ack_size;
  p.flow <- flow;
  p.subflow <- subflow;
  p.hop <- 0;
  p.route <- route;
  p.ackno <- ackno;
  p.sack_lo <- sack_lo;
  p.sack_hi <- sack_hi;
  p.times.sent_at <- sent_at;
  p.times.enqueued_at <- sent_at;
  p.times.echo <- echo;
  p.times.departs <- sent_at;
  p

let[@olia.alloc_free] forward p =
  if Invariant.enabled () then begin
    Invariant.require p.live "packet forwarded after free";
    Invariant.require
      (p.hop >= 0 && p.hop < Array.length p.route)
      (Printf.sprintf
         "packet flow %d subflow %d seq %d: hop %d outside route of length \
          %d"
         p.flow p.subflow p.seq p.hop (Array.length p.route))
  end;
  assert (p.hop < Array.length p.route);
  let h = p.route.(p.hop) in
  p.hop <- p.hop + 1;
  h p
