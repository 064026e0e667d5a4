(** Constant-bit-rate background traffic source: uncontrolled data packets
    injected at a fixed rate (the paper's §VII "background traffic"
    factor). CBR packets traverse a route like any other packet and are
    dropped or delivered without acknowledgments. *)

type t

val blackhole : Packet.hop
(** A terminal hop that absorbs packets; put it at the end of CBR
    routes. *)

val create :
  sim:Sim.t ->
  rate_bps:float ->
  route:Packet.hop array ->
  ?start:float ->
  ?stop:float ->
  flow_id:int ->
  unit ->
  t
(** Send MSS-sized packets back-to-back at [rate_bps] from [start]
    (default 0) until [stop] (default: forever). Raises
    [Invalid_argument] unless [rate_bps] is finite and positive. *)

val packets_sent : t -> int
