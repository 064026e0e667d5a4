open Repro_netsim

type t = {
  fwd_q : Queue.t;
  rev_q : Queue.t;
  delay : float;
  fwd : Packet.hop array;
  rev : Packet.hop array;
}

let create ~sim ~rng ~rate_bps ~delay ~buffer_pkts ~discipline
    ?(name = "link") () =
  let direction dir =
    let q =
      Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps ~buffer_pkts
        ~discipline ~name:(name ^ dir) ()
    in
    let p = Pipe.create ~sim ~delay in
    (q, [| Queue.wired_hop q (Queue.Pipe p); Pipe.hop p |])
  in
  (* reverse first: each queue's RNG split is the one it has always
     drawn *)
  let rev_q, rev = direction "<" in
  let fwd_q, fwd = direction ">" in
  { fwd_q; rev_q; delay; fwd; rev }

let fwd_hops t = t.fwd
let rev_hops t = t.rev
let fwd_queue t = t.fwd_q
let rev_queue t = t.rev_q
let one_way_delay t = t.delay
