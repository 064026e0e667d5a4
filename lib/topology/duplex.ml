open Repro_netsim

type t = {
  fwd_q : Queue.t;
  rev_q : Queue.t;
  fwd_p : Pipe.t;
  rev_p : Pipe.t;
}

let create ~sim ~rng ~rate_bps ~delay ~buffer_pkts ~discipline
    ?(name = "link") () =
  let mk dir =
    Queue.create ~sim ~rng:(Rng.split rng) ~rate_bps ~buffer_pkts ~discipline
      ~name:(name ^ dir) ~wired:true ()
  in
  {
    fwd_q = mk ">";
    rev_q = mk "<";
    fwd_p = Pipe.create ~sim ~delay;
    rev_p = Pipe.create ~sim ~delay;
  }

let fwd_hops t = [| Queue.hop t.fwd_q; Pipe.hop t.fwd_p |]
let rev_hops t = [| Queue.hop t.rev_q; Pipe.hop t.rev_p |]
let fwd_queue t = t.fwd_q
let rev_queue t = t.rev_q
let one_way_delay t = Pipe.delay t.fwd_p
