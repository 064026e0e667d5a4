type config = {
  k : int;
  rate_mbps : float;
  delay_ms : float;
  subflows : int;
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

let default =
  {
    k = 8;
    rate_mbps = 10.;
    delay_ms = 1.;
    subflows = 8;
    algo = "olia";
    duration = 40.;
    warmup = 10.;
    seed = 1;
  }

(* The permutation body of Fattree_sharded at one shard and one flow
   per host: the same tree, RNG stream and event order, so the goodputs
   are its goodputs bit for bit. *)
let run cfg =
  let r =
    Fattree_sharded.run
      {
        Fattree_sharded.k = cfg.k;
        shards = 1;
        rate_mbps = cfg.rate_mbps;
        delay_ms = cfg.delay_ms;
        subflows = cfg.subflows;
        flows_per_host = 1;
        algo = cfg.algo;
        duration = cfg.duration;
        warmup = cfg.warmup;
        seed = cfg.seed;
      }
  in
  let flow_mbps = r.Fattree_sharded.flow_mbps in
  let ranked_pct = Array.map (fun m -> 100. *. m /. cfg.rate_mbps) flow_mbps in
  Array.sort compare ranked_pct;
  Repro_exp.Outcome.of_metrics
    ~arrays:[ ("flow_mbps", flow_mbps); ("ranked_pct", ranked_pct) ]
    [
      ("aggregate_pct_optimal", r.Fattree_sharded.aggregate_pct_optimal);
      ("mean_core_loss", r.Fattree_sharded.mean_core_loss);
    ]
