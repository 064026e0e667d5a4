(** The production-scale FatTree experiment: a k ≥ 8 tree with several
    long-lived permutation flows per host (k = 8 and 8 flows/host give
    1024 concurrent MPTCP connections over 128 hosts), runnable on one
    event loop or sharded pod-per-domain across OCaml domains with
    conservative lookahead ({!Repro_netsim.Shard}).

    Results are bitwise shard-count-invariant: the same seed produces
    identical goodputs, core loss, event and drop counts for any shard
    count (the scheduler's [(time, sched, content)] dispatch order is
    reconstructible from cross-shard messages); only [cut_messages] and
    the heap high-water mark depend on it. At one shard and one flow
    per host this is the paper's Fig. 13 run, which
    {!Fattree_static.run} projects. The `shard-invariance` CI job
    enforces the invariance via [olia_sim shard-invariance
    fattree-sharded], which compares the registry outcomes at 1 and N
    shards field by field ([Repro_exp.Outcome.bitwise_diff]), including
    a traced leg that byte-compares the decoded sharded trace against
    the 1-shard trace. *)

type config = {
  k : int;  (** FatTree arity; k = 8 gives 128 hosts *)
  shards : int;  (** domains; must divide k (1 = sequential) *)
  rate_mbps : float;  (** host link capacity *)
  delay_ms : float;  (** per-hop one-way latency = shard lookahead *)
  subflows : int;  (** MPTCP subflows per connection (1 = plain TCP) *)
  flows_per_host : int;  (** long-lived flows originating at each host *)
  algo : string;
  duration : float;
  warmup : float;
  seed : int;
}

val default : config
(** k = 8, shards = 1, 10 Mb/s links, 1 ms hops, 2 subflows, 8 flows
    per host (1024 flows), OLIA, 5 s with 1 s warm-up. *)

type result = {
  flow_mbps : float array;  (** per-flow goodput, flow order *)
  aggregate_mbps : float;
  aggregate_pct_optimal : float;
      (** total goodput as % of [hosts·rate] (host links are the
          permutation bottleneck regardless of flows per host) *)
  mean_flow_mbps : float;
  p10_flow_mbps : float;
  p50_flow_mbps : float;
  p90_flow_mbps : float;
  mean_core_loss : float;  (** mean loss probability over core queues *)
  cut_messages : int;
      (** packets that crossed a shard boundary (0 when [shards = 1]) *)
  obs : Repro_obs.Meter.report;
      (** counters summed over the shards' simulators; the event count
          is shard-count-invariant (one warm-up timer per pod), the
          heap high-water mark is not *)
  shard_obs : Repro_obs.Meter.shard_counters list;
      (** per-shard loop counters, ascending shards; their
          deterministic merge ([Meter.merge_shards]) is exactly what
          [obs] carries as events and max heap depth *)
}

val run : config -> result
(** Build the sharded tree, start every flow, run the barrier/window
    loop on [shards] domains ({!Repro_exp.Sweep.pool} plumbing) and
    measure goodputs over [\[warmup, duration\]]. Deterministic for a
    given (seed, shards) — and bitwise shard-count-invariant: the
    scheduler's [(time, sched, content)] dispatch order makes the same
    seed produce identical goodputs for any shard count. Tracing a
    sharded run works through per-worker rings ([Trace.arm_rings]).
    The registry checks its inputs; called directly, it trusts them,
    but {!Repro_topology.Fattree.create} still rejects a shard count
    that does not divide [k]. *)

val outcome : result -> Repro_exp.Outcome.t
(** The registry's view of a run. Metrics, in the order of the record
    fields: [aggregate_mbps] through [mean_core_loss], [cut_messages],
    then {!Repro_obs.Meter.metrics} of [obs]. Array: [flow_mbps]. *)
