module Spec = Repro_exp.Spec

module type SCENARIO = Repro_exp.Scenario_intf.S

(* One entry: the spec and the decoder come from the same term, and
   [run] checks every binding and the scenario's cross-parameter rules
   before [body] builds anything. Only the spec stays live between runs:
   each run builds the term's decoder afresh, so its closures do not sit
   on the heap of every program that links the registry. *)
let scenario ~name ~doc ~rules term body =
  let spec = Spec.make ~name ~doc (term ()) in
  ( name,
    (module struct
      let spec = spec
      let run b = body (Spec.decode spec (term ()) ~rules b)
    end : SCENARIO) )

(* Domains and parameters shared by most scenarios. *)
let nat = Spec.int_at_least 0
let pos_int = Spec.int_at_least 1
let nonneg = Spec.at_least 0.

let cc_name =
  Spec.names (String.concat "|" Repro_cc.Registry.names) (fun name ->
      match Repro_cc.Registry.create name with
      | _ -> true
      | exception Invalid_argument _ -> false)

let algo d = Spec.param cc_name "algo" d "congestion control algorithm"
let seed s = Spec.param nat "seed" s "PRNG seed (deterministic given the seed)"

let duration d =
  Spec.param Spec.positive "duration" d "simulated duration, seconds"

let warmup w =
  Spec.param nonneg "warmup" w "warm-up excluded from the measurements, seconds"

let window w d = Spec.below ("warmup", w) ("duration", d)

let scenario_a =
  let d = Scen_a.default in
  scenario ~name:"scenario-a"
    ~doc:
      "N1 MPTCP streaming clients with a private path and a subflow through \
       a shared AP used by N2 regular-TCP clients (paper Fig. 2)"
    ~rules:[ (fun c -> window c.Scen_a.warmup c.duration) ]
    (fun () ->
      Spec.(
        let+ n1 = param pos_int "n1" d.n1 "number of multipath (type-1) users"
        and+ n2 = param pos_int "n2" d.n2 "number of single-path (type-2) users"
        and+ c1_mbps =
          param positive "c1" d.c1_mbps
            "per-user capacity at the server bottleneck, Mb/s"
        and+ c2_mbps =
          param positive "c2" d.c2_mbps
            "per-user capacity at the shared AP, Mb/s"
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Scen_a.n1; n2; c1_mbps; c2_mbps; algo; duration; warmup; seed }))
    Scen_a.run

let scenario_b =
  let d = Scen_b.default in
  scenario ~name:"scenario-b"
    ~doc:
      "the four-ISP multihoming story: Blue users are multihomed, Red users \
       may upgrade to MPTCP (paper Tables I-II)"
    ~rules:[ (fun c -> window c.Scen_b.warmup c.duration) ]
    (fun () ->
      Spec.(
        let+ n = param pos_int "n" d.n "users per class"
        and+ cx_mbps =
          param positive "cx" d.cx_mbps "total capacity of ISP X, Mb/s"
        and+ ct_mbps =
          param positive "ct" d.ct_mbps "total capacity of ISP T, Mb/s"
        and+ red_multipath =
          param bool "red_multipath" d.red_multipath
            "have Red users upgraded to MPTCP?"
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Scen_b.n; cx_mbps; ct_mbps; red_multipath; algo; duration; warmup;
          seed }))
    Scen_b.run

let scenario_c =
  let d = Scen_c.default in
  scenario ~name:"scenario-c"
    ~doc:
      "N1 multipath users on a private AP1 plus a shared AP2 that N2 \
       single-path TCP users depend on (paper Fig. 5)"
    ~rules:[ (fun c -> window c.Scen_c.warmup c.duration) ]
    (fun () ->
      Spec.(
        let+ n1 = param pos_int "n1" d.n1 "number of multipath users"
        and+ n2 = param pos_int "n2" d.n2 "number of single-path users"
        and+ c1_mbps =
          param positive "c1" d.c1_mbps "per-user capacity at AP1, Mb/s"
        and+ c2_mbps =
          param positive "c2" d.c2_mbps "per-user capacity at AP2, Mb/s"
        and+ algo = algo d.algo
        and+ background_mbps =
          param nonneg "background" d.background_mbps
            "CBR background traffic through AP2, Mb/s (0 = none)"
        and+ with_path_manager =
          param bool "path_manager" d.with_path_manager
            "attach the bad-path-discarding manager to multipath users"
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Scen_c.n1; n2; c1_mbps; c2_mbps; algo; duration; warmup; seed;
          background_mbps; with_path_manager }))
    Scen_c.run

let two_bottleneck =
  let d = Two_bottleneck.symmetric in
  scenario ~name:"two-bottleneck"
    ~doc:
      "one two-path MPTCP user over two separate bottlenecks shared with \
       regular TCP flows; window/alpha traces (paper Figs. 7-8)"
    ~rules:[]
    (fun () ->
      Spec.(
        let+ n_tcp1 =
          param nat "n_tcp1" d.n_tcp1 "TCP flows sharing bottleneck 1"
        and+ n_tcp2 =
          param nat "n_tcp2" d.n_tcp2 "TCP flows sharing bottleneck 2"
        and+ c_mbps =
          param positive "c" d.c_mbps "capacity of each bottleneck, Mb/s"
        and+ delay1_ms =
          param nonneg "delay1" d.delay1_ms "one-way propagation of path 1, ms"
        and+ delay2_ms =
          param nonneg "delay2" d.delay2_ms "one-way propagation of path 2, ms"
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ sample_period =
          param positive "sample_period" d.sample_period
            "window/alpha sampling interval, seconds"
        and+ seed = seed d.seed in
        { Two_bottleneck.n_tcp1; n_tcp2; c_mbps; delay1_ms; delay2_ms; algo;
          duration; sample_period; seed }))
    Two_bottleneck.run

(* The goodput share after the relief is measured up to 0.1 s before the
   end, so the relief must come before that last probe. The pre-shock
   share averages the window samples over [shock_at / 2, shock_at], and
   the sampler first fires at 1 s: an earlier shock leaves that mean, and
   both response times measured against it, undefined. *)
let responsiveness =
  let d = Responsiveness.default in
  scenario ~name:"responsiveness"
    ~doc:
      "shock/relief responsiveness: TCP flows slam into path 2 and later \
       leave; how fast does the multipath user react? (paper SII claim)"
    ~rules:
      [
        (fun c ->
          Spec.below ("shock_at", c.Responsiveness.shock_at)
            ("relief_at", c.relief_at));
        (fun c ->
          Spec.below ("relief_at", c.Responsiveness.relief_at)
            ("duration - 0.1", c.duration -. 0.1));
        (fun c ->
          if c.Responsiveness.shock_at >= 2. then None
          else
            Some
              (Printf.sprintf
                 "shock_at = %g must be at least 2: the pre-shock share \
                  averages the window samples over [shock_at / 2, \
                  shock_at], and sampling starts at 1 s"
                 c.shock_at));
      ]
    (fun () ->
      Spec.(
        let+ c_mbps = param positive "c" d.c_mbps "link capacity, Mb/s"
        and+ n_shock =
          param nat "n_shock" d.n_shock "TCP flows that slam into path 2"
        and+ shock_at =
          param positive "shock_at" d.shock_at "shock time, seconds"
        and+ relief_at =
          param positive "relief_at" d.relief_at "relief time, seconds"
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ seed = seed d.seed in
        { Responsiveness.c_mbps; n_shock; shock_at; relief_at; duration; algo;
          seed }))
    Responsiveness.run

let wireless =
  let d = Wireless.default in
  scenario ~name:"wireless"
    ~doc:
      "WiFi+cellular bonding with random wireless losses (the paper's \
       reference [12])"
    ~rules:[ (fun c -> window c.Wireless.warmup c.duration) ]
    (fun () ->
      Spec.(
        let+ wifi_mbps =
          param positive "wifi" d.wifi_mbps "WiFi path rate, Mb/s"
        and+ wifi_loss =
          param probability "wifi_loss" d.wifi_loss
            "random per-packet loss on the WiFi path"
        and+ wifi_delay_ms =
          param nonneg "wifi_delay" d.wifi_delay_ms
            "WiFi one-way propagation, ms"
        and+ cell_mbps =
          param positive "cell" d.cell_mbps "cellular path rate, Mb/s"
        and+ cell_delay_ms =
          param nonneg "cell_delay" d.cell_delay_ms
            "cellular one-way propagation, ms"
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Wireless.wifi_mbps; wifi_loss; wifi_delay_ms; cell_mbps;
          cell_delay_ms; algo; duration; warmup; seed }))
    Wireless.run

(* FatTree parameters. The per-hop delay is the lookahead of the tree's
   shard group, which must be positive even on one shard. *)
let arity d doc = Spec.param Spec.even_int "k" d doc
let arity_doc = "FatTree arity (k=8 gives 128 hosts)"
let rate d = Spec.param Spec.positive "rate" d "host link capacity, Mb/s"
let delay d doc = Spec.param Spec.positive "delay" d doc
let hop_doc = "per-hop one-way latency, ms"
let subflows d doc = Spec.param pos_int "subflows" d doc
let subflows_doc = "MPTCP subflows per connection (1 = plain TCP)"

let fattree =
  let d = Fattree_static.default in
  scenario ~name:"fattree"
    ~doc:
      "static FatTree permutation experiment: every host sends one \
       long-lived flow to a random distinct host (paper Fig. 13)"
    ~rules:[ (fun c -> window c.Fattree_static.warmup c.duration) ]
    (fun () ->
      Spec.(
        let+ k = arity d.k arity_doc
        and+ rate_mbps = rate d.rate_mbps
        and+ delay_ms = delay d.delay_ms hop_doc
        and+ subflows = subflows d.subflows subflows_doc
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Fattree_static.k; rate_mbps; delay_ms; subflows; algo; duration;
          warmup; seed }))
    Fattree_static.run

let fattree_dynamic =
  let d = Fattree_dynamic.default in
  scenario ~name:"fattree-dynamic"
    ~doc:
      "4:1 oversubscribed FatTree with continuous long flows and 70 kB \
       short flows (paper Fig. 14, Table III)"
    ~rules:[ (fun c -> window c.Fattree_dynamic.warmup c.duration) ]
    (fun () ->
      Spec.(
        let+ k = arity d.k "FatTree arity"
        and+ rate_mbps = rate d.rate_mbps
        and+ delay_ms = delay d.delay_ms hop_doc
        and+ oversubscription =
          param (at_least 1.) "oversubscription" d.oversubscription
            "aggregation-to-core oversubscription factor"
        and+ algo = algo d.algo
        and+ subflows = subflows d.subflows "subflows of the long flows"
        and+ mean_interval =
          param positive "mean_interval" d.mean_interval
            "short-flow inter-arrival mean, seconds"
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Fattree_dynamic.k; rate_mbps; delay_ms; oversubscription; algo;
          subflows; mean_interval; duration; warmup; seed }))
    Fattree_dynamic.run

let fattree_sharded =
  let d = Fattree_sharded.default in
  let divides c =
    if c.Fattree_sharded.k mod c.shards = 0 then None
    else Some (Printf.sprintf "shards = %d must divide k = %d" c.shards c.k)
  in
  scenario ~name:"fattree-sharded"
    ~doc:
      "production-scale FatTree permutation experiment (k=8: 128 hosts, 1024 \
       flows), runnable sharded pod-per-domain with conservative lookahead \
       (-p shards=N)"
    ~rules:[ (fun c -> window c.Fattree_sharded.warmup c.duration); divides ]
    (fun () ->
      Spec.(
        let+ k = arity d.k arity_doc
        and+ shards =
          param pos_int "shards" d.shards
            "simulation shards (domains); must divide k; 1 = sequential"
        and+ rate_mbps = rate d.rate_mbps
        and+ delay_ms =
          delay d.delay_ms "per-hop one-way latency, ms (the shard lookahead)"
        and+ subflows = subflows d.subflows subflows_doc
        and+ flows_per_host =
          param pos_int "flows_per_host" d.flows_per_host
            "long-lived permutation flows originating at each host"
        and+ algo = algo d.algo
        and+ duration = duration d.duration
        and+ warmup = warmup d.warmup
        and+ seed = seed d.seed in
        { Fattree_sharded.k; shards; rate_mbps; delay_ms; subflows;
          flows_per_host; algo; duration; warmup; seed }))
    (fun c -> Fattree_sharded.outcome (Fattree_sharded.run c))

let all =
  [
    scenario_a; scenario_b; scenario_c; two_bottleneck; responsiveness;
    wireless; fattree; fattree_dynamic; fattree_sharded;
  ]

let names = List.map fst all

let find name =
  match List.assoc_opt name all with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find: unknown scenario %S (valid: %s)" name
         (String.concat ", " names))
