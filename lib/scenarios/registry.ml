module Spec = Repro_exp.Spec

module type SCENARIO = Repro_exp.Scenario_intf.S

(* Parameters shared by most testbed configs. *)
let algo_param default =
  Spec.string "algo" default
    "congestion control: reno, lia, olia, balia, cubic, scalable, wvegas or \
     coupled:<eps>"

let seed_param = Spec.int "seed" 1 "PRNG seed (deterministic given the seed)"
let duration_param d = Spec.float "duration" d "simulated duration, seconds"

let warmup_param w =
  Spec.float "warmup" w "warm-up excluded from the measurements, seconds"

module Scenario_a : SCENARIO = struct
  let d = Scen_a.default

  let spec =
    {
      Spec.name = "scenario-a";
      doc =
        "N1 MPTCP streaming clients with a private path and a subflow \
         through a shared AP used by N2 regular-TCP clients (paper Fig. 2)";
      params =
        [
          Spec.int "n1" d.Scen_a.n1 "number of multipath (type-1) users";
          Spec.int "n2" d.Scen_a.n2 "number of single-path (type-2) users";
          Spec.float "c1" d.Scen_a.c1_mbps
            "per-user capacity at the server bottleneck, Mb/s";
          Spec.float "c2" d.Scen_a.c2_mbps
            "per-user capacity at the shared AP, Mb/s";
          algo_param d.Scen_a.algo;
          duration_param d.Scen_a.duration;
          warmup_param d.Scen_a.warmup;
          seed_param;
        ];
    }

  let run b =
    Scen_a.run
      {
        Scen_a.n1 = Spec.get_int spec b "n1";
        n2 = Spec.get_int spec b "n2";
        c1_mbps = Spec.get_float spec b "c1";
        c2_mbps = Spec.get_float spec b "c2";
        algo = Spec.get_string spec b "algo";
        duration = Spec.get_float spec b "duration";
        warmup = Spec.get_float spec b "warmup";
        seed = Spec.get_int spec b "seed";
      }
end

module Scenario_b : SCENARIO = struct
  let d = Scen_b.default

  let spec =
    {
      Spec.name = "scenario-b";
      doc =
        "the four-ISP multihoming story: Blue users are multihomed, Red \
         users may upgrade to MPTCP (paper Tables I-II)";
      params =
        [
          Spec.int "n" d.Scen_b.n "users per class";
          Spec.float "cx" d.Scen_b.cx_mbps "total capacity of ISP X, Mb/s";
          Spec.float "ct" d.Scen_b.ct_mbps "total capacity of ISP T, Mb/s";
          Spec.bool "red_multipath" d.Scen_b.red_multipath
            "have Red users upgraded to MPTCP?";
          algo_param d.Scen_b.algo;
          duration_param d.Scen_b.duration;
          warmup_param d.Scen_b.warmup;
          seed_param;
        ];
    }

  let run b =
    Scen_b.run
      {
        Scen_b.n = Spec.get_int spec b "n";
        cx_mbps = Spec.get_float spec b "cx";
        ct_mbps = Spec.get_float spec b "ct";
        red_multipath = Spec.get_bool spec b "red_multipath";
        algo = Spec.get_string spec b "algo";
        duration = Spec.get_float spec b "duration";
        warmup = Spec.get_float spec b "warmup";
        seed = Spec.get_int spec b "seed";
      }
end

module Scenario_c : SCENARIO = struct
  let d = Scen_c.default

  let spec =
    {
      Spec.name = "scenario-c";
      doc =
        "N1 multipath users on a private AP1 plus a shared AP2 that N2 \
         single-path TCP users depend on (paper Fig. 5)";
      params =
        [
          Spec.int "n1" d.Scen_c.n1 "number of multipath users";
          Spec.int "n2" d.Scen_c.n2 "number of single-path users";
          Spec.float "c1" d.Scen_c.c1_mbps "per-user capacity at AP1, Mb/s";
          Spec.float "c2" d.Scen_c.c2_mbps "per-user capacity at AP2, Mb/s";
          algo_param d.Scen_c.algo;
          Spec.float "background" d.Scen_c.background_mbps
            "CBR background traffic through AP2, Mb/s (0 = none)";
          Spec.bool "path_manager" d.Scen_c.with_path_manager
            "attach the bad-path-discarding manager to multipath users";
          duration_param d.Scen_c.duration;
          warmup_param d.Scen_c.warmup;
          seed_param;
        ];
    }

  let run b =
    Scen_c.run
      {
        Scen_c.n1 = Spec.get_int spec b "n1";
        n2 = Spec.get_int spec b "n2";
        c1_mbps = Spec.get_float spec b "c1";
        c2_mbps = Spec.get_float spec b "c2";
        algo = Spec.get_string spec b "algo";
        background_mbps = Spec.get_float spec b "background";
        with_path_manager = Spec.get_bool spec b "path_manager";
        duration = Spec.get_float spec b "duration";
        warmup = Spec.get_float spec b "warmup";
        seed = Spec.get_int spec b "seed";
      }
end

module Two_bottleneck_s : SCENARIO = struct
  let d = Two_bottleneck.symmetric

  let spec =
    {
      Spec.name = "two-bottleneck";
      doc =
        "one two-path MPTCP user over two separate bottlenecks shared with \
         regular TCP flows; window/alpha traces (paper Figs. 7-8)";
      params =
        [
          Spec.int "n_tcp1" d.Two_bottleneck.n_tcp1
            "TCP flows sharing bottleneck 1";
          Spec.int "n_tcp2" d.Two_bottleneck.n_tcp2
            "TCP flows sharing bottleneck 2";
          Spec.float "c" d.Two_bottleneck.c_mbps
            "capacity of each bottleneck, Mb/s";
          Spec.float "delay1" d.Two_bottleneck.delay1_ms
            "one-way propagation of path 1, ms";
          Spec.float "delay2" d.Two_bottleneck.delay2_ms
            "one-way propagation of path 2, ms";
          algo_param d.Two_bottleneck.algo;
          duration_param d.Two_bottleneck.duration;
          Spec.float "sample_period" d.Two_bottleneck.sample_period
            "window/alpha sampling interval, seconds";
          seed_param;
        ];
    }

  let run b =
    Two_bottleneck.run
      {
        Two_bottleneck.n_tcp1 = Spec.get_int spec b "n_tcp1";
        n_tcp2 = Spec.get_int spec b "n_tcp2";
        c_mbps = Spec.get_float spec b "c";
        delay1_ms = Spec.get_float spec b "delay1";
        delay2_ms = Spec.get_float spec b "delay2";
        algo = Spec.get_string spec b "algo";
        duration = Spec.get_float spec b "duration";
        sample_period = Spec.get_float spec b "sample_period";
        seed = Spec.get_int spec b "seed";
      }
end

module Responsiveness_s : SCENARIO = struct
  let d = Responsiveness.default

  let spec =
    {
      Spec.name = "responsiveness";
      doc =
        "shock/relief responsiveness: TCP flows slam into path 2 and later \
         leave; how fast does the multipath user react? (paper SII claim)";
      params =
        [
          Spec.float "c" d.Responsiveness.c_mbps "link capacity, Mb/s";
          Spec.int "n_shock" d.Responsiveness.n_shock
            "TCP flows that slam into path 2";
          Spec.float "shock_at" d.Responsiveness.shock_at "shock time, seconds";
          Spec.float "relief_at" d.Responsiveness.relief_at
            "relief time, seconds";
          algo_param d.Responsiveness.algo;
          duration_param d.Responsiveness.duration;
          seed_param;
        ];
    }

  let run b =
    Responsiveness.run
      {
        Responsiveness.c_mbps = Spec.get_float spec b "c";
        n_shock = Spec.get_int spec b "n_shock";
        shock_at = Spec.get_float spec b "shock_at";
        relief_at = Spec.get_float spec b "relief_at";
        algo = Spec.get_string spec b "algo";
        duration = Spec.get_float spec b "duration";
        seed = Spec.get_int spec b "seed";
      }
end

module Wireless_s : SCENARIO = struct
  let d = Wireless.default

  let spec =
    {
      Spec.name = "wireless";
      doc =
        "WiFi+cellular bonding with random wireless losses (the paper's \
         reference [12])";
      params =
        [
          Spec.float "wifi" d.Wireless.wifi_mbps "WiFi path rate, Mb/s";
          Spec.float "wifi_loss" d.Wireless.wifi_loss
            "random per-packet loss on the WiFi path";
          Spec.float "wifi_delay" d.Wireless.wifi_delay_ms
            "WiFi one-way propagation, ms";
          Spec.float "cell" d.Wireless.cell_mbps "cellular path rate, Mb/s";
          Spec.float "cell_delay" d.Wireless.cell_delay_ms
            "cellular one-way propagation, ms";
          algo_param d.Wireless.algo;
          duration_param d.Wireless.duration;
          warmup_param d.Wireless.warmup;
          seed_param;
        ];
    }

  let run b =
    Wireless.run
      {
        Wireless.wifi_mbps = Spec.get_float spec b "wifi";
        wifi_loss = Spec.get_float spec b "wifi_loss";
        wifi_delay_ms = Spec.get_float spec b "wifi_delay";
        cell_mbps = Spec.get_float spec b "cell";
        cell_delay_ms = Spec.get_float spec b "cell_delay";
        algo = Spec.get_string spec b "algo";
        duration = Spec.get_float spec b "duration";
        warmup = Spec.get_float spec b "warmup";
        seed = Spec.get_int spec b "seed";
      }
end

module Fattree_s : SCENARIO = struct
  let d = Fattree_static.default

  let spec =
    {
      Spec.name = "fattree";
      doc =
        "static FatTree permutation experiment: every host sends one \
         long-lived flow to a random distinct host (paper Fig. 13)";
      params =
        [
          Spec.int "k" d.Fattree_static.k
            "FatTree arity (even; k=8 gives 128 hosts)";
          Spec.float "rate" d.Fattree_static.rate_mbps
            "host link capacity, Mb/s";
          Spec.float "delay" d.Fattree_static.delay_ms
            "per-hop one-way latency, ms";
          Spec.int "subflows" d.Fattree_static.subflows
            "MPTCP subflows per connection (1 = plain TCP)";
          algo_param d.Fattree_static.algo;
          duration_param d.Fattree_static.duration;
          warmup_param d.Fattree_static.warmup;
          seed_param;
        ];
    }

  let run b =
    Fattree_static.run
      {
        Fattree_static.k = Spec.get_int spec b "k";
        rate_mbps = Spec.get_float spec b "rate";
        delay_ms = Spec.get_float spec b "delay";
        subflows = Spec.get_int spec b "subflows";
        algo = Spec.get_string spec b "algo";
        duration = Spec.get_float spec b "duration";
        warmup = Spec.get_float spec b "warmup";
        seed = Spec.get_int spec b "seed";
      }
end

module Fattree_dynamic_s : SCENARIO = struct
  let d = Fattree_dynamic.default

  let spec =
    {
      Spec.name = "fattree-dynamic";
      doc =
        "4:1 oversubscribed FatTree with continuous long flows and 70 kB \
         short flows (paper Fig. 14, Table III)";
      params =
        [
          Spec.int "k" d.Fattree_dynamic.k "FatTree arity";
          Spec.float "rate" d.Fattree_dynamic.rate_mbps
            "host link capacity, Mb/s";
          Spec.float "delay" d.Fattree_dynamic.delay_ms
            "per-hop one-way latency, ms";
          Spec.float "oversubscription" d.Fattree_dynamic.oversubscription
            "aggregation-to-core oversubscription factor";
          algo_param d.Fattree_dynamic.algo;
          Spec.int "subflows" d.Fattree_dynamic.subflows
            "subflows of the long flows";
          Spec.float "mean_interval" d.Fattree_dynamic.mean_interval
            "short-flow inter-arrival mean, seconds";
          duration_param d.Fattree_dynamic.duration;
          warmup_param d.Fattree_dynamic.warmup;
          seed_param;
        ];
    }

  let run b =
    Fattree_dynamic.run
      {
        Fattree_dynamic.k = Spec.get_int spec b "k";
        rate_mbps = Spec.get_float spec b "rate";
        delay_ms = Spec.get_float spec b "delay";
        oversubscription = Spec.get_float spec b "oversubscription";
        algo = Spec.get_string spec b "algo";
        subflows = Spec.get_int spec b "subflows";
        mean_interval = Spec.get_float spec b "mean_interval";
        duration = Spec.get_float spec b "duration";
        warmup = Spec.get_float spec b "warmup";
        seed = Spec.get_int spec b "seed";
      }
end

module Fattree_sharded_s : SCENARIO = struct
  let d = Fattree_sharded.default

  let spec =
    {
      Spec.name = "fattree-sharded";
      doc =
        "production-scale FatTree permutation experiment (k=8: 128 hosts, \
         1024 flows), runnable sharded pod-per-domain with conservative \
         lookahead (-p shards=N)";
      params =
        [
          Spec.int "k" d.Fattree_sharded.k
            "FatTree arity (even; k=8 gives 128 hosts)";
          Spec.int "shards" d.Fattree_sharded.shards
            "simulation shards (domains); must divide k; 1 = sequential";
          Spec.float "rate" d.Fattree_sharded.rate_mbps
            "host link capacity, Mb/s";
          Spec.float "delay" d.Fattree_sharded.delay_ms
            "per-hop one-way latency, ms (the shard lookahead)";
          Spec.int "subflows" d.Fattree_sharded.subflows
            "MPTCP subflows per connection (1 = plain TCP)";
          Spec.int "flows_per_host" d.Fattree_sharded.flows_per_host
            "long-lived permutation flows originating at each host";
          algo_param d.Fattree_sharded.algo;
          duration_param d.Fattree_sharded.duration;
          warmup_param d.Fattree_sharded.warmup;
          seed_param;
        ];
    }

  let run b =
    Fattree_sharded.outcome
      (Fattree_sharded.run
         {
           Fattree_sharded.k = Spec.get_int spec b "k";
           shards = Spec.get_int spec b "shards";
           rate_mbps = Spec.get_float spec b "rate";
           delay_ms = Spec.get_float spec b "delay";
           subflows = Spec.get_int spec b "subflows";
           flows_per_host = Spec.get_int spec b "flows_per_host";
           algo = Spec.get_string spec b "algo";
           duration = Spec.get_float spec b "duration";
           warmup = Spec.get_float spec b "warmup";
           seed = Spec.get_int spec b "seed";
         })
end

let all : (string * (module SCENARIO)) list =
  [
    ("scenario-a", (module Scenario_a));
    ("scenario-b", (module Scenario_b));
    ("scenario-c", (module Scenario_c));
    ("two-bottleneck", (module Two_bottleneck_s));
    ("responsiveness", (module Responsiveness_s));
    ("wireless", (module Wireless_s));
    ("fattree", (module Fattree_s));
    ("fattree-dynamic", (module Fattree_dynamic_s));
    ("fattree-sharded", (module Fattree_sharded_s));
  ]

let names = List.map fst all

let find name =
  match List.assoc_opt name all with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find: unknown scenario %S (valid: %s)" name
         (String.concat ", " names))
