let () =
  Alcotest.run "mptcp_repro"
    [
      ("stats", Test_stats.suite);
      ("fluid", Test_fluid.suite);
      ("equilibrium", Test_equilibrium.suite);
      ("cc", Test_cc.suite);
      ("fixedpoint", Test_fixedpoint.suite);
      ("netsim", Test_netsim.suite);
      ("timer", Test_timer.suite);
      ("tcp", Test_tcp.suite);
      ("topology", Test_topology.suite);
      ("shard", Test_shard.suite);
      ("scenarios", Test_scenarios.suite);
      ("exp", Test_exp.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("infra", Test_infra.suite);
      ("failure", Test_failure.suite);
      ("common", Test_common.suite);
      ("lint", Test_lint.suite);
      ("obs", Test_obs.suite);
      ("check", Test_check.suite);
      ("invariants", Test_netsim.last_suite);
    ]
