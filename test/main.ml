let () =
  Alcotest.run "olp"
    [ ("logic", Test_logic.suite);
      ("lang", Test_lang.suite);
      ("ground", Test_ground.suite);
      ("datalog", Test_datalog.suite);
      ("ordered", Test_ordered.suite);
      ("diff-poset", Test_diff_poset.suite);
      ("diff-print", Test_diff_print.suite);
      ("paper", Test_paper.suite);
      ("stable", Test_stable.suite);
      ("bridge", Test_bridge.suite);
      ("negative", Test_negative.suite);
      ("kb", Test_kb.suite);
      ("explain", Test_explain.suite);
      ("properties", Test_props.suite);
      ("diff-stable", Test_diff_stable.suite);
      ("prefer", Test_prefer.suite);
      ("diff-prefer", Test_diff_prefer.suite);
      ("golden", Test_golden.suite);
      ("deviations", Test_deviations.suite);
      ("query", Test_query.suite);
      ("analysis", Test_analysis.suite);
      ("stress", Test_stress.suite);
      ("diff-inc", Test_diff_inc.suite);
      ("diff-ground", Test_diff_ground.suite);
      ("edb", Test_edb.suite);
      ("budget", Test_budget.suite);
      ("fuzz", Test_fuzz.suite);
      ("proto", Test_proto.suite);
      ("session", Test_session.suite);
      ("server", Test_server.suite);
      ("persist", Test_persist.suite);
      ("replica", Test_replica.suite);
      ("crash", Test_crash.suite);
      ("parallel", Test_parallel.suite);
      ("linearize", Test_linearize.suite)
    ]
