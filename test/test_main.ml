let () =
  Alcotest.run "emma"
    (Test_value.suite @ Test_databag.suite @ Test_lang.suite @ Test_normalize.suite
   @ Test_fusion.suite @ Test_translate.suite @ Test_engine.suite @ Test_programs.suite @ Test_tpch.suite @ Test_util.suite @ Test_workloads.suite @ Test_costmodel.suite @ Test_physical.suite @ Test_endtoend.suite @ Test_prim.suite @ Test_plan_pdata.suite @ Test_antijoin.suite @ Test_csv.suite @ Test_aliases.suite @ Test_engine_edge.suite @ Test_faults.suite @ Test_types.suite @ Test_pretty.suite @ Test_eval_errors.suite @ Test_robustness.suite @ Test_pool.suite @ Test_parallel.suite @ Test_trace.suite @ Test_explain.suite
   @ Test_metrics.suite @ Test_memman.suite @ Test_cli_args.suite
   @ Test_compile.suite @ Test_config.suite @ Test_session.suite
   @ Test_serve.suite @ Test_sched.suite @ Test_serve_golden.suite @ Test_wal.suite @ Test_cost_golden.suite @ Test_alloc_golden.suite @ Test_keyed.suite @ Test_agg_by.suite)
