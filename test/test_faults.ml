(* The chaos subsystem's contract: for ANY fault plan — seeded, scripted,
   or the legacy cache_loss_at schedule — results are bit-identical to the
   fault-free run, at any domain count. Injected failures may only cost
   simulated time and move the clearly-scoped recovery counters.

   Covered here:
   - the legacy cache-loss channel (losing cached results mid-run);
   - scripted plans: task retries, job failure at the attempt bound,
     blacklisting, shuffle-fetch retries, stragglers ± speculation,
     executor loss with lineage recomputation;
   - seeded plans: differential vs native at 1/2/4 domains (qcheck),
     20× metrics determinism for a fixed seed;
   - loop checkpointing: PageRank and k-means resume from checkpoints
     with identical output;
   - Engine_timeout firing mid-recovery (a retry storm is aborted). *)

module Value = Emma_value.Value
module S = Emma_lang.Surface
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Faults = Emma_engine.Faults
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
module W = Emma_workloads
module Pr = Emma_programs
open Helpers

let loop_prog iters =
  S.program
    ~ret:(S.var "acc")
    [ S.s_let "xs" S.(map (lam "x" (fun x -> field x "a")) (read "t"));
      S.s_var "acc" (S.int_ 0);
      S.s_var "i" (S.int_ 0);
      S.while_
        S.(var "i" < int_ iters)
        [ S.assign "acc" S.(var "acc" + sum (var "xs"));
          S.assign "i" S.(var "i" + int_ 1) ] ]

let map_prog =
  S.program ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (read "t"))) []

(* group-then-fold fuses to an aggBy, whose reduce side shuffles *)
let group_prog =
  S.program
    ~ret:S.(count (var "d") + sum (map (lam "x" (fun x -> field x "a")) (var "d")))
    [ S.s_let "d"
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "t")) ]
            ~yield:
              (record
                 [ ( "a",
                     sum (map (lam "x" (fun x -> field x "a")) (field (var "g") "values"))
                   );
                   ("b", field (var "g") "key") ])) ]

let run_engine ?(faults = Faults.none) ?checkpoint_every ?timeout_s ?cluster ?pool
    ?(udf_mode = Engine.Compiled) prog tables =
  let cluster = match cluster with Some c -> c | None -> Cluster.laptop () in
  let ctx = ctx_with tables in
  let config =
    Config.(
      default |> with_faults faults |> with_checkpoint_every checkpoint_every
      |> with_timeout_s timeout_s |> with_pool pool |> with_udf_mode udf_mode)
  in
  let eng = Engine.create ~config ~cluster ~profile:Cluster.spark_like ctx in
  let v = Engine.run eng (Emma.parallelize prog).Emma.compiled in
  (v, Engine.metrics eng)

let run_with ?(cache_loss_at = []) prog tables =
  run_engine ~faults:(Faults.of_cache_loss_at cache_loss_at) prog tables

let tables = [ ("t", List.init 20 (fun i -> Helpers.row i (i mod 3))) ]

(* every cost-model field (wall_time_s / par_* describe the host run) *)
let cost_sig (m : Metrics.t) =
  ( ( m.Metrics.sim_time_s,
      m.Metrics.shuffle_bytes,
      m.Metrics.broadcast_bytes,
      m.Metrics.dfs_read_bytes,
      m.Metrics.dfs_write_bytes,
      m.Metrics.collect_bytes,
      m.Metrics.parallelize_bytes ),
    ( m.Metrics.spilled_bytes,
      m.Metrics.jobs,
      m.Metrics.stages,
      m.Metrics.recomputes,
      m.Metrics.cache_hits,
      m.Metrics.cache_losses,
      m.Metrics.udf_invocations ) )

let recovery_sig (m : Metrics.t) =
  ( ( m.Metrics.retries,
      m.Metrics.fetch_failures,
      m.Metrics.executor_losses,
      m.Metrics.blacklisted_nodes,
      m.Metrics.recomputed_partitions ),
    ( m.Metrics.speculative_launches,
      m.Metrics.speculative_wins,
      m.Metrics.checkpoints,
      m.Metrics.checkpoint_bytes,
      m.Metrics.loop_restores ) )

let zero_recovery = ((0, 0, 0, 0, 0), (0, 0, 0, 0.0, 0))

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------------------------------------------------------------- *)
(* Legacy cache-loss channel (the deprecated ?cache_loss_at API)      *)
(* ---------------------------------------------------------------- *)

let test_result_unchanged () =
  let clean, m_clean = run_with (loop_prog 5) tables in
  let faulty, m_faulty = run_with ~cache_loss_at:[ 2; 4 ] (loop_prog 5) tables in
  check_value "results identical under failures" clean faulty;
  Alcotest.(check int) "two losses recovered" 2 m_faulty.Emma.Metrics.cache_losses;
  Alcotest.(check int) "no losses in the clean run" 0 m_clean.Emma.Metrics.cache_losses

let test_recovery_costs_time () =
  let _, m_clean = run_with (loop_prog 5) tables in
  let _, m_faulty = run_with ~cache_loss_at:[ 1 ] (loop_prog 5) tables in
  Alcotest.(check bool) "recovery re-executes lineage" true
    (m_faulty.Emma.Metrics.recomputes > m_clean.Emma.Metrics.recomputes);
  Alcotest.(check bool) "recovery costs simulated time" true
    (m_faulty.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s)

let test_recovered_copy_is_reused () =
  (* after recovery the re-materialized cache serves later hits *)
  let _, m = run_with ~cache_loss_at:[ 1 ] (loop_prog 6) tables in
  Alcotest.(check bool) "later iterations hit the recovered cache" true
    (m.Emma.Metrics.cache_hits >= 4)

let test_every_hit_lost () =
  (* worst case: every single cache access fails — still correct *)
  let clean, _ = run_with (loop_prog 4) tables in
  let faulty, m = run_with ~cache_loss_at:(List.init 50 (fun i -> i + 1)) (loop_prog 4) tables in
  check_value "correct under total cache loss" clean faulty;
  Alcotest.(check int) "no surviving hits" 0 m.Emma.Metrics.cache_hits

let test_legacy_wrapper_is_a_plan () =
  (* Faults.of_cache_loss_at is a thin wrapper over scripted Cache_loss
     events: the wrapper and the hand-written plan behave identically *)
  let explicit = Faults.scripted [ Faults.Cache_loss 2; Faults.Cache_loss 4 ] in
  let v_plan, m_plan = run_engine ~faults:explicit (loop_prog 5) tables in
  let v_wrap, m_wrap = run_with ~cache_loss_at:[ 2; 4 ] (loop_prog 5) tables in
  check_value "same result" v_wrap v_plan;
  Alcotest.(check bool) "same cost metrics" true (cost_sig m_wrap = cost_sig m_plan);
  Alcotest.(check bool) "same recovery metrics" true
    (recovery_sig m_wrap = recovery_sig m_plan)

let prop_faults_never_change_results =
  Helpers.qcheck_case "random fault schedules never change results" ~count:40
    QCheck2.Gen.(pair Helpers.rows_gen (list_size (int_bound 6) (int_range 1 10)))
    (fun (rows, losses) ->
      let prog = loop_prog 3 in
      let tables = [ ("t", rows) ] in
      let clean, _ = run_with prog tables in
      let faulty, _ = run_with ~cache_loss_at:losses prog tables in
      Value.equal clean faulty)

(* ---------------------------------------------------------------- *)
(* Empty plans are inert                                              *)
(* ---------------------------------------------------------------- *)

let test_empty_plans_inert () =
  let clean, m_clean = run_engine (loop_prog 5) tables in
  Alcotest.(check bool) "clean run touches no recovery counter" true
    (recovery_sig m_clean = zero_recovery);
  List.iter
    (fun (name, faults) ->
      let v, m = run_engine ~faults (loop_prog 5) tables in
      check_value (name ^ ": same result") clean v;
      Alcotest.(check bool) (name ^ ": same cost metrics") true
        (cost_sig m_clean = cost_sig m);
      Alcotest.(check bool) (name ^ ": no recovery activity") true
        (recovery_sig m = zero_recovery))
    [ ("none", Faults.none);
      ("zero rates", Faults.seeded ~rates:Faults.zero_rates 123);
      ("empty script", Faults.scripted []) ]

(* ---------------------------------------------------------------- *)
(* Scripted plans: each channel, surgically                           *)
(* ---------------------------------------------------------------- *)

let test_scripted_task_retries () =
  let clean, m_clean = run_engine map_prog tables in
  let faults =
    Faults.scripted [ Faults.Task_fail { barrier = 1; part = 0; attempts = 2 } ]
  in
  let v, m = run_engine ~faults map_prog tables in
  check_value "result survives two failed attempts" clean v;
  Alcotest.(check int) "both failures counted as retries" 2 m.Emma.Metrics.retries;
  Alcotest.(check bool) "backoff charged to the clock" true
    (m.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s)

let test_scripted_attempts_exhausted_fails_job () =
  (* scripted counts are not capped: reaching max_task_attempts (4) is an
     unrecoverable job failure, exactly like Spark's task.maxFailures *)
  let faults =
    Faults.scripted [ Faults.Task_fail { barrier = 1; part = 0; attempts = 4 } ]
  in
  match run_engine ~faults map_prog tables with
  | _ -> Alcotest.fail "job should have failed at the attempt bound"
  | exception Engine.Engine_failure _ -> ()

let test_blacklisting () =
  (* laptop = 4 nodes; attempt [a] of partition [p] is placed on node
     (p + a) mod 4, and blacklist_after = 3. These single-attempt failures
     all land on node 0, so the third blacklists it — and the fourth event
     is suppressed because the scheduler no longer places tasks there. *)
  let clean, _ = run_engine (loop_prog 3) tables in
  let faults =
    Faults.scripted
      [ Faults.Task_fail { barrier = 1; part = 0; attempts = 1 };
        Faults.Task_fail { barrier = 1; part = 4; attempts = 1 };
        Faults.Task_fail { barrier = 2; part = 0; attempts = 1 };
        Faults.Task_fail { barrier = 3; part = 0; attempts = 1 } ]
  in
  let v, m = run_engine ~faults (loop_prog 3) tables in
  check_value "result unchanged" clean v;
  Alcotest.(check int) "node 0 blacklisted" 1 m.Emma.Metrics.blacklisted_nodes;
  Alcotest.(check int) "post-blacklist failure suppressed" 3 m.Emma.Metrics.retries

let test_scripted_fetch_failures () =
  let clean, m_clean = run_engine group_prog tables in
  let faults =
    Faults.scripted [ Faults.Fetch_fail { shuffle = 1; part = 0; times = 3 } ]
  in
  let v, m = run_engine ~faults group_prog tables in
  check_value "aggregation survives lost chunks" clean v;
  Alcotest.(check int) "three re-fetches" 3 m.Emma.Metrics.fetch_failures;
  Alcotest.(check bool) "re-fetch charged to the clock" true
    (m.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s)

let test_straggler_speculation () =
  let clean, m_clean = run_engine map_prog tables in
  let faults =
    Faults.scripted [ Faults.Straggle { stage = 1; part = 0; slowdown = 6.0 } ]
  in
  let v, m = run_engine ~faults map_prog tables in
  check_value "straggler does not change the result" clean v;
  Alcotest.(check int) "speculative copy launched" 1 m.Emma.Metrics.speculative_launches;
  Alcotest.(check int) "copy finished first" 1 m.Emma.Metrics.speculative_wins;
  Alcotest.(check bool) "stage stretched by the straggler" true
    (m.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s);
  (* without speculation the barrier waits for the full 6× task *)
  let no_spec =
    let l = Cluster.laptop () in
    { l with Cluster.recovery = { l.Cluster.recovery with Cluster.speculate = false } }
  in
  let v', m' = run_engine ~cluster:no_spec ~faults map_prog tables in
  check_value "still correct without speculation" clean v';
  Alcotest.(check int) "no copies launched" 0 m'.Emma.Metrics.speculative_launches;
  Alcotest.(check bool) "speculation caps the slowdown at 2x" true
    (m'.Emma.Metrics.sim_time_s > m.Emma.Metrics.sim_time_s)

let test_scripted_executor_loss () =
  let clean, m_clean = run_engine (loop_prog 5) tables in
  let faults = Faults.scripted [ Faults.Exec_loss { barrier = 3; node = 0 } ] in
  let v, m = run_engine ~faults (loop_prog 5) tables in
  check_value "loop result survives the node death" clean v;
  Alcotest.(check int) "one executor lost" 1 m.Emma.Metrics.executor_losses;
  Alcotest.(check bool) "its cached partitions were recovered via lineage" true
    (m.Emma.Metrics.cache_losses > m_clean.Emma.Metrics.cache_losses
    && m.Emma.Metrics.recomputed_partitions > 0);
  Alcotest.(check bool) "recovery costs simulated time" true
    (m.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s)

(* ---------------------------------------------------------------- *)
(* Seeded plans: differential vs native, deterministic metrics        *)
(* ---------------------------------------------------------------- *)

let prop_seeded_differential =
  qcheck_case
    "random pipelines x seeded fault plans at 1/2/4 domains = native" ~count:15
    QCheck2.Gen.(
      triple Helpers.terminated_pipeline_gen Helpers.rows_gen (int_bound 9999))
    (fun (e, rows, seed) ->
      let prog = S.program ~ret:e [] in
      let tables = [ ("rows", rows) ] in
      let faults = Faults.seeded seed in
      let native, _ = Emma.run_native (Emma.parallelize prog) ~tables in
      let runs =
        List.map
          (fun domains ->
            with_pool domains (fun pool -> run_engine ~faults ~pool prog tables))
          [ 1; 2; 4 ]
      in
      let v1, m1 = List.hd runs in
      Value.equal native v1
      && List.for_all
           (fun (v, m) ->
             Value.equal v1 v
             && cost_sig m1 = cost_sig m
             && recovery_sig m1 = recovery_sig m)
           runs)

let test_seeded_metrics_deterministic () =
  (* a fixed seed is a fixed plan: 20 repeated runs under 4 domains carry
     byte-identical cost AND recovery metrics, equal to the sequential run *)
  let faults = Faults.seeded 42 in
  let render (v, m) =
    (Format.asprintf "%a" Value.pp v, cost_sig m, recovery_sig m)
  in
  let reference =
    with_pool 1 (fun pool -> render (run_engine ~faults ~pool (loop_prog 4) tables))
  in
  with_pool 4 (fun pool ->
      for i = 1 to 20 do
        let got = render (run_engine ~faults ~pool (loop_prog 4) tables) in
        if got <> reference then
          Alcotest.failf "seeded run %d under 4 domains differs from sequential" i
      done)

let test_seeded_plan_actually_injects () =
  (* guards the differential suite against vacuity: the default rates do
     inject on this workload *)
  let faults = Faults.seeded 42 in
  let clean, m_clean = run_engine (loop_prog 4) tables in
  let v, m = run_engine ~faults (loop_prog 4) tables in
  check_value "seeded chaos never changes the result" clean v;
  Alcotest.(check bool) "some faults injected" true (recovery_sig m <> zero_recovery);
  Alcotest.(check bool) "chaos costs simulated time" true
    (m.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s)

(* ---------------------------------------------------------------- *)
(* Loop checkpointing: resume with identical output                   *)
(* ---------------------------------------------------------------- *)

let pagerank_setup () =
  let cfg = W.Graph_gen.default ~n_vertices:60 in
  ( Pr.Pagerank.program (Pr.Pagerank.default_params ~n_pages:60),
    [ ("vertices", W.Graph_gen.adjacency ~seed:3 cfg) ] )

let test_pagerank_checkpoint_resume () =
  let prog, tables = pagerank_setup () in
  let clean, m_clean = run_engine prog tables in
  Alcotest.(check int) "no checkpoints without the option" 0
    m_clean.Emma.Metrics.checkpoints;
  (* two driver losses mid-iteration; StatefulBag ranks restored from the
     every-2-iterations checkpoint *)
  let faults = Faults.scripted [ Faults.Loop_loss 3; Faults.Loop_loss 6 ] in
  let v, m = run_engine ~faults ~checkpoint_every:2 prog tables in
  check_value "ranks identical after two restores" clean v;
  Alcotest.(check int) "two restores" 2 m.Emma.Metrics.loop_restores;
  Alcotest.(check bool) "checkpoints were written" true (m.Emma.Metrics.checkpoints > 0);
  Alcotest.(check bool) "checkpoint bytes accounted" true
    (m.Emma.Metrics.checkpoint_bytes > 0.0);
  Alcotest.(check bool) "checkpoint + restore cost simulated time" true
    (m.Emma.Metrics.sim_time_s > m_clean.Emma.Metrics.sim_time_s);
  (* with checkpointing off the loop restarts from its entry snapshot —
     slower, but still bit-identical *)
  let v', m' = run_engine ~faults prog tables in
  check_value "ranks identical after entry restarts" clean v';
  Alcotest.(check int) "no checkpoints written" 0 m'.Emma.Metrics.checkpoints;
  Alcotest.(check int) "restores still honoured" 2 m'.Emma.Metrics.loop_restores

let test_corrupt_checkpoint_skipped () =
  (* every checkpoint record carries a CRC32; a corrupted record is
     detected on restore, counted, and skipped in favour of the previous
     good one. Checkpoints at iterations 2 and 4; the loss hits at 5 with
     the iteration-4 record corrupted, so recovery restarts from 2. *)
  let prog, tables = pagerank_setup () in
  let clean, _ = run_engine prog tables in
  let v, m =
    run_engine
      ~faults:(Faults.scripted [ Faults.Ckpt_corrupt 2; Faults.Loop_loss 5 ])
      ~checkpoint_every:2 prog tables
  in
  check_value "identical result despite the corrupted checkpoint" clean v;
  Alcotest.(check int) "corruption detected once" 1
    m.Emma.Metrics.checkpoint_corruptions;
  Alcotest.(check int) "one restore" 1 m.Emma.Metrics.loop_restores;
  (* falling back to an older checkpoint replays more iterations than
     the same loss with the newest checkpoint intact *)
  let v', m' =
    run_engine
      ~faults:(Faults.scripted [ Faults.Loop_loss 5 ])
      ~checkpoint_every:2 prog tables
  in
  check_value "reference recovery agrees" clean v';
  Alcotest.(check int) "no corruption without the injection" 0
    m'.Emma.Metrics.checkpoint_corruptions;
  Alcotest.(check bool) "the older restart replays more work" true
    (m.Emma.Metrics.sim_time_s > m'.Emma.Metrics.sim_time_s)

let test_all_checkpoints_corrupt_falls_back_to_entry () =
  (* with every written checkpoint corrupted, recovery walks the whole
     chain and lands on the loop-entry snapshot (which never leaves the
     driver, so it cannot corrupt) — still bit-identical *)
  let prog, tables = pagerank_setup () in
  let clean, _ = run_engine prog tables in
  let v, m =
    run_engine
      ~faults:
        (Faults.scripted
           [ Faults.Ckpt_corrupt 1; Faults.Ckpt_corrupt 2; Faults.Loop_loss 5 ])
      ~checkpoint_every:2 prog tables
  in
  check_value "entry-snapshot fallback is correct" clean v;
  Alcotest.(check int) "both written checkpoints rejected" 2
    m.Emma.Metrics.checkpoint_corruptions;
  Alcotest.(check int) "one restore" 1 m.Emma.Metrics.loop_restores

let test_unread_corruption_is_harmless () =
  (* a corrupted checkpoint that is never restored from costs nothing
     and is never counted — detection happens on read, like a real DFS *)
  let prog, tables = pagerank_setup () in
  let clean, m_clean = run_engine ~checkpoint_every:2 prog tables in
  let v, m =
    run_engine
      ~faults:(Faults.scripted [ Faults.Ckpt_corrupt 1 ])
      ~checkpoint_every:2 prog tables
  in
  check_value "same result" clean v;
  Alcotest.(check int) "nothing detected" 0 m.Emma.Metrics.checkpoint_corruptions;
  Alcotest.(check bool) "cost metrics identical" true (cost_sig m = cost_sig m_clean)

let test_kmeans_checkpoint_resume () =
  let cfg = W.Points_gen.default ~n_points:200 ~k:3 in
  let tables =
    [ ("points", W.Points_gen.points ~seed:2 cfg);
      ("centroids0", W.Points_gen.initial_centroids ~seed:2 cfg) ]
  in
  let prog = Pr.Kmeans.program Pr.Kmeans.default_params in
  let clean, _ = run_engine prog tables in
  let faults = Faults.scripted [ Faults.Loop_loss 1 ] in
  let v, m = run_engine ~faults ~checkpoint_every:1 prog tables in
  check_value "centroids identical after a restore" clean v;
  Alcotest.(check int) "one restore" 1 m.Emma.Metrics.loop_restores;
  Alcotest.(check bool) "checkpointed every iteration" true
    (m.Emma.Metrics.checkpoints >= 1)

let test_seeded_loop_loss_bounded () =
  (* loss rate 1.0: every boundary wants to kill the driver; the restart
     cap guarantees progress and the result is still exact *)
  let prog, tables = pagerank_setup () in
  let clean, _ = run_engine prog tables in
  let faults =
    Faults.seeded ~rates:{ Faults.zero_rates with Faults.loop_loss = 1.0 } 5
  in
  let v, m = run_engine ~faults ~checkpoint_every:1 prog tables in
  check_value "exact under loss rate 1.0" clean v;
  Alcotest.(check bool) "restarts honoured up to the cap" true
    (m.Emma.Metrics.loop_restores >= 1
    && m.Emma.Metrics.loop_restores
       <= (Cluster.laptop ()).Cluster.recovery.Cluster.max_loop_restarts)

(* ---------------------------------------------------------------- *)
(* Staged UDFs under failure                                           *)
(* ---------------------------------------------------------------- *)

(* Recovery re-invokes UDFs: lineage recomputation and checkpoint resume
   replay the staged closures. The `--udf-mode` knob must be invisible to
   the fault model — same values and byte-identical cost AND recovery
   counters in both modes, whatever the chaos plan. *)

let check_mode_parity_under name ?checkpoint_every ~faults prog tables =
  let vi, mi =
    run_engine ~faults ?checkpoint_every ~udf_mode:Engine.Interp prog tables
  in
  let vc, mc =
    run_engine ~faults ?checkpoint_every ~udf_mode:Engine.Compiled prog tables
  in
  check_value (name ^ ": same value") vi vc;
  Alcotest.(check bool) (name ^ ": cost metrics bit-identical") true
    (cost_sig mi = cost_sig mc);
  Alcotest.(check bool) (name ^ ": recovery metrics bit-identical") true
    (recovery_sig mi = recovery_sig mc)

let test_compiled_udfs_under_seeded_chaos () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun seed ->
          check_mode_parity_under
            (Printf.sprintf "%s/seed %d" name seed)
            ~faults:(Faults.seeded seed) prog tables)
        [ 7; 42 ])
    [ ("loop", loop_prog 4); ("map", map_prog); ("group", group_prog) ]

let test_compiled_lineage_recompute () =
  (* executor loss drops cached partitions; they are rebuilt by re-running
     the staged closures over their lineage *)
  let faults = Faults.scripted [ Faults.Exec_loss { barrier = 3; node = 0 } ] in
  check_mode_parity_under "executor loss" ~faults (loop_prog 5) tables;
  let clean, _ = run_engine (loop_prog 5) tables in
  let v, m = run_engine ~faults ~udf_mode:Engine.Compiled (loop_prog 5) tables in
  check_value "compiled recomputation is exact" clean v;
  Alcotest.(check bool) "recomputation actually ran" true
    (m.Emma.Metrics.recomputed_partitions > 0)

let test_compiled_checkpoint_resume () =
  (* driver losses mid-loop: the StatefulBag ranks are restored from a
     checkpoint and the remaining iterations replay through the compiled
     closures *)
  let prog, pr_tables = pagerank_setup () in
  let faults = Faults.scripted [ Faults.Loop_loss 3; Faults.Loop_loss 6 ] in
  check_mode_parity_under "pagerank resume" ~checkpoint_every:2 ~faults prog
    pr_tables;
  let clean, _ = run_engine prog pr_tables in
  let v, m =
    run_engine ~faults ~checkpoint_every:2 ~udf_mode:Engine.Compiled prog pr_tables
  in
  check_value "compiled resume is exact" clean v;
  Alcotest.(check int) "both restores honoured" 2 m.Emma.Metrics.loop_restores

(* ---------------------------------------------------------------- *)
(* Engine_timeout fires mid-recovery                                   *)
(* ---------------------------------------------------------------- *)

let test_timeout_aborts_retry_storm () =
  (* recovery charges flow through the same clock the timeout watches, so
     a retry storm that would blow past the deadline is aborted instead of
     silently retried to completion *)
  let slow_retries =
    let l = Cluster.laptop () in
    { l with
      Cluster.recovery = { l.Cluster.recovery with Cluster.retry_backoff_s = 30.0 } }
  in
  let storm =
    Faults.scripted
      (List.init 8 (fun part -> Faults.Task_fail { barrier = 1; part; attempts = 3 }))
  in
  let clean, m_clean = run_engine ~cluster:slow_retries (loop_prog 3) tables in
  let deadline = m_clean.Emma.Metrics.sim_time_s +. 10.0 in
  (* sanity: the deadline is generous for a fault-free run... *)
  let v, _ = run_engine ~cluster:slow_retries ~timeout_s:deadline (loop_prog 3) tables in
  check_value "clean run fits the deadline" clean v;
  (* ...and the storm itself is recoverable when there is no deadline *)
  let v', m' = run_engine ~cluster:slow_retries ~faults:storm (loop_prog 3) tables in
  check_value "storm recovers without a deadline" clean v';
  Alcotest.(check bool) "storm charged real backoff" true
    (m'.Emma.Metrics.sim_time_s > deadline);
  match
    run_engine ~cluster:slow_retries ~faults:storm ~timeout_s:deadline (loop_prog 3)
      tables
  with
  | _ -> Alcotest.fail "retry storm should have hit the timeout"
  | exception Engine.Engine_timeout at ->
      Alcotest.(check bool) "aborted past the deadline, mid-recovery" true
        (at >= deadline)

let suite =
  [ ( "fault_injection",
      [ Alcotest.test_case "results unchanged" `Quick test_result_unchanged;
        Alcotest.test_case "recovery costs time" `Quick test_recovery_costs_time;
        Alcotest.test_case "recovered copy reused" `Quick test_recovered_copy_is_reused;
        Alcotest.test_case "total cache loss" `Quick test_every_hit_lost;
        Alcotest.test_case "cache_loss_at = scripted plan" `Quick
          test_legacy_wrapper_is_a_plan;
        prop_faults_never_change_results;
        Alcotest.test_case "empty plans are inert" `Quick test_empty_plans_inert ] );
    ( "fault_injection_scripted",
      [ Alcotest.test_case "task retries" `Quick test_scripted_task_retries;
        Alcotest.test_case "attempt bound fails the job" `Quick
          test_scripted_attempts_exhausted_fails_job;
        Alcotest.test_case "blacklisting" `Quick test_blacklisting;
        Alcotest.test_case "shuffle-fetch retries" `Quick test_scripted_fetch_failures;
        Alcotest.test_case "stragglers and speculation" `Quick
          test_straggler_speculation;
        Alcotest.test_case "executor loss recovers via lineage" `Quick
          test_scripted_executor_loss ] );
    ( "fault_injection_seeded",
      [ prop_seeded_differential;
        Alcotest.test_case "20x deterministic metrics for a fixed seed" `Quick
          test_seeded_metrics_deterministic;
        Alcotest.test_case "seeded plan actually injects" `Quick
          test_seeded_plan_actually_injects ] );
    ( "loop_checkpointing",
      [ Alcotest.test_case "pagerank resumes from checkpoints" `Quick
          test_pagerank_checkpoint_resume;
        Alcotest.test_case "corrupt checkpoint detected and skipped" `Quick
          test_corrupt_checkpoint_skipped;
        Alcotest.test_case "all-corrupt falls back to loop entry" `Quick
          test_all_checkpoints_corrupt_falls_back_to_entry;
        Alcotest.test_case "unread corruption is harmless" `Quick
          test_unread_corruption_is_harmless;
        Alcotest.test_case "kmeans resumes from a checkpoint" `Quick
          test_kmeans_checkpoint_resume;
        Alcotest.test_case "loss rate 1.0 stays bounded" `Quick
          test_seeded_loop_loss_bounded;
        Alcotest.test_case "timeout aborts a retry storm" `Quick
          test_timeout_aborts_retry_storm ] );
    ( "fault_injection_udf_modes",
      [ Alcotest.test_case "seeded chaos: interp = compiled" `Quick
          test_compiled_udfs_under_seeded_chaos;
        Alcotest.test_case "lineage recompute: interp = compiled" `Quick
          test_compiled_lineage_recompute;
        Alcotest.test_case "checkpoint resume: interp = compiled" `Quick
          test_compiled_checkpoint_resume ] ) ]
