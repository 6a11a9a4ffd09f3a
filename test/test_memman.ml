(* Memory governance contract (Memman + its Exec integration):

   - observe-only: with no budget set (or an ample one) the engine is
     bit-identical to a world without the subsystem — every cost-model
     field, not just the result;
   - spill-to-disk: under ANY positive budget with spilling on, results
     and all non-time, non-memory counters match the unbounded run;
     only sim_time_s and the mem_* channels move (qcheck, 1/2/4 domains);
   - OOM-kill ladder: spilling off, a budget below the peak kills and
     retries at halved parallelism while a node can still hold the
     state, and fails cleanly once it cannot;
   - LRU cache eviction: a cache budget too small for the working set
     evicts and recomputes through lineage, deterministically;
   - eviction vs faults: an injected cache loss during eviction activity
     recomputes the lost bag exactly once (the registry is consistent);
   - admission control: --max-inflight queues submissions and charges
     the wait, changing nothing but time and the queue counters;
   - the chaos OOM channel (scripted and seeded) only costs time. *)

module Value = Emma_value.Value
module S = Emma_lang.Surface
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Faults = Emma_engine.Faults
module Memman = Emma_engine.Memman
module Config = Emma_engine.Config
module Pipeline = Emma_compiler.Pipeline
module Pool = Emma_util.Pool
open Helpers

(* ---------------------------------------------------------------- *)
(* Harness                                                            *)
(* ---------------------------------------------------------------- *)

let run_engine ?(faults = Faults.none) ?mem_budget ?(spill = false) ?max_inflight
    ?opts ?pool prog tables =
  let ctx = ctx_with tables in
  let config =
    Config.(
      default |> with_faults faults |> with_mem_budget mem_budget
      |> with_spill spill |> with_max_inflight max_inflight |> with_pool pool)
  in
  let eng =
    Engine.create ~config ~cluster:(Cluster.laptop ()) ~profile:Cluster.spark_like ctx
  in
  let v = Engine.run eng (Emma.parallelize ?opts prog).Emma.compiled in
  (v, Engine.metrics eng)

let tables = [ ("t", List.init 20 (fun i -> Helpers.row i (i mod 3))) ]

(* group-then-fold fuses to an aggBy whose combined state is reserved *)
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

(* two Mem-cached bags read every iteration — the LRU working set *)
let two_bag_loop iters =
  S.program
    ~ret:(S.var "acc")
    [ S.s_let "xs" S.(map (lam "x" (fun x -> field x "a")) (read "t"));
      S.s_let "ys" S.(map (lam "x" (fun x -> field x "a" + int_ 1)) (read "t"));
      S.s_var "acc" (S.int_ 0);
      S.s_var "i" (S.int_ 0);
      S.while_
        S.(var "i" < int_ iters)
        [ S.assign "acc" S.(var "acc" + sum (var "xs") + sum (var "ys"));
          S.assign "i" S.(var "i" + int_ 1) ] ]

(* caching off: no LRU registry traffic, so under a spill budget every
   counter except sim_time_s and the mem_* channels must be untouched *)
let no_cache = { Pipeline.default_opts with Pipeline.cache = false }

(* logical bytes of one cached bag of two_bag_loop at laptop scale 1:
   20 ints, as the registry accounts them *)
let bag_bytes =
  List.fold_left
    (fun acc i -> acc +. float_of_int (Value.byte_size (Value.Int i)))
    0.0
    (List.init 20 (fun i -> i))

(* laptop cluster shape the budgets below are written against *)
let slots_per_node = 2
let dop = 8

(* every cost-model field except sim_time_s and wall_time_s *)
let invariant_sig (m : Metrics.t) =
  ( ( m.Metrics.shuffle_bytes,
      m.Metrics.broadcast_bytes,
      m.Metrics.dfs_read_bytes,
      m.Metrics.dfs_write_bytes,
      m.Metrics.collect_bytes,
      m.Metrics.parallelize_bytes,
      m.Metrics.spilled_bytes ),
    ( m.Metrics.jobs,
      m.Metrics.stages,
      m.Metrics.recomputes,
      m.Metrics.cache_hits,
      m.Metrics.cache_losses,
      m.Metrics.udf_invocations ),
    ( m.Metrics.retries,
      m.Metrics.fetch_failures,
      m.Metrics.executor_losses,
      m.Metrics.blacklisted_nodes,
      m.Metrics.recomputed_partitions,
      m.Metrics.checkpoints,
      m.Metrics.loop_restores ) )

let mem_sig (m : Metrics.t) =
  ( ( m.Metrics.mem_peak_bytes,
      m.Metrics.mem_spills,
      m.Metrics.mem_spill_bytes,
      m.Metrics.oom_kills ),
    ( m.Metrics.cache_evictions,
      m.Metrics.evicted_bytes,
      m.Metrics.jobs_queued,
      m.Metrics.queue_wait_s,
      m.Metrics.checkpoint_corruptions ) )

(* everything the cost model produces (wall_time_s measures the host) *)
let full_sig m = (m.Metrics.sim_time_s, invariant_sig m, mem_sig m)

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------------------------------------------------------------- *)
(* Memman unit tests                                                  *)
(* ---------------------------------------------------------------- *)

let mk ?budget ?spill ?max_inflight () =
  Memman.create ?budget ?spill ?max_inflight ~slots_per_node:2 ~dop:8 ()

let test_create_validates () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "budget 0 rejected" true (invalid (fun () -> mk ~budget:0.0 ()));
  Alcotest.(check bool) "negative budget rejected" true
    (invalid (fun () -> mk ~budget:(-1.0) ()));
  Alcotest.(check bool) "max_inflight 0 rejected" true
    (invalid (fun () -> mk ~max_inflight:0 ()));
  Alcotest.(check bool) "unbounded accountant is not governed" false
    (Memman.governed (mk ()))

let test_reserve_verdicts () =
  (* unbounded: always Fits, but the peak is still tracked *)
  let t = mk () in
  Alcotest.(check bool) "unbounded fits" true
    (Memman.reserve t ~needs:[| 1e12; 3.0 |] = Memman.Fits);
  Alcotest.(check (float 0.0)) "peak tracked" 1e12 (Memman.peak t);
  (* budget 10, slots_per_node 2 → a node holds at most 20 *)
  let t = mk ~budget:10.0 () in
  Alcotest.(check bool) "under budget fits" true
    (Memman.reserve t ~needs:[| 9.0; 10.0 |] = Memman.Fits);
  Alcotest.(check bool) "one halving suffices" true
    (Memman.reserve t ~needs:[| 15.0; 5.0 |] = Memman.Kill { attempts = 1 });
  Alcotest.(check bool) "past node memory is fatal" true
    (Memman.reserve t ~needs:[| 25.0; 5.0 |] = Memman.Fatal);
  Alcotest.(check (float 0.0)) "peak is the largest slot" 25.0 (Memman.peak t);
  (* same overflow with spilling on: one slot over by 15 *)
  let t = mk ~budget:10.0 ~spill:true () in
  Alcotest.(check bool) "overflow spills instead" true
    (Memman.reserve t ~needs:[| 25.0; 5.0 |]
    = Memman.Spill { slots = 1; bytes = 15.0 })

let test_lru_registry () =
  (* budget 10 × dop 8 → cache capacity 80 *)
  let t = mk ~budget:10.0 () in
  let evicted = ref [] in
  let reg name bytes =
    Memman.register t ~bytes ~evict:(fun () -> evicted := name :: !evicted)
  in
  let a = reg "a" 30.0 in
  let b = reg "b" 30.0 in
  Alcotest.(check bool) "a admitted" true (a.Memman.admitted <> None);
  Alcotest.(check bool) "b admitted" true (b.Memman.admitted <> None);
  Alcotest.(check (float 0.0)) "both resident" 60.0 (Memman.cached_bytes t);
  (* touch a, then admit c: b is now the least recently used *)
  Option.iter (Memman.touch t) a.Memman.admitted;
  let c = reg "c" 30.0 in
  Alcotest.(check (list string)) "LRU victim is b" [ "b" ] !evicted;
  Alcotest.(check bool) "eviction sizes reported" true (c.Memman.evicted = [ 30.0 ]);
  (* forget drops without the evict callback (the loss already did it) *)
  Option.iter (Memman.forget t) a.Memman.admitted;
  Alcotest.(check (float 0.0)) "forgotten bytes released" 30.0 (Memman.cached_bytes t);
  Alcotest.(check (list string)) "forget never calls evict" [ "b" ] !evicted;
  (* a bag bigger than the whole capacity is not cached at all *)
  let big = reg "big" 100.0 in
  Alcotest.(check bool) "oversized bag rejected" true (big.Memman.admitted = None);
  (* ungoverned: the registry is inert *)
  let u = Memman.register (mk ()) ~bytes:1e9 ~evict:(fun () -> assert false) in
  Alcotest.(check bool) "ungoverned registry is inert" true (u.Memman.admitted = None)

let test_admission_gate () =
  let t = mk ~max_inflight:1 () in
  Alcotest.(check (float 0.0)) "first job admitted free" 0.0
    (Memman.admit_job t ~now:0.0);
  Memman.job_done t ~release:5.0;
  Alcotest.(check (float 0.0)) "second waits for the release" 4.0
    (Memman.admit_job t ~now:1.0);
  Memman.job_done t ~release:9.0;
  Alcotest.(check (float 0.0)) "a free slot costs nothing" 0.0
    (Memman.admit_job t ~now:20.0);
  Memman.job_done t ~release:21.0;
  let u = mk () in
  Alcotest.(check (float 0.0)) "no gate when off" 0.0 (Memman.admit_job u ~now:0.0)

(* ---------------------------------------------------------------- *)
(* Observe-only and ample budgets: bit-identical engine behaviour     *)
(* ---------------------------------------------------------------- *)

let test_ample_budget_identity () =
  let base_v, base_m = run_engine group_prog tables in
  Alcotest.(check bool) "peak observed even unbounded" true
    (base_m.Metrics.mem_peak_bytes > 0.0);
  List.iter
    (fun (name, mem_budget, spill) ->
      let v, m = run_engine ~mem_budget ~spill group_prog tables in
      check_value (name ^ ": same result") base_v v;
      Alcotest.(check bool) (name ^ ": every cost-model field identical") true
        (full_sig m = full_sig base_m))
    [ ("ample budget", 1e12, false);
      ("ample budget + spill", 1e12, true);
      (* the documented spill-off minimum: budget = the unbounded peak *)
      ("budget = peak", base_m.Metrics.mem_peak_bytes, false) ]

(* ---------------------------------------------------------------- *)
(* Spill-to-disk                                                      *)
(* ---------------------------------------------------------------- *)

let test_spill_only_moves_time_and_mem () =
  let base_v, base_m = run_engine ~opts:no_cache group_prog tables in
  let v, m = run_engine ~opts:no_cache ~mem_budget:1.0 ~spill:true group_prog tables in
  check_value "result identical under a 1-byte budget" base_v v;
  Alcotest.(check bool) "it actually spilled" true (m.Metrics.mem_spills > 0);
  Alcotest.(check bool) "spilled bytes counted" true (m.Metrics.mem_spill_bytes > 0.0);
  Alcotest.(check bool) "spilling costs simulated time" true
    (m.Metrics.sim_time_s > base_m.Metrics.sim_time_s);
  Alcotest.(check bool) "all other counters untouched" true
    (invariant_sig m = invariant_sig base_m);
  Alcotest.(check (float 0.0)) "same reservations, same peak"
    base_m.Metrics.mem_peak_bytes m.Metrics.mem_peak_bytes;
  Alcotest.(check int) "no kills when spilling" 0 m.Metrics.oom_kills

let prop_budget_invariance =
  (* the governing invariant, at 1, 2 and 4 domains: for ANY budget with
     spilling on, results are bit-identical to the unbounded run and the
     cost metrics (including every memory counter) are identical across
     domain counts *)
  Helpers.qcheck_case "any spill budget: identical results, domain-invariant metrics"
    ~count:12
    QCheck2.Gen.(pair Helpers.rows_gen (map float_of_int (int_range 1 4096)))
    (fun (rows, budget) ->
      let tables = [ ("t", rows) ] in
      let run ?mem_budget ?spill pool =
        run_engine ?mem_budget ?spill ~opts:no_cache ~pool group_prog tables
      in
      with_pool 2 (fun pool ->
          let base_v, base_m = run pool in
          let v2, m2 = run ~mem_budget:budget ~spill:true pool in
          Value.equal base_v v2
          && invariant_sig m2 = invariant_sig base_m
          && m2.Metrics.sim_time_s >= base_m.Metrics.sim_time_s
          && with_pool 1 (fun p1 ->
                 let v1, m1 = run ~mem_budget:budget ~spill:true p1 in
                 Value.equal v1 v2 && full_sig m1 = full_sig m2)
          && with_pool 4 (fun p4 ->
                 let v4, m4 = run ~mem_budget:budget ~spill:true p4 in
                 Value.equal v4 v2 && full_sig m4 = full_sig m2)))

let test_spill_deterministic () =
  let v1, m1 = run_engine ~mem_budget:2.0 ~spill:true group_prog tables in
  let v2, m2 = run_engine ~mem_budget:2.0 ~spill:true group_prog tables in
  check_value "same result twice" v1 v2;
  Alcotest.(check bool) "same metrics twice" true (full_sig m1 = full_sig m2)

(* ---------------------------------------------------------------- *)
(* OOM-kill ladder (spilling disabled)                                *)
(* ---------------------------------------------------------------- *)

let test_oom_kill_and_retry () =
  let base_v, base_m = run_engine ~opts:no_cache group_prog tables in
  let peak = base_m.Metrics.mem_peak_bytes in
  Alcotest.(check bool) "program reserves state" true (peak > 0.0);
  (* 0.75 × peak: the largest slot overflows, one halving rescues it *)
  let v, m = run_engine ~opts:no_cache ~mem_budget:(0.75 *. peak) group_prog tables in
  check_value "killed attempt retried to the same result" base_v v;
  Alcotest.(check bool) "at least one OOM kill" true (m.Metrics.oom_kills > 0);
  Alcotest.(check bool) "kills cost simulated time" true
    (m.Metrics.sim_time_s > base_m.Metrics.sim_time_s);
  Alcotest.(check bool) "nothing else moves" true
    (invariant_sig m = invariant_sig base_m);
  Alcotest.(check int) "no spilling happened" 0 m.Metrics.mem_spills

let test_oom_past_node_memory_fails () =
  (* 0.4 × peak: even one slot per node (2 × budget) cannot hold the
     state — a clean, actionable failure *)
  let _, base_m = run_engine ~opts:no_cache group_prog tables in
  let budget = 0.4 *. base_m.Metrics.mem_peak_bytes in
  match run_engine ~opts:no_cache ~mem_budget:budget group_prog tables with
  | _ -> Alcotest.fail "expected Engine_failure"
  | exception Engine.Engine_failure msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the condition" true
        (contains msg "out of memory")

(* ---------------------------------------------------------------- *)
(* Chaos OOM channel                                                  *)
(* ---------------------------------------------------------------- *)

let test_chaos_oom_scripted () =
  let base_v, base_m = run_engine ~opts:no_cache group_prog tables in
  let v, m =
    run_engine ~opts:no_cache
      ~faults:(Faults.scripted [ Faults.Oom_kill 1 ])
      group_prog tables
  in
  check_value "result survives an injected kill" base_v v;
  Alcotest.(check int) "exactly one kill" 1 m.Metrics.oom_kills;
  Alcotest.(check bool) "the kill costs time" true
    (m.Metrics.sim_time_s > base_m.Metrics.sim_time_s);
  Alcotest.(check bool) "nothing else moves" true
    (invariant_sig m = invariant_sig base_m)

let test_chaos_oom_seeded () =
  let base_v, _ = run_engine ~opts:no_cache group_prog tables in
  let rates = { Faults.zero_rates with Faults.oom_kill = 1.0 } in
  let v, m =
    run_engine ~opts:no_cache ~faults:(Faults.seeded ~rates 7) group_prog tables
  in
  check_value "result survives kills at every reservation" base_v v;
  Alcotest.(check bool) "kills injected" true (m.Metrics.oom_kills > 0);
  let v', m' =
    run_engine ~opts:no_cache ~faults:(Faults.seeded ~rates 7) group_prog tables
  in
  check_value "seeded chaos is deterministic" v v';
  Alcotest.(check bool) "same metrics for the same seed" true
    (full_sig m = full_sig m')

(* ---------------------------------------------------------------- *)
(* LRU cache eviction                                                 *)
(* ---------------------------------------------------------------- *)

(* budget so the cache holds exactly one of the two bags *)
let one_bag_budget = (bag_bytes +. 1.0) /. float_of_int dop

(* budget so the cache holds both bags comfortably *)
let two_bag_budget = ((2.0 *. bag_bytes) +. 16.0) /. float_of_int dop

let test_eviction_thrash () =
  let base_v, base_m = run_engine (two_bag_loop 4) tables in
  let v, m =
    run_engine ~mem_budget:one_bag_budget ~spill:true (two_bag_loop 4) tables
  in
  check_value "thrashing never changes the result" base_v v;
  Alcotest.(check bool) "bags were evicted" true (m.Metrics.cache_evictions > 0);
  Alcotest.(check bool) "evicted bytes counted" true (m.Metrics.evicted_bytes > 0.0);
  Alcotest.(check bool) "evicted bags recomputed through lineage" true
    (m.Metrics.recomputes > base_m.Metrics.recomputes);
  Alcotest.(check int) "alternating access thrashes every hit away" 0
    m.Metrics.cache_hits;
  Alcotest.(check bool) "recomputation costs simulated time" true
    (m.Metrics.sim_time_s > base_m.Metrics.sim_time_s);
  (* deterministic: same budget, same evictions, twice *)
  let v', m' =
    run_engine ~mem_budget:one_bag_budget ~spill:true (two_bag_loop 4) tables
  in
  check_value "eviction is deterministic" v v';
  Alcotest.(check bool) "same metrics twice" true (full_sig m = full_sig m')

let test_room_for_the_working_set () =
  (* with both bags resident nothing is evicted and the run is identical
     to unbounded *)
  let base_v, base_m = run_engine (two_bag_loop 4) tables in
  let v, m =
    run_engine ~mem_budget:two_bag_budget ~spill:true (two_bag_loop 4) tables
  in
  check_value "same result" base_v v;
  Alcotest.(check int) "no evictions" 0 m.Metrics.cache_evictions;
  Alcotest.(check bool) "identical to the unbounded run" true
    (full_sig m = full_sig base_m)

(* ---------------------------------------------------------------- *)
(* Eviction vs faults: the registry stays consistent                  *)
(* ---------------------------------------------------------------- *)

let test_loss_under_governance_recomputes_once () =
  (* a cache loss while the LRU registry is active: the lost bag is
     forgotten (not evicted) and recomputed exactly once *)
  let clean_v, clean_m =
    run_engine ~mem_budget:two_bag_budget ~spill:true (two_bag_loop 4) tables
  in
  let v, m =
    run_engine ~mem_budget:two_bag_budget ~spill:true
      ~faults:(Faults.scripted [ Faults.Cache_loss 3 ])
      (two_bag_loop 4) tables
  in
  check_value "result identical under the loss" clean_v v;
  Alcotest.(check int) "one loss" 1 m.Metrics.cache_losses;
  Alcotest.(check int) "recomputed exactly once" (clean_m.Metrics.recomputes + 1)
    m.Metrics.recomputes;
  Alcotest.(check int) "the lost hit is the only one missing"
    (clean_m.Metrics.cache_hits - 1) m.Metrics.cache_hits;
  Alcotest.(check int) "a loss is never an eviction" 0 m.Metrics.cache_evictions;
  (* governance changed nothing about the recovery itself *)
  let _, ungoverned_m =
    run_engine
      ~faults:(Faults.scripted [ Faults.Cache_loss 3 ])
      (two_bag_loop 4) tables
  in
  Alcotest.(check int) "same recomputes as the ungoverned recovery"
    ungoverned_m.Metrics.recomputes m.Metrics.recomputes;
  Alcotest.(check int) "same hits as the ungoverned recovery"
    ungoverned_m.Metrics.cache_hits m.Metrics.cache_hits

let test_eviction_plus_faults_domain_invariant () =
  (* losses layered on live eviction activity, across domain counts *)
  let run pool =
    run_engine ~mem_budget:one_bag_budget ~spill:true
      ~faults:(Faults.scripted [ Faults.Cache_loss 1; Faults.Cache_loss 2 ])
      ~pool (two_bag_loop 4) tables
  in
  let base_v, _ = run_engine (two_bag_loop 4) tables in
  with_pool 2 (fun p2 ->
      let v2, m2 = run p2 in
      check_value "correct under eviction + losses" base_v v2;
      with_pool 1 (fun p1 ->
          let v1, m1 = run p1 in
          check_value "1 domain: same result" v2 v1;
          Alcotest.(check bool) "1 domain: same metrics" true
            (full_sig m1 = full_sig m2));
      with_pool 4 (fun p4 ->
          let v4, m4 = run p4 in
          check_value "4 domains: same result" v2 v4;
          Alcotest.(check bool) "4 domains: same metrics" true
            (full_sig m4 = full_sig m2)))

(* ---------------------------------------------------------------- *)
(* Admission control                                                  *)
(* ---------------------------------------------------------------- *)

let test_admission_queues_jobs () =
  let base_v, base_m = run_engine (loop_prog 5) tables in
  let v, m = run_engine ~max_inflight:1 (loop_prog 5) tables in
  check_value "gating changes no result" base_v v;
  Alcotest.(check bool) "submissions queued" true (m.Metrics.jobs_queued > 0);
  Alcotest.(check bool) "queue wait charged" true (m.Metrics.queue_wait_s > 0.0);
  Alcotest.(check bool) "the wait shows up in simulated time" true
    (m.Metrics.sim_time_s > base_m.Metrics.sim_time_s);
  Alcotest.(check bool) "nothing but time and the queue counters" true
    (invariant_sig m = invariant_sig base_m)

let test_generous_admission_is_free () =
  let base_v, base_m = run_engine (loop_prog 5) tables in
  let v, m = run_engine ~max_inflight:64 (loop_prog 5) tables in
  check_value "same result" base_v v;
  Alcotest.(check int) "nothing queued" 0 m.Metrics.jobs_queued;
  Alcotest.(check bool) "identical to the ungated run" true
    (full_sig m = full_sig base_m)

let test_engine_create_validates () =
  let ctx = ctx_with tables in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  List.iter
    (fun (name, config) ->
      Alcotest.(check bool) ("Engine.create rejects " ^ name) true
        (invalid (fun () ->
             Engine.create ~config ~cluster:(Cluster.laptop ())
               ~profile:Cluster.spark_like ctx)))
    Config.
      [ ("budget 0", with_mem_budget (Some 0.0) default);
        ("max_inflight 0", with_max_inflight (Some 0) default);
        ("checkpoint_every 0", with_checkpoint_every (Some 0) default) ]

let suite =
  [ ( "memman",
      [ Alcotest.test_case "create validates its arguments" `Quick
          test_create_validates;
        Alcotest.test_case "reserve verdicts" `Quick test_reserve_verdicts;
        Alcotest.test_case "LRU registry" `Quick test_lru_registry;
        Alcotest.test_case "admission gate" `Quick test_admission_gate;
        Alcotest.test_case "engine create validates" `Quick
          test_engine_create_validates ] );
    ( "memman_budgets",
      [ Alcotest.test_case "ample budgets are bit-identical" `Quick
          test_ample_budget_identity;
        Alcotest.test_case "spill moves only time and mem counters" `Quick
          test_spill_only_moves_time_and_mem;
        prop_budget_invariance;
        Alcotest.test_case "spilling is deterministic" `Quick
          test_spill_deterministic;
        Alcotest.test_case "OOM kill retries at halved parallelism" `Quick
          test_oom_kill_and_retry;
        Alcotest.test_case "past node memory fails cleanly" `Quick
          test_oom_past_node_memory_fails;
        Alcotest.test_case "chaos OOM channel (scripted)" `Quick
          test_chaos_oom_scripted;
        Alcotest.test_case "chaos OOM channel (seeded)" `Quick
          test_chaos_oom_seeded ] );
    ( "memman_cache",
      [ Alcotest.test_case "eviction thrash stays correct" `Quick
          test_eviction_thrash;
        Alcotest.test_case "a fitting working set is untouched" `Quick
          test_room_for_the_working_set;
        Alcotest.test_case "loss during governance recomputes once" `Quick
          test_loss_under_governance_recomputes_once;
        Alcotest.test_case "eviction + faults, domain-invariant" `Quick
          test_eviction_plus_faults_domain_invariant;
        Alcotest.test_case "admission control queues jobs" `Quick
          test_admission_queues_jobs;
        Alcotest.test_case "generous admission is free" `Quick
          test_generous_admission_is_free ] ) ]
