(* Differential tests for the multicore execution backend.

   The engine runs per-partition operator work on a Domain pool; these
   tests pin down the contract of that parallelism:
   - results are identical to the native DataBag evaluation and to the
     sequential engine, for any domain count;
   - every cost-model metric (sim_time_s, shuffle bytes, stages, even
     udf_invocations) is bit-identical across domain counts — wall_time_s
     is the only field allowed to vary;
   - repeated runs under parallelism are byte-identical (TPC-H Q1/Q3 20×);
   - injected cache-loss schedules recover through lineage the same way
     whatever the domain count;
   - split PRNG streams drawn from worker domains reproduce the sequential
     stream exactly. *)

module Value = Emma_value.Value
module S = Emma_lang.Surface
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Faults = Emma_engine.Faults
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
module Prng = Emma_util.Prng
module W = Emma_workloads
module Pr = Emma_programs
open Helpers

(* Every barrier with rows dispatches on this cluster (see
   [Helpers.dispatching]), so the multi-domain runs below really run on
   the pool, however small their inputs. *)
let dispatching_rt () =
  Emma.
    { cluster = Helpers.dispatching (Cluster.laptop ());
      profile = Cluster.spark_like;
      timeout_s = None }

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let run_at ?(faults = Faults.none) ?(udf_mode = Config.Compiled) ~domains prog tables =
  with_pool domains (fun pool ->
      let algo = Emma.parallelize prog in
      let config =
        Config.(
          default |> with_faults faults |> with_pool (Some pool) |> with_udf_mode udf_mode)
      in
      let r = Emma.run_on_exn ~config (dispatching_rt ()) algo ~tables in
      (r.Emma.value, r.Emma.metrics))

(* ---------------------------------------------------------------- *)
(* Random pipelines: engine at 1/2/4 domains ≡ native, equal metrics  *)
(* ---------------------------------------------------------------- *)

let domains_under_test = [ 1; 2; 4; 8 ]

let prop_differential =
  qcheck_case "random pipelines: engine(1/2/4/8 domains) = native, equal cost metrics"
    ~count:25
    QCheck2.Gen.(pair Helpers.terminated_pipeline_gen Helpers.rows_gen)
    (fun (e, rows) ->
      let prog = S.program ~ret:e [] in
      let tables = [ ("rows", rows) ] in
      let native, _ = Emma.run_native (Emma.parallelize prog) ~tables in
      let runs = List.map (fun d -> (d, run_at ~domains:d prog tables)) domains_under_test in
      let v1, m1 = List.assoc 1 runs in
      Value.equal native v1
      && List.for_all
           (fun (d, (v, m)) ->
             Value.equal v1 v
             && Metrics.cost m1 = Metrics.cost m
             (* the multi-domain runs really went through the pool *)
             && (d = 1 || rows = [] || m.Metrics.par_stages > 0))
           runs)

(* deterministic corpus exercising the shuffle/join/group/stateful paths
   the random pipelines don't reach *)
let corpus_tables =
  [ ("t1", List.init 13 (fun i -> Helpers.row (i - 6) (i mod 4)));
    ("t2", List.init 9 (fun i -> Helpers.row i (i mod 3))) ]

let corpus_progs =
  let mk bag =
    S.program
      ~ret:S.(count (var "d") + sum (map (lam "x" (fun x -> field x "a")) (var "d")))
      [ S.s_let "d" bag ]
  in
  [ ( "repartition join",
      mk
        S.(
          for_
            [ gen "x" (read "t1");
              gen "y" (read "t2");
              when_ (field (var "x") "b" = field (var "y") "b") ]
            ~yield:
              (record
                 [ ("a", field (var "x") "a" + field (var "y") "a");
                   ("b", field (var "x") "b") ])) );
    ( "semi-join (exists)",
      mk
        S.(
          for_
            [ gen "x" (read "t1");
              when_ (exists (lam "y" (fun y -> field y "b" = field (var "x") "b")) (read "t2")) ]
            ~yield:(var "x")) );
    ( "group + fold",
      mk
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "t1")) ]
            ~yield:
              (record
                 [ ("a", sum (map (lam "x" (fun x -> field x "a")) (field (var "g") "values")));
                   ("b", field (var "g") "key") ])) );
    ("distinct of union", mk S.(distinct (union (read "t1") (read "t2"))));
    ("minus", mk S.(minus (read "t1") (read "t2")));
    ("matmul (join + grouped sum)", mk Helpers.matmul_shape);
    ("triangles (join + composite-key semi-join)", mk Helpers.triangle_shape) ]

let test_corpus_domain_invariance () =
  List.iter
    (fun (name, prog) ->
      let native, _ = Emma.run_native (Emma.parallelize prog) ~tables:corpus_tables in
      let v1, m1 = run_at ~domains:1 prog corpus_tables in
      check_value (name ^ ": native = engine") native v1;
      let vi, mi = run_at ~udf_mode:Config.Interp ~domains:1 prog corpus_tables in
      check_value (name ^ ": interpreted UDFs = compiled") v1 vi;
      Alcotest.(check bool)
        (name ^ ": cost metrics with interpreted UDFs")
        true
        (Metrics.cost m1 = Metrics.cost mi);
      List.iter
        (fun d ->
          let v, m = run_at ~domains:d prog corpus_tables in
          check_value (Printf.sprintf "%s: value at %d domains" name d) v1 v;
          Alcotest.(check bool)
            (Printf.sprintf "%s: cost metrics at %d domains" name d)
            true
            (Metrics.cost m1 = Metrics.cost m);
          Alcotest.(check int)
            (Printf.sprintf "%s: udf count at %d domains" name d)
            m1.Metrics.udf_invocations m.Metrics.udf_invocations)
        [ 2; 4 ])
    corpus_progs

(* udf_invocations is tallied in domain-local cells and merged at barriers;
   this pins the total to the sequential count on a map-only program where
   the expected number is easy to state *)
let test_udf_tally_exact () =
  let n = 200 in
  let rows = List.init n (fun i -> Helpers.row i (i mod 5)) in
  let prog =
    S.program
      ~ret:S.(sum (map (lam "x" (fun x -> field x "a + b")) (var "d")))
      [ S.s_let "d"
          S.(
            map
              (lam "x" (fun x ->
                   record [ ("a + b", field x "a" + field x "b") ]))
              (read "rows")) ]
  in
  let _, m1 = run_at ~domains:1 prog [ ("rows", rows) ] in
  Alcotest.(check bool) "sequential run counts udfs" true (m1.Metrics.udf_invocations > 0);
  List.iter
    (fun d ->
      let _, m = run_at ~domains:d prog [ ("rows", rows) ] in
      Alcotest.(check int)
        (Printf.sprintf "udf invocations at %d domains" d)
        m1.Metrics.udf_invocations m.Metrics.udf_invocations)
    [ 2; 4; 8 ]

(* ---------------------------------------------------------------- *)
(* Zipf skew: load balancing never moves results or cost metrics      *)
(* ---------------------------------------------------------------- *)

(* Zipf(alpha)-distributed keys: partition skew with real teeth — the
   groupBy shuffle concentrates the head key's rows in one partition, and
   the downstream flatMap/map work over it is what idle domains claim,
   a task of whole partitions at a time. *)
let zipf_rows ~seed ~alpha ~keys ~n =
  let w = Array.init keys (fun k -> (float_of_int (k + 1)) ** -.alpha) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let draw u =
    let rec go k = if k >= keys - 1 || u <= cdf.(k) then k else go (k + 1) in
    go 0
  in
  let g = Prng.create seed in
  List.init n (fun _ ->
      Value.record
        [ ("a", Value.Int (Prng.int_in g (-50) 50));
          ("b", Value.Int (draw (Prng.unit_float g))) ])

(* groupBy the skewed key, then flatMap the group values back out and
   transform them: the flatMap output keeps the groups' partition
   placement, so the map stages downstream run over genuinely skewed
   partitions. *)
let skew_group_prog =
  S.program
    ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (var "out")))
    [ S.s_let "out"
        S.(
          map
            (lam "x" (fun x ->
                 record [ ("a", field x "a" + field x "b"); ("b", field x "b") ]))
            (flat_map
               (lam "g" (fun g -> field g "values"))
               (group_by (lam "x" (fun x -> field x "b")) (read "skewed")))) ]

(* repartition join on the skewed key: both the routing stage and the
   per-partition hash build see the skew *)
let skew_join_prog =
  S.program
    ~ret:S.(count (var "out") + sum (map (lam "x" (fun x -> field x "a")) (var "out")))
    [ S.s_let "out"
        S.(
          for_
            [ gen "x" (read "skewed");
              gen "y" (read "dims");
              when_ (field (var "x") "b" = field (var "y") "b") ]
            ~yield:
              (record
                 [ ("a", field (var "x") "a" * field (var "y") "a");
                   ("b", field (var "x") "b") ])) ]

let test_skew_differential () =
  let tables =
    [ ("skewed", zipf_rows ~seed:11 ~alpha:1.4 ~keys:24 ~n:600);
      ("dims", List.init 24 (fun k -> Helpers.row (k * 3) k)) ]
  in
  List.iter
    (fun (name, prog) ->
      let native, _ = Emma.run_native (Emma.parallelize prog) ~tables in
      let v1, m1 = run_at ~domains:1 prog tables in
      check_value (name ^ ": native = engine") native v1;
      List.iter
        (fun d ->
          let v, m = run_at ~domains:d prog tables in
          check_value (Printf.sprintf "%s: value at %d domains" name d) v1 v;
          Alcotest.(check bool)
            (Printf.sprintf "%s: cost metrics at %d domains" name d)
            true
            (Metrics.cost m1 = Metrics.cost m))
        domains_under_test)
    [ ("zipf groupBy", skew_group_prog); ("zipf join", skew_join_prog) ]

(* the deterministic corpus again, at every domain count under test:
   joins/groups/distinct/minus must not notice how their barriers are
   packed into tasks *)
let test_corpus_packing_invariance () =
  List.iter
    (fun (name, prog) ->
      let v1, m1 = run_at ~domains:1 prog corpus_tables in
      List.iter
        (fun d ->
          let v, m = run_at ~domains:d prog corpus_tables in
          check_value (Printf.sprintf "%s: value at %d domains" name d) v1 v;
          Alcotest.(check bool)
            (Printf.sprintf "%s: cost metrics at %d domains" name d)
            true
            (Metrics.cost m1 = Metrics.cost m))
        domains_under_test)
    corpus_progs

(* the retired scheduling counters (always 0, read by perfbench) stay on
   the report surface: rendered rows and JSON both carry them, and
   Metrics.cost zeroes them *)
let test_retired_counters_reported () =
  let _, m =
    run_at ~domains:4 skew_group_prog
      [ ("skewed", zipf_rows ~seed:3 ~alpha:1.2 ~keys:16 ~n:200) ]
  in
  let rows = Metrics.to_rows m in
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " in to_rows") true (List.mem_assoc label rows))
    [ "par chunks"; "par steals"; "par steal misses" ];
  match Metrics.to_json m with
  | Emma_util.Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " in to_json") true (List.mem_assoc key fields))
        [ "par_chunks"; "par_steals"; "par_steal_misses" ]
  | _ -> Alcotest.fail "Metrics.to_json is not an object"

let prop_skew_alpha =
  qcheck_case "random Zipf exponents: cost metrics domain-invariant"
    ~count:10
    QCheck2.Gen.(pair (int_range 0 25) (int_range 50 300))
    (fun (alpha10, n) ->
      let tables =
        [ ("skewed", zipf_rows ~seed:n ~alpha:(float_of_int alpha10 /. 10.0) ~keys:12 ~n) ]
      in
      let v1, m1 = run_at ~domains:1 skew_group_prog tables in
      List.for_all
        (fun d ->
          let v, m = run_at ~domains:d skew_group_prog tables in
          Value.equal v1 v && Metrics.cost m1 = Metrics.cost m)
        domains_under_test)

(* ---------------------------------------------------------------- *)
(* TPC-H determinism: 20 repeated parallel runs, byte-identical        *)
(* ---------------------------------------------------------------- *)

let render v m = (Format.asprintf "%a" Value.pp v, Metrics.cost m)

let determinism_check ?(domains = 4) ?(faults = Faults.none) name prog tables =
  let config pool = Config.(default |> with_faults faults |> with_pool (Some pool)) in
  let reference =
    (fun (v, m) -> render v m)
      (with_pool 1 (fun pool ->
           let r =
             Emma.run_on_exn ~config:(config pool) (dispatching_rt ())
               (Emma.parallelize prog) ~tables
           in
           (r.Emma.value, r.Emma.metrics)))
  in
  with_pool domains (fun pool ->
      let algo = Emma.parallelize prog in
      for i = 1 to 20 do
        let r = Emma.run_on_exn ~config:(config pool) (dispatching_rt ()) algo ~tables in
        let got = render r.Emma.value r.Emma.metrics in
        if got <> reference then
          Alcotest.failf "%s: run %d under %d domains differs from sequential" name i
            domains
      done)

let test_q1_determinism () =
  let cfg = W.Tpch_gen.of_scale_factor 0.0002 in
  let lineitem = W.Tpch_gen.lineitem ~seed:7 cfg in
  determinism_check "TPC-H Q1"
    (Pr.Tpch_q1.program Pr.Tpch_q1.default_params)
    [ ("lineitem", lineitem) ]

let test_q3_determinism () =
  let cfg = W.Tpch_gen.of_scale_factor 0.0003 in
  let lineitem = W.Tpch_gen.lineitem ~seed:7 cfg in
  let orders = W.Tpch_gen.orders ~seed:7 cfg in
  let customer = W.Tpch_gen.customer ~seed:7 cfg in
  determinism_check "TPC-H Q3"
    (Pr.Tpch_q3.program Pr.Tpch_q3.default_params)
    [ ("lineitem", lineitem); ("orders", orders); ("customer", customer) ]

(* the hard case: 8 oversubscribed domains claiming tasks WHILE a seeded
   chaos plan injects retries/stragglers/speculation — the fault draws
   are keyed on logical stage/partition ids, so recovery and results must
   replay byte-identically under any claim order *)
let test_q1_determinism_chaos () =
  let cfg = W.Tpch_gen.of_scale_factor 0.0002 in
  let lineitem = W.Tpch_gen.lineitem ~seed:7 cfg in
  determinism_check ~domains:8 ~faults:(Faults.seeded 21) "TPC-H Q1 + chaos"
    (Pr.Tpch_q1.program Pr.Tpch_q1.default_params)
    [ ("lineitem", lineitem) ]

let test_q3_determinism_chaos () =
  let cfg = W.Tpch_gen.of_scale_factor 0.0003 in
  let lineitem = W.Tpch_gen.lineitem ~seed:7 cfg in
  let orders = W.Tpch_gen.orders ~seed:7 cfg in
  let customer = W.Tpch_gen.customer ~seed:7 cfg in
  determinism_check ~domains:8 ~faults:(Faults.seeded 22) "TPC-H Q3 + chaos"
    (Pr.Tpch_q3.program Pr.Tpch_q3.default_params)
    [ ("lineitem", lineitem); ("orders", orders); ("customer", customer) ]

(* ---------------------------------------------------------------- *)
(* Fault injection under parallelism                                   *)
(* ---------------------------------------------------------------- *)

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

let fault_tables = [ ("t", List.init 20 (fun i -> Helpers.row i (i mod 3))) ]

let run_faulty ~domains ~cache_loss_at =
  let faults = Faults.scripted (List.map (fun k -> Faults.Cache_loss k) cache_loss_at) in
  run_at ~faults ~domains

let test_faults_domain_independent () =
  List.iter
    (fun cache_loss_at ->
      let v1, m1 = run_faulty ~domains:1 ~cache_loss_at (loop_prog 5) fault_tables in
      List.iter
        (fun d ->
          let v, m = run_faulty ~domains:d ~cache_loss_at (loop_prog 5) fault_tables in
          check_value (Printf.sprintf "value at %d domains" d) v1 v;
          Alcotest.(check int)
            (Printf.sprintf "cache losses at %d domains" d)
            m1.Metrics.cache_losses m.Metrics.cache_losses;
          Alcotest.(check int)
            (Printf.sprintf "recomputes at %d domains" d)
            m1.Metrics.recomputes m.Metrics.recomputes;
          Alcotest.(check bool)
            (Printf.sprintf "all cost metrics at %d domains" d)
            true
            (Metrics.cost m1 = Metrics.cost m))
        [ 2; 4 ])
    [ []; [ 1 ]; [ 2; 4 ]; List.init 50 (fun i -> i + 1) ]

(* injected faults key on the LOGICAL partition count, never the task
   count: a fault plan must replay identically however the barriers are
   packed *)
let test_faults_packing_independent () =
  let losses = [ 1; 3 ] in
  let v1, m1 = run_faulty ~domains:1 ~cache_loss_at:losses (loop_prog 5) fault_tables in
  List.iter
    (fun d ->
      let v, m = run_faulty ~domains:d ~cache_loss_at:losses (loop_prog 5) fault_tables in
      check_value (Printf.sprintf "value at %d domains" d) v1 v;
      Alcotest.(check int)
        (Printf.sprintf "cache losses at %d domains" d)
        m1.Metrics.cache_losses m.Metrics.cache_losses;
      Alcotest.(check bool)
        (Printf.sprintf "cost metrics at %d domains" d)
        true
        (Metrics.cost m1 = Metrics.cost m))
    domains_under_test

let prop_faults_parallel =
  qcheck_case "random fault schedules: recovery independent of domain count" ~count:15
    QCheck2.Gen.(pair Helpers.rows_gen (list_size (int_bound 6) (int_range 1 10)))
    (fun (rows, losses) ->
      let tables = [ ("t", rows) ] in
      let v1, m1 = run_faulty ~domains:1 ~cache_loss_at:losses (loop_prog 3) tables in
      let v4, m4 = run_faulty ~domains:4 ~cache_loss_at:losses (loop_prog 3) tables in
      Value.equal v1 v4 && Metrics.cost m1 = Metrics.cost m4)

(* ---------------------------------------------------------------- *)
(* Split PRNG streams drawn on worker domains                          *)
(* ---------------------------------------------------------------- *)

let test_split_streams_parallel_deterministic () =
  let draw_all streams =
    Array.map (fun g -> List.init 100 (fun _ -> Prng.next_int64 g)) streams
  in
  (* sequential reference: split then drain each stream in order *)
  let expected = draw_all (Prng.split_n (Prng.create 99) 16) in
  (* same streams drained concurrently on a pool: each worker owns exactly
     one stream, so the draws race on nothing *)
  with_pool 4 (fun pool ->
      let streams = Prng.split_n (Prng.create 99) 16 in
      let got = Pool.parmap pool (fun g -> List.init 100 (fun _ -> Prng.next_int64 g)) streams in
      Alcotest.(check bool) "parallel draws reproduce sequential streams" true
        (expected = got));
  (* split_n itself is order-deterministic *)
  let a = Prng.split_n (Prng.create 5) 8 and b = Prng.split_n (Prng.create 5) 8 in
  Alcotest.(check bool) "split_n reproducible" true (draw_all a = draw_all b)

(* ---------------------------------------------------------------- *)
(* Host granularity: inline small stages, pack the rest                *)
(* ---------------------------------------------------------------- *)

(* 320 logical partitions, as in `emma serve`, so packing is visible *)
let paper_rt () =
  Emma.
    { cluster = Cluster.paper_cluster (); profile = Cluster.spark_like; timeout_s = None }

let run_outcome ?(rt = paper_rt ()) ~domains prog tables =
  with_pool domains (fun pool ->
      let config = Config.(default |> with_pool (Some pool)) in
      Emma.run_on ~config rt (Emma.parallelize prog) ~tables)

let finished = function
  | Emma.Finished r -> (r.Emma.value, r.Emma.metrics)
  | _ -> Alcotest.fail "run did not finish"

(* A stage below [Exec.inline_work_s] never reaches the
   pool, and a larger one becomes at most [tasks_per_domain] tasks per
   domain; either way values and every cost field equal a one-domain
   run. *)
let test_granularity () =
  let check_sizes name rows ~expect_dispatch =
    let tables = [ ("skewed", rows) ] in
    let v1, m1 = finished (run_outcome ~domains:1 skew_group_prog tables) in
    List.iter
      (fun d ->
        let v, m = finished (run_outcome ~domains:d skew_group_prog tables) in
        let at = Printf.sprintf "%s at %d domains" name d in
        check_value (at ^ ": value") v1 v;
        Alcotest.(check bool) (at ^ ": cost metrics") true (Metrics.cost m1 = Metrics.cost m);
        if expect_dispatch then begin
          Alcotest.(check bool) (at ^ ": some barrier dispatched") true (m.Metrics.par_stages > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d tasks <= %d barriers x %d x %d" at m.Metrics.par_tasks
               m.Metrics.par_stages Engine.tasks_per_domain d)
            true
            (m.Metrics.par_tasks <= m.Metrics.par_stages * Engine.tasks_per_domain * d)
        end
        else Alcotest.(check int) (at ^ ": no pool tasks") 0 m.Metrics.par_tasks)
      [ 2; 4; 8 ]
  in
  check_sizes "tiny stage" (zipf_rows ~seed:5 ~alpha:1.2 ~keys:8 ~n:40) ~expect_dispatch:false;
  check_sizes "large stage" (zipf_rows ~seed:5 ~alpha:1.2 ~keys:8 ~n:8000) ~expect_dispatch:true

(* A [Read] large enough for the pool is partitioned through the same
   packed barrier as the operators, so the par counters see it: on two
   domains the bare read below is one barrier of at most
   [tasks_per_domain × 2] tasks, and nothing on one domain. *)
let test_read_barrier_counted () =
  let prog = S.program ~ret:(S.read "rows") [] in
  let tables = [ ("rows", List.init 8000 (fun i -> Helpers.row i (i mod 7))) ] in
  let v1, m1 = finished (run_outcome ~domains:1 prog tables) in
  let v2, m2 = finished (run_outcome ~domains:2 prog tables) in
  check_value "value" v1 v2;
  Alcotest.(check bool) "cost metrics" true (Metrics.cost m1 = Metrics.cost m2);
  Alcotest.(check int) "one domain: no barrier" 0 m1.Metrics.par_stages;
  Alcotest.(check int) "two domains: the read is one barrier" 1 m2.Metrics.par_stages;
  Alcotest.(check bool) "packed tasks" true
    (m2.Metrics.par_tasks > 1 && m2.Metrics.par_tasks <= Engine.tasks_per_domain * 2)

(* A UDF that fails on two rows, in partitions 5 and 200 of 320 (rows are
   dealt round-robin): every domain count must report partition 5's
   failure, the first in sequential order, whether the failing rows land
   in different tasks or (inline, on one domain) in one. The paper cluster
   is made to dispatch every barrier, and both a bag-valued map and a
   fold are covered. *)
let test_exception_order_packed () =
  let udf =
    S.(
      lam "x" (fun x ->
          if_ (field x "a" < int_ 100) (field x "a" / field x "d") (field x "a" mod field x "d")))
  in
  let rows bad =
    List.init 4000 (fun i ->
        Value.record
          [ ("a", Value.Int i); ("d", Value.Int (if List.mem i bad then 0 else 1 + (i mod 3))) ])
  in
  let progs =
    [ ("map", S.program ~ret:S.(map udf (read "rows")) []);
      ("fold", S.program ~ret:S.(sum (map udf (read "rows"))) []) ]
  in
  let rt = { (paper_rt ()) with Emma.cluster = Helpers.dispatching (Cluster.paper_cluster ()) } in
  let reason ~domains prog bad =
    match run_outcome ~rt ~domains prog [ ("rows", rows bad) ] with
    | exception Value.Type_error reason -> reason
    | Emma.Failed { reason; _ } -> reason
    | _ -> Alcotest.fail "expected the run to fail"
  in
  List.iter
    (fun (name, prog) ->
      let first = reason ~domains:1 prog [ 5 ] and second = reason ~domains:1 prog [ 200 ] in
      Alcotest.(check bool) (name ^ ": the two failures differ") true (first <> second);
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "%s at %d domains" name d)
            first
            (reason ~domains:d prog [ 5; 200 ]))
        domains_under_test)
    progs

let suite =
  [ ( "parallel_execution",
      [ prop_differential;
        Alcotest.test_case "corpus: joins/groups domain-invariant" `Quick
          test_corpus_domain_invariance;
        Alcotest.test_case "udf tally exact across domains" `Quick test_udf_tally_exact;
        Alcotest.test_case "zipf skew: groupBy/join invariant across domains" `Quick
          test_skew_differential;
        Alcotest.test_case "corpus: joins/groups cost-invariant on the dispatching cluster"
          `Quick test_corpus_packing_invariance;
        Alcotest.test_case "steal/chunk counters in report surface" `Quick
          test_retired_counters_reported;
        prop_skew_alpha;
        Alcotest.test_case "TPC-H Q1 20x deterministic under 4 domains" `Quick
          test_q1_determinism;
        Alcotest.test_case "TPC-H Q3 20x deterministic under 4 domains" `Quick
          test_q3_determinism;
        Alcotest.test_case "TPC-H Q1 20x deterministic: 8 domains + chaos" `Quick
          test_q1_determinism_chaos;
        Alcotest.test_case "TPC-H Q3 20x deterministic: 8 domains + chaos" `Quick
          test_q3_determinism_chaos;
        Alcotest.test_case "fault recovery domain-independent" `Quick
          test_faults_domain_independent;
        Alcotest.test_case "fault recovery packing-independent" `Quick
          test_faults_packing_independent;
        prop_faults_parallel;
        Alcotest.test_case "split PRNG streams on workers" `Quick
          test_split_streams_parallel_deterministic;
        Alcotest.test_case "a large read counts as a packed barrier" `Quick
          test_read_barrier_counted;
        Alcotest.test_case "granularity: tiny stages inline, large ones packed" `Quick
          test_granularity;
        Alcotest.test_case "packed barriers raise the lowest partition's exception" `Quick
          test_exception_order_packed ] ) ]
