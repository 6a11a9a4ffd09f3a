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

(* every cost-model field; deliberately NOT wall_time_s / par_stages /
   par_tasks, which describe the host execution rather than the model *)
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

let laptop_rt () =
  Emma.
    { cluster = Cluster.laptop (); profile = Cluster.spark_like; timeout_s = None }

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let run_at ?(chunk = Engine.Chunk_auto) ?(faults = Faults.none) ~domains prog tables =
  with_pool domains (fun pool ->
      let algo = Emma.parallelize prog in
      let config =
        Config.(default |> with_chunk chunk |> with_faults faults |> with_pool (Some pool))
      in
      let r = Emma.run_on_exn ~config (laptop_rt ()) algo ~tables in
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
      let runs = List.map (fun d -> run_at ~domains:d prog tables) domains_under_test in
      let v1, m1 = List.hd runs in
      Value.equal native v1
      && List.for_all
           (fun (v, m) -> Value.equal v1 v && cost_sig m1 = cost_sig m)
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
    ("minus", mk S.(minus (read "t1") (read "t2"))) ]

let test_corpus_domain_invariance () =
  List.iter
    (fun (name, prog) ->
      let native, _ = Emma.run_native (Emma.parallelize prog) ~tables:corpus_tables in
      let v1, m1 = run_at ~domains:1 prog corpus_tables in
      check_value (name ^ ": native = engine") native v1;
      List.iter
        (fun d ->
          let v, m = run_at ~domains:d prog corpus_tables in
          check_value (Printf.sprintf "%s: value at %d domains" name d) v1 v;
          Alcotest.(check bool)
            (Printf.sprintf "%s: cost metrics at %d domains" name d)
            true
            (cost_sig m1 = cost_sig m);
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
(* Zipf skew: stealing + chunking never move results or cost metrics  *)
(* ---------------------------------------------------------------- *)

(* Zipf(alpha)-distributed keys: partition skew with real teeth — the
   groupBy shuffle concentrates the head key's rows in one partition, and
   the downstream flatMap/map work over it is what adaptive chunking
   splits and idle domains steal. *)
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
   partitions (chunked + stolen under the new pool). *)
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

(* repartition join on the skewed key: both the routing stage (chunked)
   and the per-partition hash build (never chunked) see the skew *)
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

let chunk_specs =
  [ ("chunk=1", Engine.Chunk_fixed 1);
    ("chunk=auto", Engine.Chunk_auto);
    ("chunk=64", Engine.Chunk_fixed 64) ]

let test_skew_differential () =
  let tables =
    [ ("skewed", zipf_rows ~seed:11 ~alpha:1.4 ~keys:24 ~n:600);
      ("dims", List.init 24 (fun k -> Helpers.row (k * 3) k)) ]
  in
  List.iter
    (fun (name, prog) ->
      let native, _ = Emma.run_native (Emma.parallelize prog) ~tables in
      let v1, m1 = run_at ~chunk:(Engine.Chunk_fixed 1) ~domains:1 prog tables in
      check_value (name ^ ": native = engine") native v1;
      List.iter
        (fun d ->
          List.iter
            (fun (cname, chunk) ->
              let v, m = run_at ~chunk ~domains:d prog tables in
              check_value (Printf.sprintf "%s: value at %d domains, %s" name d cname) v1 v;
              Alcotest.(check bool)
                (Printf.sprintf "%s: cost metrics at %d domains, %s" name d cname)
                true
                (cost_sig m1 = cost_sig m))
            chunk_specs)
        domains_under_test)
    [ ("zipf groupBy", skew_group_prog); ("zipf join", skew_join_prog) ]

(* the deterministic corpus again, this time sweeping the chunk policy:
   joins/groups/distinct/minus must not notice chunking either *)
let test_corpus_chunk_invariance () =
  List.iter
    (fun (name, prog) ->
      let v1, m1 = run_at ~chunk:(Engine.Chunk_fixed 1) ~domains:1 prog corpus_tables in
      List.iter
        (fun (cname, chunk) ->
          let v, m = run_at ~chunk ~domains:4 prog corpus_tables in
          check_value (Printf.sprintf "%s: value under %s" name cname) v1 v;
          Alcotest.(check bool)
            (Printf.sprintf "%s: cost metrics under %s" name cname)
            true
            (cost_sig m1 = cost_sig m))
        chunk_specs)
    corpus_progs

let prop_random_chunk_sizes =
  qcheck_case "random fixed chunk sizes: pipelines invariant" ~count:20
    QCheck2.Gen.(triple (int_range 1 100) Helpers.terminated_pipeline_gen Helpers.rows_gen)
    (fun (k, e, rows) ->
      let prog = S.program ~ret:e [] in
      let tables = [ ("rows", rows) ] in
      let v1, m1 = run_at ~chunk:(Engine.Chunk_fixed 1) ~domains:1 prog tables in
      let v, m = run_at ~chunk:(Engine.Chunk_fixed k) ~domains:4 prog tables in
      Value.equal v1 v && cost_sig m1 = cost_sig m)

(* the new scheduling counters are part of the report surface: rendered
   rows and JSON both carry them, and they never appear in cost_sig *)
let test_steal_counters_reported () =
  let _, m =
    run_at ~chunk:Engine.Chunk_auto ~domains:4 skew_group_prog
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
  qcheck_case "random Zipf exponents: cost metrics chunk- and domain-invariant"
    ~count:10
    QCheck2.Gen.(pair (int_range 0 25) (int_range 50 300))
    (fun (alpha10, n) ->
      let tables =
        [ ("skewed", zipf_rows ~seed:n ~alpha:(float_of_int alpha10 /. 10.0) ~keys:12 ~n) ]
      in
      let v1, m1 = run_at ~chunk:(Engine.Chunk_fixed 1) ~domains:1 skew_group_prog tables in
      List.for_all
        (fun (d, chunk) ->
          let v, m = run_at ~chunk ~domains:d skew_group_prog tables in
          Value.equal v1 v && cost_sig m1 = cost_sig m)
        [ (2, Engine.Chunk_fixed 3); (8, Engine.Chunk_auto); (8, Engine.Chunk_fixed 64) ])

(* ---------------------------------------------------------------- *)
(* TPC-H determinism: 20 repeated parallel runs, byte-identical        *)
(* ---------------------------------------------------------------- *)

let render v m = (Format.asprintf "%a" Value.pp v, cost_sig m)

let determinism_check ?(domains = 4) ?(faults = Faults.none) name prog tables =
  let config pool = Config.(default |> with_faults faults |> with_pool (Some pool)) in
  let reference =
    (fun (v, m) -> render v m)
      (with_pool 1 (fun pool ->
           let r =
             Emma.run_on_exn ~config:(config pool) (laptop_rt ())
               (Emma.parallelize prog) ~tables
           in
           (r.Emma.value, r.Emma.metrics)))
  in
  with_pool domains (fun pool ->
      let algo = Emma.parallelize prog in
      for i = 1 to 20 do
        let r = Emma.run_on_exn ~config:(config pool) (laptop_rt ()) algo ~tables in
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

(* the hard case from the issue: 8 oversubscribed domains stealing chunks
   WHILE a seeded chaos plan injects retries/stragglers/speculation — the
   fault draws are keyed on logical stage/partition ids, so recovery and
   results must replay byte-identically under any steal schedule *)
let test_q1_determinism_chaos_stealing () =
  let cfg = W.Tpch_gen.of_scale_factor 0.0002 in
  let lineitem = W.Tpch_gen.lineitem ~seed:7 cfg in
  determinism_check ~domains:8 ~faults:(Faults.seeded 21) "TPC-H Q1 + chaos"
    (Pr.Tpch_q1.program Pr.Tpch_q1.default_params)
    [ ("lineitem", lineitem) ]

let test_q3_determinism_chaos_stealing () =
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

let run_faulty ?chunk ~domains ~cache_loss_at =
  run_at ?chunk ~faults:(Faults.of_cache_loss_at cache_loss_at) ~domains

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
            (cost_sig m1 = cost_sig m))
        [ 2; 4 ])
    [ []; [ 1 ]; [ 2; 4 ]; List.init 50 (fun i -> i + 1) ]

(* injected faults key on the LOGICAL partition count, never chunk count:
   a fault plan must replay identically under every chunk policy *)
let test_faults_chunk_independent () =
  let losses = [ 1; 3 ] in
  let v1, m1 =
    run_faulty ~chunk:(Engine.Chunk_fixed 1) ~domains:1 ~cache_loss_at:losses
      (loop_prog 5) fault_tables
  in
  List.iter
    (fun (cname, chunk) ->
      let v, m = run_faulty ~chunk ~domains:8 ~cache_loss_at:losses (loop_prog 5) fault_tables in
      check_value (Printf.sprintf "value under %s" cname) v1 v;
      Alcotest.(check int)
        (Printf.sprintf "cache losses under %s" cname)
        m1.Metrics.cache_losses m.Metrics.cache_losses;
      Alcotest.(check bool)
        (Printf.sprintf "cost metrics under %s" cname)
        true
        (cost_sig m1 = cost_sig m))
    [ ("chunk=1", Engine.Chunk_fixed 1);
      ("chunk=auto", Engine.Chunk_auto);
      ("chunk=64", Engine.Chunk_fixed 64) ]

let prop_faults_parallel =
  qcheck_case "random fault schedules: recovery independent of domain count" ~count:15
    QCheck2.Gen.(pair Helpers.rows_gen (list_size (int_bound 6) (int_range 1 10)))
    (fun (rows, losses) ->
      let tables = [ ("t", rows) ] in
      let v1, m1 = run_faulty ~domains:1 ~cache_loss_at:losses (loop_prog 3) tables in
      let v4, m4 = run_faulty ~domains:4 ~cache_loss_at:losses (loop_prog 3) tables in
      Value.equal v1 v4 && cost_sig m1 = cost_sig m4)

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

let suite =
  [ ( "parallel_execution",
      [ prop_differential;
        Alcotest.test_case "corpus: joins/groups domain-invariant" `Quick
          test_corpus_domain_invariance;
        Alcotest.test_case "udf tally exact across domains" `Quick test_udf_tally_exact;
        Alcotest.test_case "zipf skew: groupBy/join invariant across domains x chunks"
          `Quick test_skew_differential;
        Alcotest.test_case "corpus: joins/groups chunk-invariant" `Quick
          test_corpus_chunk_invariance;
        prop_random_chunk_sizes;
        Alcotest.test_case "steal/chunk counters in report surface" `Quick
          test_steal_counters_reported;
        prop_skew_alpha;
        Alcotest.test_case "TPC-H Q1 20x deterministic under 4 domains" `Quick
          test_q1_determinism;
        Alcotest.test_case "TPC-H Q3 20x deterministic under 4 domains" `Quick
          test_q3_determinism;
        Alcotest.test_case "TPC-H Q1 20x deterministic: 8 domains + chaos" `Quick
          test_q1_determinism_chaos_stealing;
        Alcotest.test_case "TPC-H Q3 20x deterministic: 8 domains + chaos" `Quick
          test_q3_determinism_chaos_stealing;
        Alcotest.test_case "fault recovery domain-independent" `Quick
          test_faults_domain_independent;
        Alcotest.test_case "fault recovery chunk-independent" `Quick
          test_faults_chunk_independent;
        prop_faults_parallel;
        Alcotest.test_case "split PRNG streams on workers" `Quick
          test_split_streams_parallel_deterministic ] ) ]
