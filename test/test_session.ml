(* Emma.Session: the reusable engine handle behind run_on and emma serve.

   Covers session lifecycle (owned vs borrowed pools), the plan-cache
   submit path (miss → hit, schema sensitivity, cache counters stamped
   into per-query metrics), run_on as a one-shot session, and the
   failure-path linkage fix: Failed and Timed_out queries still
   surface their Metrics.t and a terminal Trace instant. *)

module S = Emma_lang.Surface
module Value = Emma.Value
module Metrics = Emma.Metrics
module Config = Emma.Config
module Session = Emma.Session
module Cluster = Emma.Cluster
module Trace = Emma_util.Trace

let rows n =
  List.init n (fun i ->
      Value.record [ ("a", Value.Int i); ("b", Value.Int (i mod 5)) ])

let sum_prog =
  S.program
    ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (read "rows")))
    []

let rt = Emma.spark ~timeout_s:3600.0 ()

let with_session ?config rt f =
  let s = Session.create ?config rt in
  Fun.protect ~finally:(fun () -> Session.close s) (fun () -> f s)

let finished = function
  | Emma.Finished r -> r
  | Emma.Failed { reason; _ } -> Alcotest.failf "query failed: %s" reason
  | Emma.Timed_out _ -> Alcotest.fail "query timed out"
  | Emma.Cancelled _ -> Alcotest.fail "query cancelled"

let cache_status =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | Session.Hit -> "Hit"
        | Session.Miss -> "Miss"
        | Session.Uncached -> "Uncached"))
    ( = )

let test_miss_then_hit () =
  with_session ~config:(Config.with_plan_cache (Some 4) Config.default) rt
  @@ fun s ->
  let tables = [ ("rows", rows 40) ] in
  let o1, i1 = Session.submit s sum_prog ~tables in
  let o2, i2 = Session.submit s sum_prog ~tables in
  Alcotest.check cache_status "first submit compiles cold" Session.Miss
    i1.Session.si_cache;
  Alcotest.check cache_status "repeat submit hits" Session.Hit i2.Session.si_cache;
  let r1 = finished o1 and r2 = finished o2 in
  Helpers.check_value "hit value identical" r1.Emma.value r2.Emma.value;
  Alcotest.(check bool) "hit cost metrics identical" true
    (Metrics.cost r1.Emma.metrics = Metrics.cost r2.Emma.metrics);
  Alcotest.(check bool) "hit compile charge is cheaper" true
    (i2.Session.si_compile_s < i1.Session.si_compile_s);
  (* cache counters are stamped into the per-query metrics *)
  Alcotest.(check int) "miss counted" 1 r1.Emma.metrics.Metrics.plan_cache_misses;
  Alcotest.(check int) "hit counted" 1 r2.Emma.metrics.Metrics.plan_cache_hits;
  match Session.plan_cache_stats s with
  | None -> Alcotest.fail "cached session reports no stats"
  | Some st ->
      Alcotest.(check int) "stats hits" 1 st.Emma.Plan_cache.hits;
      Alcotest.(check int) "stats misses" 1 st.Emma.Plan_cache.misses;
      Alcotest.(check int) "stats entries" 1 st.Emma.Plan_cache.entries

let test_uncached_session () =
  with_session ~config:(Config.with_plan_cache None Config.default) rt @@ fun s ->
  let tables = [ ("rows", rows 10) ] in
  let _, i1 = Session.submit s sum_prog ~tables in
  let _, i2 = Session.submit s sum_prog ~tables in
  Alcotest.check cache_status "no cache: first" Session.Uncached i1.Session.si_cache;
  Alcotest.check cache_status "no cache: repeat" Session.Uncached i2.Session.si_cache;
  Alcotest.(check bool) "no stats" true (Session.plan_cache_stats s = None)

let test_schema_sensitivity () =
  let t1 = [ ("rows", rows 10) ] in
  let t2 =
    [ ( "rows",
        List.init 10 (fun i ->
            Value.record
              [ ("a", Value.Int i);
                ("b", Value.Int (i mod 5));
                ("c", Value.Bool true) ]) ) ]
  in
  Alcotest.(check bool) "schema fingerprints differ" true
    (Session.schema_of_tables t1 <> Session.schema_of_tables t2);
  with_session rt @@ fun s ->
  let _, i1 = Session.submit s sum_prog ~tables:t1 in
  let _, i2 = Session.submit s sum_prog ~tables:t2 in
  let _, i3 = Session.submit s sum_prog ~tables:t1 in
  Alcotest.check cache_status "cold" Session.Miss i1.Session.si_cache;
  Alcotest.check cache_status "same plan, new schema misses" Session.Miss
    i2.Session.si_cache;
  Alcotest.check cache_status "original schema still cached" Session.Hit
    i3.Session.si_cache;
  (* same shape, fresh data: still a hit *)
  let _, i4 = Session.submit s sum_prog ~tables:[ ("rows", rows 33) ] in
  Alcotest.check cache_status "same shape over fresh rows hits" Session.Hit
    i4.Session.si_cache

let test_owned_pool_lifecycle () =
  let config = Config.with_domains (Some 2) Config.default in
  let s = Session.create ~config rt in
  let cfg = Session.config s in
  Alcotest.(check bool) "resolved config pins a pool" true (cfg.Config.pool <> None);
  let o, _ = Session.submit s sum_prog ~tables:[ ("rows", rows 20) ] in
  ignore (finished o);
  Session.close s;
  Alcotest.(check pass) "close released the owned pool" () ()

(* The attribution group [Metrics.cost] zeroes. Only [Session.submit]
   (the plan-cache counters) and serve (WAL and recovery) stamp it, after
   the engine run, so the tests below also pin it where they compare two
   runs of the engine. *)
let plan_cache_counters (m : Metrics.t) =
  (m.Metrics.plan_cache_hits, m.Metrics.plan_cache_misses, m.Metrics.plan_cache_evictions)

let wal_counters (m : Metrics.t) =
  (m.Metrics.wal_appends, m.Metrics.wal_bytes, m.Metrics.wal_fsyncs, m.Metrics.recovery_replayed)

(* Domain ids are handed out in spawn order, so the id of a fresh probe
   domain tells how many domains were spawned since the previous probe. *)
let next_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_run_on_equals_session_run () =
  let tables = [ ("rows", rows 40) ] in
  let algo = Emma.parallelize sum_prog in
  let config = Config.(default |> with_udf_mode Interp |> with_max_inflight (Some 1)) in
  let via_session = with_session ~config rt (fun s -> finished (Session.run s algo ~tables)) in
  let via_run_on = Emma.run_on_exn ~config rt algo ~tables in
  Helpers.check_value "values equal" via_session.Emma.value via_run_on.Emma.value;
  let a = via_session.Emma.metrics and b = via_run_on.Emma.metrics in
  Alcotest.(check bool) "every cost field equal" true (Metrics.cost a = Metrics.cost b);
  Alcotest.(check bool) "no attribution stamped by run" true
    (plan_cache_counters a = plan_cache_counters b && wal_counters a = wal_counters b);
  (* config.domains is a session concern: run_on borrows the ambient pool *)
  ignore (Emma.Pool.default ());
  let before = next_domain_id () in
  ignore (Emma.run_on_exn ~config:(Config.with_domains (Some 3) config) rt algo ~tables);
  Alcotest.(check int) "run_on spawned no pool domain" (before + 1)
    (next_domain_id ())

let terminal_instants tracer =
  List.filter
    (fun (e : Trace.event) ->
      e.Trace.ev_name = "query_terminal" && e.Trace.ev_cat = "session")
    (Trace.events tracer)

let status_of (e : Trace.event) =
  match List.assoc_opt "status" e.Trace.ev_args with
  | Some (Trace.A_str s) -> s
  | _ -> "?"

let test_timeout_keeps_linkage () =
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let config = Config.with_trace (Some tracer) Config.default in
  let rt =
    Emma.spark
      ~cluster:(Cluster.paper_cluster ~data_scale:1e6 ())
      ~timeout_s:0.5 ()
  in
  with_session ~config rt @@ fun s ->
  let o, _ = Session.submit s sum_prog ~tables:[ ("rows", rows 300) ] in
  (match o with
  | Emma.Timed_out { at_s; metrics } ->
      Alcotest.(check bool) "clock past limit" true (at_s > 0.5);
      Alcotest.(check bool) "partial metrics surfaced" true
        (metrics.Metrics.sim_time_s >= 0.0);
      Alcotest.(check int) "cache counters stamped on timeout" 1
        (metrics.Metrics.plan_cache_misses)
  | _ -> Alcotest.fail "expected a timeout");
  match terminal_instants tracer with
  | [ e ] -> Alcotest.(check string) "terminal instant status" "timed_out" (status_of e)
  | l -> Alcotest.failf "expected exactly one terminal instant, got %d" (List.length l)

(* a grouping program reserves per-key state, so a budget far below its
   peak OOM-fails even after the retry ladder (no spilling) *)
let group_prog =
  S.program
    ~ret:S.(count (var "d"))
    [ S.s_let "d"
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
            ~yield:
              (record
                 [ ( "a",
                     sum
                       (map (lam "x" (fun x -> field x "a")) (field (var "g") "values"))
                   );
                   ("b", field (var "g") "key") ])) ]

let test_failure_keeps_linkage () =
  let unbounded = Emma.run_on_exn rt (Emma.parallelize group_prog)
      ~tables:[ ("rows", rows 200) ] in
  let peak = unbounded.Emma.metrics.Metrics.mem_peak_bytes in
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let config =
    Config.default
    |> Config.with_trace (Some tracer)
    |> Config.with_mem_budget (Some (0.4 *. peak)) (* below the retry ladder *)
  in
  with_session ~config rt @@ fun s ->
  let o, _ = Session.submit s group_prog ~tables:[ ("rows", rows 200) ] in
  (match o with
  | Emma.Failed { reason; metrics } ->
      Alcotest.(check bool) "reason is non-empty" true (String.length reason > 0);
      Alcotest.(check bool) "partial metrics surfaced" true
        (metrics.Metrics.sim_time_s >= 0.0);
      Alcotest.(check int) "cache counters stamped on failure" 1
        metrics.Metrics.plan_cache_misses
  | Emma.Finished _ -> Alcotest.fail "expected an OOM failure"
  | Emma.Timed_out _ -> Alcotest.fail "expected a failure, not a timeout"
  | Emma.Cancelled _ -> Alcotest.fail "expected a failure, not a cancellation");
  match terminal_instants tracer with
  | [ e ] -> Alcotest.(check string) "terminal instant status" "failed" (status_of e)
  | l -> Alcotest.failf "expected exactly one terminal instant, got %d" (List.length l)

let test_finished_emits_terminal () =
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let config = Config.with_trace (Some tracer) Config.default in
  with_session ~config rt @@ fun s ->
  let o, _ = Session.submit s sum_prog ~tables:[ ("rows", rows 10) ] in
  ignore (finished o);
  match terminal_instants tracer with
  | [ e ] -> Alcotest.(check string) "terminal instant status" "finished" (status_of e)
  | l -> Alcotest.failf "expected exactly one terminal instant, got %d" (List.length l)

(* ---------------------------------------------------------------- *)
(* Cancellation: the per-query deadline and its classification        *)
(* ---------------------------------------------------------------- *)

let test_deadline_cancels () =
  let rt_big =
    Emma.spark ~cluster:(Cluster.paper_cluster ~data_scale:1e6 ()) ~timeout_s:3600.0 ()
  in
  with_session rt_big @@ fun s ->
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let config =
    Config.(default |> with_deadline_s (Some 0.5) |> with_trace (Some tracer))
  in
  let o, _ = Session.submit ~config s sum_prog ~tables:[ ("rows", rows 300) ] in
  (match o with
  | Emma.Cancelled { at_s; reason; metrics } ->
      Alcotest.(check bool) "clock past the deadline" true (at_s > 0.5);
      Alcotest.(check (float 0.0)) "at_s is the metrics clock"
        metrics.Metrics.sim_time_s at_s;
      Alcotest.(check bool) "reason names the deadline" true
        (String.length reason > 0
        && String.sub reason 0 (min 8 (String.length reason)) = "deadline");
      Alcotest.(check int) "cancellation counted" 1 metrics.Metrics.cancellations;
      Alcotest.(check int) "cache counters stamped on cancel" 1
        metrics.Metrics.plan_cache_misses
  | _ -> Alcotest.fail "expected the deadline to cancel the query");
  match terminal_instants tracer with
  | [ e ] -> Alcotest.(check string) "terminal instant status" "cancelled" (status_of e)
  | l -> Alcotest.failf "expected exactly one terminal instant, got %d" (List.length l)

let test_timeout_conflict_rejected () =
  (* one validated source of truth: runtime knob and Config may not disagree *)
  let rt10 = Emma.spark ~timeout_s:10.0 () in
  let conflicting = Config.with_timeout_s (Some 20.0) Config.default in
  (match Session.create ~config:conflicting rt10 with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names both values" true
        (String.length msg > 0)
  | s ->
      Session.close s;
      Alcotest.fail "conflicting timeouts should be rejected");
  (* equal values are fine, and either side alone wins *)
  let agreeing = Config.with_timeout_s (Some 10.0) Config.default in
  let s = Session.create ~config:agreeing rt10 in
  Alcotest.(check (option (float 0.0))) "agreeing timeout resolves"
    (Some 10.0) (Session.config s).Config.timeout_s;
  Session.close s;
  let s = Session.create ~config:(Config.with_timeout_s (Some 7.0) Config.default)
      (Emma.spark ()) in
  Alcotest.(check (option (float 0.0))) "config-only timeout wins"
    (Some 7.0) (Session.config s).Config.timeout_s;
  Session.close s;
  let s = Session.create rt10 in
  Alcotest.(check (option (float 0.0))) "runtime-only timeout wins"
    (Some 10.0) (Session.config s).Config.timeout_s;
  Session.close s

let test_would_hit_is_uncounted () =
  with_session ~config:(Config.with_plan_cache (Some 4) Config.default) rt
  @@ fun s ->
  let tables = [ ("rows", rows 20) ] in
  Alcotest.(check bool) "cold cache: no hit" false
    (Session.would_hit s sum_prog ~tables);
  let _ = Session.submit s sum_prog ~tables in
  Alcotest.(check bool) "after a submit: would hit" true
    (Session.would_hit s sum_prog ~tables);
  (* peeking never moves the counted stats *)
  let before = Session.plan_cache_stats s in
  for _ = 1 to 5 do
    ignore (Session.would_hit s sum_prog ~tables)
  done;
  Alcotest.(check bool) "peeks left stats untouched" true
    (Session.plan_cache_stats s = before);
  (* an uncached session never would-hits *)
  with_session ~config:(Config.with_plan_cache None Config.default) rt
  @@ fun s2 ->
  ignore (Session.submit s2 sum_prog ~tables);
  Alcotest.(check bool) "uncached session: never" false
    (Session.would_hit s2 sum_prog ~tables)

(* The session memoizes plan-cache keys. A warm probe must not run the
   front end again: before the memo, [would_hit] on Q1 allocated about
   73k words, all of it the key. *)
let test_would_hit_warm_allocation () =
  let e = Option.get (Registry.find "q1") in
  let tables = e.Registry.tables () in
  with_session ~config:(Config.with_plan_cache (Some 4) Config.default) rt
  @@ fun s ->
  ignore (finished (fst (Session.submit s e.Registry.program ~tables)));
  let w0 = Gc.minor_words () in
  let hit = Session.would_hit s e.Registry.program ~tables in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "submitted Q1 would hit" true hit;
  if words > 1000.0 then
    Alcotest.failf "warm would_hit allocated %.0f words (at most 1000)" words

(* A fresh, physically distinct program, structurally equal to every
   other [add_prog k]. *)
let add_prog k =
  S.program
    ~ret:S.(sum (map (lam "x" (fun x -> field x "a" + int_ k)) (read "rows")))
    []

let test_key_memo_matches () =
  with_session ~config:(Config.with_plan_cache (Some 8) Config.default) rt
  @@ fun s ->
  let tables = [ ("rows", rows 20) ] in
  let status ?opts ?(tables = tables) p =
    (snd (Session.submit ?opts s p ~tables)).Session.si_cache
  in
  let p = add_prog 1 and copy = add_prog 1 in
  Alcotest.(check bool) "the copy is a distinct value" true (p != copy);
  Alcotest.check cache_status "cold" Session.Miss (status p);
  Alcotest.check cache_status "structurally equal copy hits" Session.Hit
    (status copy);
  Alcotest.check cache_status "changed schema misses" Session.Miss
    (status p ~tables:[ ("rows", [ Value.record [ ("a", Value.Int 1) ] ]) ]);
  let no_fuse = Emma.Pipeline.with_ ~fuse:false () in
  Alcotest.(check bool) "changed opts would not hit" false
    (Session.would_hit ~opts:no_fuse s p ~tables);
  Alcotest.check cache_status "changed opts misses" Session.Miss
    (status ~opts:no_fuse p);
  Alcotest.check cache_status "original key still hits" Session.Hit (status p);
  (* 0.0 = -0.0 structurally, yet the two constants print, and so key,
     differently *)
  let const c = S.program ~ret:S.(sum (map (lam "x" (fun _ -> float_ c)) (read "rows"))) [] in
  Alcotest.check cache_status "0.0 compiles cold" Session.Miss (status (const 0.0));
  Alcotest.check cache_status "-0.0 compiles cold" Session.Miss (status (const (-0.0)))

let test_plan_key_is_normalized_key () =
  let check s (e : Registry.entry) what =
    let tables = e.Registry.tables () in
    let expected =
      (Emma.Pipeline.normalized_key ~schema:(Session.schema_of_tables tables)
         e.Registry.program)
        .Emma.Pipeline.ck_text
    in
    Alcotest.(check string)
      (Printf.sprintf "%s: plan_key, %s" e.Registry.name what)
      expected
      (Session.plan_key s e.Registry.program ~tables)
  in
  with_session ~config:(Config.with_plan_cache (Some 16) Config.default) rt
  @@ fun s ->
  List.iter (fun e -> check s e "cold memo") Registry.all;
  List.iter (fun e -> check s e "warm memo") Registry.all;
  with_session ~config:(Config.with_plan_cache None Config.default) rt
  @@ fun s -> List.iter (fun e -> check s e "uncached session") Registry.all

(* More distinct programs than the cache (and so the key memo) holds:
   every submission's verdict, eviction count and the final stats equal
   a reference run whose programs are all fresh copies, which the memo
   never matches. *)
let test_key_memo_past_capacity () =
  let tables = [ ("rows", rows 10) ] in
  let order = [ 0; 1; 2; 0; 3; 1; 4; 0; 2; 2; 3; 0; 1; 4; 4; 1 ] in
  let trace pick =
    with_session ~config:(Config.with_plan_cache (Some 2) Config.default) rt
    @@ fun s ->
    let steps =
      List.map
        (fun k ->
          let peek = Session.would_hit s (pick k) ~tables in
          let _, i = Session.submit s (pick k) ~tables in
          (peek, i.Session.si_cache, i.Session.si_evictions))
        order
    in
    (steps, Session.plan_cache_stats s, Session.plan_cache_keys s)
  in
  let progs = Array.init 5 add_prog in
  let memo = trace (fun k -> progs.(k)) and reference = trace add_prog in
  Alcotest.(check bool) "same verdicts, evictions, stats and keys" true (memo = reference);
  let steps, stats, _ = reference in
  Alcotest.(check int) "the reference run hits" 3
    (List.length (List.filter (fun (_, c, _) -> c = Session.Hit) steps));
  Alcotest.(check bool) "the reference run evicts" true
    (match stats with Some st -> st.Emma.Plan_cache.evictions > 0 | None -> false)

(* exec.mli documents that [timeout_s] fires mid-recovery: recovery
   charges (retry backoff) flow through the same clock the timeout
   watches. Classified-outcome version of the raw-engine test in
   test_faults.ml: the session surfaces Timed_out with the partial
   metrics proving retries had already started. *)
let loop_prog iters =
  S.program
    ~ret:(S.var "acc")
    [ S.s_let "xs" S.(map (lam "x" (fun x -> field x "a")) (read "rows"));
      S.s_var "acc" (S.int_ 0);
      S.s_var "i" (S.int_ 0);
      S.while_
        S.(var "i" < int_ iters)
        [ S.assign "acc" S.(var "acc" + sum (var "xs"));
          S.assign "i" S.(var "i" + int_ 1) ] ]

let test_timeout_mid_recovery_classified () =
  let slow_retries =
    let l = Cluster.laptop () in
    { l with
      Cluster.recovery =
        { l.Cluster.recovery with Cluster.retry_backoff_s = 30.0 } }
  in
  let rt = { (Emma.spark ()) with Emma.Session.cluster = slow_retries } in
  let tables = [ ("rows", rows 20) ] in
  let storm =
    Emma.Faults.scripted
      (List.init 8 (fun part ->
           Emma.Faults.Task_fail { barrier = 1; part; attempts = 3 }))
  in
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  (* clean run prices the deadline; the storm must blow past it *)
  let m_clean =
    with_session rt @@ fun s ->
    let o, _ = Session.submit s (loop_prog 3) ~tables in
    (finished o).Emma.metrics
  in
  let deadline = m_clean.Metrics.sim_time_s +. 10.0 in
  let config =
    Config.default
    |> Config.with_faults storm
    |> Config.with_timeout_s (Some deadline)
    |> Config.with_trace (Some tracer)
  in
  with_session ~config rt @@ fun s ->
  let o, _ = Session.submit s (loop_prog 3) ~tables in
  (match o with
  | Emma.Timed_out { at_s; metrics } ->
      Alcotest.(check bool) "aborted past the deadline" true (at_s >= deadline);
      Alcotest.(check bool) "retries had started: timeout landed mid-recovery"
        true (metrics.Metrics.retries > 0);
      Alcotest.(check (float 0.0)) "at_s is the metrics clock"
        metrics.Metrics.sim_time_s at_s
  | _ -> Alcotest.fail "retry storm should have hit the timeout");
  match terminal_instants tracer with
  | [ e ] -> Alcotest.(check string) "terminal instant status" "timed_out" (status_of e)
  | l -> Alcotest.failf "expected exactly one terminal instant, got %d" (List.length l)

(* ---------------------------------------------------------------- *)
(* The per-session Read memo                                          *)
(* ---------------------------------------------------------------- *)

module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival
module Pool = Emma_util.Pool

(* the plan-cache stamps legitimately differ between a warm session (hit)
   and a fresh one (miss) *)
let memo_cost (m : Metrics.t) = (Metrics.cost m, wal_counters m)

let keys n = List.init n (fun i -> Value.record [ ("a", Value.Int i) ])

(* keeps its table read inside the filter UDF when unnesting is off, so
   the read is priced as a broadcast by the worker-side environment *)
let keys_prog =
  S.program
    ~ret:
      S.(
        count
          (with_filter
             (lam "x" (fun x ->
                  exists (lam "y" (fun y -> field y "a" = field x "b")) (read "keys")))
             (read "rows")))
    []

let memo_cases () =
  let entry name = Option.get (Registry.find name) in
  let q3 = entry "q3" and gm = entry "group-min" in
  let data = rows 60 in
  [ ("sum", None, sum_prog, [ ("rows", data) ]);
    ( "udf read",
      Some (Emma_compiler.Pipeline.with_ ~unnest:false ()),
      keys_prog,
      [ ("rows", data); ("keys", keys 3) ] );
    ("q3", None, q3.Registry.program, q3.Registry.tables ());
    ("group-min", None, gm.Registry.program, gm.Registry.tables ()) ]

let submit_case ?cluster s (_, opts, prog, tables) =
  finished (fst (Session.submit ?opts ?cluster s prog ~tables))

let check_same_run name (expected : Emma.run_result) (got : Emma.run_result) =
  Helpers.check_value (name ^ ": value") expected.Emma.value got.Emma.value;
  if memo_cost expected.Emma.metrics <> memo_cost got.Emma.metrics then
    Alcotest.failf "%s: cost fields differ from a fresh session's" name

let test_memo_repeat_equals_fresh () =
  let cases = memo_cases () in
  let fresh = List.map (fun c -> with_session rt (fun s -> submit_case s c)) cases in
  List.iter2
    (fun (name, _, _, _) (r : Emma.run_result) ->
      if name = "udf read" then
        Alcotest.(check bool) "the UDF's table read is broadcast" true
          (r.Emma.metrics.Metrics.broadcast_bytes > 0.0))
    cases fresh;
  with_session rt @@ fun s ->
  for round = 1 to 2 do
    List.iter2
      (fun ((name, _, _, _) as c) expected ->
        check_same_run (Printf.sprintf "%s, submit %d" name round) expected (submit_case s c))
      cases fresh
  done

let test_memo_replaced_table () =
  with_session rt @@ fun s ->
  let run data = finished (fst (Session.submit s sum_prog ~tables:[ ("rows", data) ])) in
  let first = run (rows 40) in
  (* same length and byte sizes, different values *)
  let doubled =
    List.init 40 (fun i -> Value.record [ ("a", Value.Int (2 * i)); ("b", Value.Int (i mod 5)) ])
  in
  let second = run doubled in
  Helpers.check_value "first table's sum" (Value.Int 780) first.Emma.value;
  Helpers.check_value "replaced table's sum" (Value.Int 1560) second.Emma.value;
  let shorter = run (rows 10) in
  Helpers.check_value "shorter table's sum" (Value.Int 45) shorter.Emma.value;
  check_same_run "shorter table"
    (with_session rt (fun s' ->
         finished (fst (Session.submit s' sum_prog ~tables:[ ("rows", rows 10) ]))))
    shorter

(* The serve degradation ladder's half-dop slice, and a rescaled cluster:
   each must price its reads like a fresh session, and the full-size run
   after them too. *)
let test_memo_half_dop () =
  let cluster = Cluster.laptop () in
  let half = { cluster with Cluster.slots_per_node = max 1 (cluster.Cluster.slots_per_node / 2) } in
  let scaled = { cluster with Cluster.data_scale = 4.0 } in
  Alcotest.(check bool) "half the dop" true (Cluster.dop half < Cluster.dop cluster);
  let cases = memo_cases () in
  with_session rt @@ fun s ->
  List.iter
    (fun ((name, _, _, _) as c) ->
      let fresh cluster = with_session rt (fun f -> submit_case ~cluster f c) in
      let full = fresh cluster in
      check_same_run (name ^ ", warm") full (submit_case ~cluster s c);
      check_same_run (name ^ ", half dop on a warm session") (fresh half)
        (submit_case ~cluster:half s c);
      check_same_run (name ^ ", scale 4 on a warm session") (fresh scaled)
        (submit_case ~cluster:scaled s c);
      check_same_run (name ^ ", full dop again") full (submit_case ~cluster s c))
    cases

(* Per-query values and cost fields in submission order. *)
let result_fingerprint results =
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) results
  |> List.map (fun (sub, query, outcome) ->
         let m = Emma.metrics_of_outcome outcome in
         let value =
           match outcome with
           | Emma.Finished { value; _ } -> Value.to_display value
           | _ -> "not finished"
         in
         Printf.sprintf "sub=%d query=%s value=%s sim=%h shuffle=%h broadcast=%h dfs=%h stages=%d"
           sub query value m.Metrics.sim_time_s m.Metrics.shuffle_bytes
           m.Metrics.broadcast_bytes m.Metrics.dfs_read_bytes m.Metrics.stages)
  |> String.concat "\n"

let test_memo_concurrent_lanes () =
  (* one physical table shared by every query, so the lanes race on the
     same memo entry *)
  let shared = rows 80 in
  let workload =
    [ ("sum", (sum_prog, [ ("rows", shared) ]));
      ("count", (S.program ~ret:S.(count (read "rows")) [], [ ("rows", shared) ]));
      ("keys", (keys_prog, [ ("rows", shared); ("keys", keys 3) ])) ]
  in
  let names = [ "a"; "b"; "c"; "d" ] in
  let tenants = List.map (fun n -> Serve.tenant n) names in
  let events =
    List.mapi (fun sub e -> (sub, e))
      (Arrival.generate ~seed:9 ~rate:4.0 ~alpha:1.1 ~tenants:names
         ~queries:(List.map fst workload) ~n:24)
  in
  let reference =
    with_session rt (fun s ->
        (Serve.run_sim s tenants workload (List.map snd events)).Serve.sv_results
        |> List.map (fun (r : Serve.query_result) ->
               (r.Serve.qr_sub, r.Serve.qr_query, r.Serve.qr_outcome))
        |> result_fingerprint)
  in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let config = Config.with_pool (Some pool) Config.default in
      let got =
        with_session ~config rt (fun s ->
            (* one host domain per tenant lane, each submitting its
               tenant's share of the trace in order *)
            List.map
              (fun name ->
                Domain.spawn (fun () ->
                    List.filter_map
                      (fun (sub, (e : Arrival.event)) ->
                        if e.Arrival.tenant <> name then None
                        else
                          let prog, tables = List.assoc e.Arrival.query workload in
                          Some (sub, e.Arrival.query, fst (Session.submit s prog ~tables)))
                      events))
              names
            |> List.concat_map Domain.join |> result_fingerprint)
      in
      if got <> reference then
        Alcotest.failf "concurrent lanes at %d domains moved the fingerprint" domains)
    [ 2; 4; 8 ]

let suite =
  [ ( "session",
      [ Alcotest.test_case "submit: miss then hit, metrics stamped" `Quick
          test_miss_then_hit;
        Alcotest.test_case "uncached session never hits" `Quick test_uncached_session;
        Alcotest.test_case "schema change misses, same shape hits" `Quick
          test_schema_sensitivity;
        Alcotest.test_case "config.domains owns a pool across close" `Quick
          test_owned_pool_lifecycle;
        Alcotest.test_case "run_on == Session.run" `Quick
          test_run_on_equals_session_run;
        Alcotest.test_case "timeout keeps metrics + terminal trace" `Quick
          test_timeout_keeps_linkage;
        Alcotest.test_case "failure keeps metrics + terminal trace" `Quick
          test_failure_keeps_linkage;
        Alcotest.test_case "finished queries emit the terminal instant" `Quick
          test_finished_emits_terminal;
        Alcotest.test_case "deadline_s cancels with the budget reason" `Quick
          test_deadline_cancels;
        Alcotest.test_case "conflicting timeouts are rejected" `Quick
          test_timeout_conflict_rejected;
        Alcotest.test_case "would_hit peeks without counting" `Quick
          test_would_hit_is_uncounted;
        Alcotest.test_case "key memo: warm would_hit allocates little" `Quick
          test_would_hit_warm_allocation;
        Alcotest.test_case "key memo: identity, schema and opts" `Quick
          test_key_memo_matches;
        Alcotest.test_case "key memo: plan_key = normalized_key" `Quick
          test_plan_key_is_normalized_key;
        Alcotest.test_case "key memo: past capacity = reference" `Quick
          test_key_memo_past_capacity;
        Alcotest.test_case "timeout mid-recovery is classified" `Quick
          test_timeout_mid_recovery_classified;
        Alcotest.test_case "read memo: repeat submits == fresh sessions" `Quick
          test_memo_repeat_equals_fresh;
        Alcotest.test_case "read memo: replaced table is re-read" `Quick
          test_memo_replaced_table;
        Alcotest.test_case "read memo: half dop on a warm session" `Quick
          test_memo_half_dop;
        Alcotest.test_case "read memo: concurrent lanes at 2/4/8 domains" `Quick
          test_memo_concurrent_lanes ] ) ]
