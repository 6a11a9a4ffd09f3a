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
  Alcotest.(check (float 0.0)) "hit cost-model time identical"
    r1.Emma.metrics.Metrics.sim_time_s r2.Emma.metrics.Metrics.sim_time_s;
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

(* the cost-model part of a metrics record: host fields zeroed *)
let cost_fields (m : Metrics.t) =
  { m with Metrics.wall_time_s = 0.0; par_stages = 0; par_tasks = 0;
    par_chunks = 0; par_steals = 0; par_steal_misses = 0 }

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
  Alcotest.(check bool) "every cost field equal" true
    (cost_fields via_session.Emma.metrics = cost_fields via_run_on.Emma.metrics);
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
(* Cancellation: token, per-query deadline, and their classification *)
(* ---------------------------------------------------------------- *)

let test_cancel_token () =
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let config = Config.with_trace (Some tracer) Config.default in
  with_session ~config rt @@ fun s ->
  let cancel = Emma.Cancel.create () in
  Emma.Cancel.request ~reason:"tenant went away" cancel;
  let o, _ = Session.submit ~cancel s sum_prog ~tables:[ ("rows", rows 200) ] in
  (match o with
  | Emma.Cancelled { at_s; reason; metrics } ->
      Alcotest.(check string) "reason is the request reason" "tenant went away"
        reason;
      Alcotest.(check (float 0.0)) "at_s is the metrics clock"
        metrics.Metrics.sim_time_s at_s;
      Alcotest.(check int) "cancellation counted" 1
        metrics.Metrics.cancellations;
      Alcotest.(check int) "cache counters stamped on cancel" 1
        metrics.Metrics.plan_cache_misses
  | _ -> Alcotest.fail "expected a cancelled outcome");
  match terminal_instants tracer with
  | [ e ] -> Alcotest.(check string) "terminal instant status" "cancelled" (status_of e)
  | l -> Alcotest.failf "expected exactly one terminal instant, got %d" (List.length l)

let test_deadline_cancels () =
  let rt_big =
    Emma.spark ~cluster:(Cluster.paper_cluster ~data_scale:1e6 ()) ~timeout_s:3600.0 ()
  in
  with_session rt_big @@ fun s ->
  let config = Config.with_deadline_s (Some 0.5) Config.default in
  let o, _ = Session.submit ~config s sum_prog ~tables:[ ("rows", rows 300) ] in
  match o with
  | Emma.Cancelled { at_s; reason; metrics } ->
      Alcotest.(check bool) "clock past the deadline" true (at_s > 0.5);
      Alcotest.(check bool) "reason names the deadline" true
        (String.length reason > 0
        && String.sub reason 0 (min 8 (String.length reason)) = "deadline");
      Alcotest.(check int) "cancellation counted" 1 metrics.Metrics.cancellations
  | _ -> Alcotest.fail "expected the deadline to cancel the query"

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
        Alcotest.test_case "cancel token classifies + keeps linkage" `Quick
          test_cancel_token;
        Alcotest.test_case "deadline_s cancels with the budget reason" `Quick
          test_deadline_cancels;
        Alcotest.test_case "conflicting timeouts are rejected" `Quick
          test_timeout_conflict_rejected;
        Alcotest.test_case "would_hit peeks without counting" `Quick
          test_would_hit_is_uncounted;
        Alcotest.test_case "timeout mid-recovery is classified" `Quick
          test_timeout_mid_recovery_classified ] ) ]
