(* Emma_serve + Plan_cache correctness.

   - qcheck differential: for random pipelines, a plan-cache hit is
     bit-identical to a cold compile — value and cost-model metrics — at
     1, 2, 4 and 8 domains;
   - key sensitivity: the cache key moves with the plan, the compile
     opts and the table schema, and nothing else;
   - LRU eviction is deterministic (recency order, refreshed by probes);
   - the fair-share scheduler is starvation-free: a light tenant's
     queries are not parked behind a flooding tenant's backlog;
   - the sim-mode replay fingerprint is invariant across 20 replays and
     across 1/2/4/8-domain pools;
   - Arrival traces round-trip through the text format and reject
     malformed lines with one-line errors. *)

module S = Emma_lang.Surface
module Value = Emma.Value
module Metrics = Emma.Metrics
module Config = Emma.Config
module Session = Emma.Session
module Plan_cache = Emma.Plan_cache
module Pipeline = Emma_compiler.Pipeline
module Pool = Emma_util.Pool
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival

let rows n =
  List.init n (fun i ->
      Value.record [ ("a", Value.Int i); ("b", Value.Int (i mod 5)) ])

let sum_prog =
  S.program
    ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (read "rows")))
    []

let count_prog = S.program ~ret:S.(count (read "rows")) []
let rt = Emma.spark ~timeout_s:3600.0 ()

let with_session ?config rt f =
  let s = Session.create ?config rt in
  Fun.protect ~finally:(fun () -> Session.close s) (fun () -> f s)

let finished_exn = function
  | Emma.Finished r -> r
  | Emma.Failed { reason; _ } -> Alcotest.failf "query failed: %s" reason
  | Emma.Timed_out _ -> Alcotest.fail "query timed out"
  | Emma.Cancelled _ -> Alcotest.fail "query cancelled"

(* ---------------------------------------------------------------- *)
(* qcheck differential: hit == cold, bit-identical, at 1/2/4/8 domains *)
(* ---------------------------------------------------------------- *)

let prop_cached_equals_cold (e, data) =
  let prog = S.program ~ret:e [] in
  let tables = [ ("rows", data) ] in
  let reference = ref None in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let config =
        Config.default |> Config.with_pool (Some pool)
        |> Config.with_plan_cache (Some 4)
      in
      with_session ~config rt @@ fun s ->
      let o_cold, i_cold = Session.submit s prog ~tables in
      let o_hit, i_hit = Session.submit s prog ~tables in
      if i_cold.Session.si_cache <> Session.Miss then
        QCheck2.Test.fail_report "first submit did not miss";
      if i_hit.Session.si_cache <> Session.Hit then
        QCheck2.Test.fail_report "second submit did not hit";
      let r_cold = finished_exn o_cold and r_hit = finished_exn o_hit in
      if not (Value.equal r_cold.Emma.value r_hit.Emma.value) then
        QCheck2.Test.fail_report "cached value differs from cold compile";
      if Metrics.cost r_cold.Emma.metrics <> Metrics.cost r_hit.Emma.metrics then
        QCheck2.Test.fail_report "cached cost metrics differ from cold compile";
      (* and both match the reference from the first domain count *)
      match !reference with
      | None -> reference := Some (r_cold.Emma.value, Metrics.cost r_cold.Emma.metrics)
      | Some (v0, c0) ->
          if not (Value.equal v0 r_cold.Emma.value) then
            QCheck2.Test.fail_reportf "value moved at %d domains" domains;
          if c0 <> Metrics.cost r_cold.Emma.metrics then
            QCheck2.Test.fail_reportf "cost metrics moved at %d domains" domains)
    [ 1; 2; 4; 8 ];
  true

let qcheck_differential =
  Helpers.qcheck_case ~count:15 "plan-cache hit == cold compile at 1/2/4/8 domains"
    QCheck2.Gen.(pair Helpers.terminated_pipeline_gen Helpers.rows_gen)
    prop_cached_equals_cold

(* ---------------------------------------------------------------- *)
(* Key sensitivity                                                    *)
(* ---------------------------------------------------------------- *)

let test_key_sensitivity () =
  let k = Pipeline.normalized_key in
  let same a b = a.Pipeline.ck_text = b.Pipeline.ck_text in
  Alcotest.(check bool) "same program, same key" true (same (k sum_prog) (k sum_prog));
  Alcotest.(check bool) "different program, different key" false
    (same (k sum_prog) (k count_prog));
  Alcotest.(check bool) "opts move the key" false
    (same (k ~opts:Pipeline.default_opts sum_prog) (k ~opts:Pipeline.no_opts sum_prog));
  Alcotest.(check bool) "schema moves the key" false
    (same (k ~schema:"rows=bag<{a:int}>" sum_prog) (k ~schema:"rows=bag<{a:float}>" sum_prog));
  Alcotest.(check bool) "crc follows the text" true
    ((k sum_prog).Pipeline.ck_crc = (k sum_prog).Pipeline.ck_crc)

(* ---------------------------------------------------------------- *)
(* LRU determinism                                                    *)
(* ---------------------------------------------------------------- *)

let test_lru_eviction_deterministic () =
  let plan = Pipeline.compile count_prog in
  let key s = { Pipeline.ck_crc = String.length s; ck_text = s } in
  let pc = Plan_cache.create ~capacity:2 in
  Alcotest.(check int) "store k1" 0 (Plan_cache.store pc (key "k1") plan);
  Alcotest.(check int) "store k2" 0 (Plan_cache.store pc (key "k2") plan);
  (* refresh k1: k2 becomes the least recently used entry *)
  Alcotest.(check bool) "probe k1 hits" true (Plan_cache.probe pc (key "k1") <> None);
  Alcotest.(check int) "store k3 evicts one" 1 (Plan_cache.store pc (key "k3") plan);
  Alcotest.(check bool) "k2 was the victim" true (Plan_cache.probe pc (key "k2") = None);
  Alcotest.(check bool) "k1 survived" true (Plan_cache.probe pc (key "k1") <> None);
  Alcotest.(check bool) "k3 resident" true (Plan_cache.probe pc (key "k3") <> None);
  let st = Plan_cache.stats pc in
  Alcotest.(check int) "evictions counted" 1 st.Plan_cache.evictions;
  Alcotest.(check int) "population at capacity" 2 st.Plan_cache.entries;
  (* same crc, different text: a collision must not alias *)
  let k_a = { Pipeline.ck_crc = 42; ck_text = "alpha" } in
  let k_b = { Pipeline.ck_crc = 42; ck_text = "bravo" } in
  let pc2 = Plan_cache.create ~capacity:4 in
  ignore (Plan_cache.store pc2 k_a plan);
  Alcotest.(check bool) "crc collision does not alias" true
    (Plan_cache.probe pc2 k_b = None)

let test_plan_cache_capacity_validated () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Plan_cache.create: capacity must be >= 1") (fun () ->
      ignore (Plan_cache.create ~capacity:0))

(* ---------------------------------------------------------------- *)
(* Serve: fixtures                                                    *)
(* ---------------------------------------------------------------- *)

let workload =
  [ ("sum", (sum_prog, [ ("rows", rows 30) ]));
    ("count", (count_prog, [ ("rows", rows 30) ])) ]

let tenants = [ Serve.tenant ~weight:2 "acme"; Serve.tenant "beta" ]

let small_trace =
  Arrival.generate ~seed:5 ~rate:3.0 ~alpha:1.1 ~tenants:[ "acme"; "beta" ]
    ~queries:[ "sum"; "count" ] ~n:12

let sim ?(pool : Pool.t option) ?(config = Config.default) events =
  let config =
    match pool with None -> config | Some p -> Config.with_pool (Some p) config
  in
  with_session ~config rt @@ fun s -> Serve.run_sim s tenants workload events

(* ---------------------------------------------------------------- *)
(* Replay invariance                                                  *)
(* ---------------------------------------------------------------- *)

let test_replay_fingerprint_20x () =
  let fp0 = Serve.fingerprint (sim small_trace) in
  for i = 2 to 20 do
    let fp = Serve.fingerprint (sim small_trace) in
    if fp <> fp0 then Alcotest.failf "replay %d produced a different fingerprint" i
  done

let test_replay_fingerprint_across_domains () =
  let fp0 = Serve.fingerprint (sim small_trace) in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let fp = Serve.fingerprint (sim ~pool small_trace) in
      if fp <> fp0 then Alcotest.failf "fingerprint moved at %d domains" domains)
    [ 1; 2; 4; 8 ]

(* ---------------------------------------------------------------- *)
(* Fair share                                                         *)
(* ---------------------------------------------------------------- *)

let test_starvation_freedom () =
  (* tenant "acme" floods 24 queries at t=0; "beta" submits 3. On one
     service lane, deficit round-robin must interleave beta instead of
     parking it behind the flood. *)
  let flood =
    List.init 24 (fun _ -> { Arrival.at_s = 0.0; tenant = "acme"; query = "count" })
  in
  let light =
    List.init 3 (fun _ -> { Arrival.at_s = 0.0; tenant = "beta"; query = "count" })
  in
  let events = flood @ light in
  let config =
    Config.default |> Config.with_max_inflight (Some 1)
    |> Config.with_plan_cache (Some 4)
  in
  let c = sim ~config events in
  Alcotest.(check int) "every query ran" 27 (List.length c.Serve.sv_results);
  Alcotest.(check int) "one lane" 1 c.Serve.sv_lanes;
  let beta_last_finish =
    List.fold_left
      (fun acc (r : Serve.query_result) ->
        if r.Serve.qr_tenant = "beta" then max acc r.Serve.qr_finish_s else acc)
      0.0 c.Serve.sv_results
  in
  Alcotest.(check bool) "light tenant finishes well before the makespan" true
    (beta_last_finish < 0.5 *. c.Serve.sv_makespan_s);
  (* per-tenant accounting adds up *)
  List.iter
    (fun (tc : Serve.tenant_counters) ->
      let expect = if tc.Serve.tc_name = "acme" then 24 else 3 in
      Alcotest.(check int) (tc.Serve.tc_name ^ " admissions") expect
        tc.Serve.tc_admissions)
    c.Serve.sv_tenants

(* ---------------------------------------------------------------- *)
(* Overload control: shedding, breakers, ladder, drain                *)
(* ---------------------------------------------------------------- *)

let one_lane =
  Config.default |> Config.with_max_inflight (Some 1)
  |> Config.with_plan_cache (Some 8)

let flood ~tenant ~query n = List.init n (fun _ -> { Arrival.at_s = 0.0; tenant; query })

let sim_policy ?(config = one_lane) ~policy events ~workload =
  with_session ~config rt @@ fun s -> Serve.run_sim ~policy s tenants workload events

let count_shed reason c =
  List.length
    (List.filter (fun (sh : Serve.shed_record) -> sh.Serve.sh_reason = reason)
       c.Serve.sv_shed)

let test_deadline_sheds_and_cancels () =
  (* price one query, then set a budget half its service time: the first
     dispatch is cancelled mid-run at the engine safepoint, and every
     queued query's wait alone exceeds the budget, so the rest shed *)
  let baseline =
    sim_policy ~policy:Serve.no_policy ~workload (flood ~tenant:"acme" ~query:"count" 1)
  in
  let service = (List.hd baseline.Serve.sv_results).Serve.qr_service_s in
  let deadline = 0.5 *. service in
  let policy = { Serve.no_policy with Serve.pl_deadline_s = Some deadline } in
  let c = sim_policy ~policy ~workload (flood ~tenant:"acme" ~query:"count" 10) in
  Alcotest.(check int) "every submission accounted" 10
    (List.length c.Serve.sv_results + List.length c.Serve.sv_shed);
  Alcotest.(check int) "one query was admitted" 1 (List.length c.Serve.sv_results);
  (match (List.hd c.Serve.sv_results).Serve.qr_outcome with
  | Emma.Cancelled { at_s; _ } ->
      Alcotest.(check bool) "cancelled past the budget" true (at_s > deadline)
  | _ -> Alcotest.fail "the admitted query should be cancelled mid-run");
  Alcotest.(check int) "the rest shed on queue wait" 9
    (count_shed Serve.Shed_deadline c);
  Alcotest.(check int) "cancellation counted" 1 c.Serve.sv_cancelled;
  (* shed decisions are replay-stable *)
  let c2 = sim_policy ~policy ~workload (flood ~tenant:"acme" ~query:"count" 10) in
  Alcotest.(check string) "fingerprint stable" (Serve.fingerprint c)
    (Serve.fingerprint c2)

let test_queue_bound_sheds_deterministically () =
  let policy = { Serve.no_policy with Serve.pl_max_queue = Some 2 } in
  let events = flood ~tenant:"acme" ~query:"count" 8 in
  let c = sim_policy ~policy ~workload events in
  Alcotest.(check int) "every submission accounted" 8
    (List.length c.Serve.sv_results + List.length c.Serve.sv_shed);
  Alcotest.(check int) "queue bound shed the overflow" 6
    (count_shed Serve.Shed_queue_full c);
  Alcotest.(check int) "the bounded queue ran" 2 (List.length c.Serve.sv_results);
  let acme =
    List.find (fun (tc : Serve.tenant_counters) -> tc.Serve.tc_name = "acme")
      c.Serve.sv_tenants
  in
  Alcotest.(check int) "tc_max_queue is the bound" 2 acme.Serve.tc_max_queue;
  Alcotest.(check int) "tenant sheds counted" 6 acme.Serve.tc_shed;
  (* the victim pick is seeded: same seed, same fingerprint, 20x *)
  let fp0 = Serve.fingerprint c in
  for i = 2 to 20 do
    let fp = Serve.fingerprint (sim_policy ~policy ~workload events) in
    if fp <> fp0 then Alcotest.failf "queue-full replay %d moved" i
  done

(* a grouping query over enough rows OOM-fails under a tenant budget of
   0.4x its unbounded peak; count stays under it, so the same tenant can
   fail K times and still succeed its half-open probe *)
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

let test_breaker_cycle () =
  let tables = [ ("rows", rows 200) ] in
  let peak =
    (Emma.run_on_exn rt (Emma.parallelize group_prog) ~tables).Emma.metrics
      .Metrics.mem_peak_bytes
  in
  let wl = ("group", (group_prog, tables)) :: workload in
  let bad = Serve.tenant ~mem_budget:(0.4 *. peak) "bad" in
  let tenants = [ bad; Serve.tenant "good" ] in
  let policy =
    { Serve.no_policy with
      Serve.pl_breaker = Some { Config.br_threshold = 2; br_cooldown_s = 1.0 } }
  in
  let events =
    [ { Arrival.at_s = 0.0; tenant = "bad"; query = "group" };
      { Arrival.at_s = 0.0; tenant = "bad"; query = "group" };
      { Arrival.at_s = 0.0; tenant = "bad"; query = "group" };
      (* well past the cool-down: the half-open probe, which succeeds *)
      { Arrival.at_s = 1e6; tenant = "bad"; query = "count" } ]
  in
  let c =
    with_session ~config:one_lane rt @@ fun s ->
    Serve.run_sim ~policy s tenants wl events
  in
  Alcotest.(check int) "every submission accounted" 4
    (List.length c.Serve.sv_results + List.length c.Serve.sv_shed);
  Alcotest.(check int) "circuit opened once" 1 c.Serve.sv_breaker_opens;
  Alcotest.(check int) "half-opened once" 1 c.Serve.sv_breaker_half_opens;
  Alcotest.(check int) "closed after the probe" 1 c.Serve.sv_breaker_closes;
  Alcotest.(check int) "open circuit fast-failed the third query" 1
    (count_shed Serve.Shed_breaker c);
  let bad_tc =
    List.find (fun (tc : Serve.tenant_counters) -> tc.Serve.tc_name = "bad")
      c.Serve.sv_tenants
  in
  Alcotest.(check int) "per-tenant opens counted" 1 bad_tc.Serve.tc_breaker_opens;
  let failed, finished =
    List.partition
      (fun (r : Serve.query_result) ->
        match r.Serve.qr_outcome with Emma.Failed _ -> true | _ -> false)
      c.Serve.sv_results
  in
  Alcotest.(check int) "two consecutive OOM failures tripped it" 2
    (List.length failed);
  Alcotest.(check int) "the probe finished" 1 (List.length finished)

let test_ladder_degrades_before_shedding () =
  (* backlog of 12 on one lane with a ladder step of 2: deep backlog runs
     plan-cache-only (cold compiles shed), mid backlog runs degraded
     (halved dop, then no speculation), and degradation never changes a
     result *)
  let policy = { Serve.no_policy with Serve.pl_degrade_depth = Some 2 } in
  let events = flood ~tenant:"acme" ~query:"count" 12 in
  let c = sim_policy ~policy ~workload events in
  Alcotest.(check int) "every submission accounted" 12
    (List.length c.Serve.sv_results + List.length c.Serve.sv_shed);
  Alcotest.(check bool) "deep backlog shed cold compiles" true
    (count_shed Serve.Shed_degraded c > 0);
  Alcotest.(check bool) "some queries ran degraded" true (c.Serve.sv_degraded > 0);
  Alcotest.(check bool) "some queries ran clean once the backlog drained" true
    (List.exists (fun (r : Serve.query_result) -> r.Serve.qr_degrade = 0)
       c.Serve.sv_results);
  (* degradation moves dop and speculation, never results *)
  let reference = (finished_exn (List.hd c.Serve.sv_results).Serve.qr_outcome).Emma.value in
  List.iter
    (fun (r : Serve.query_result) ->
      if not (Value.equal reference (finished_exn r.Serve.qr_outcome).Emma.value)
      then Alcotest.failf "degraded sub %d changed the result" r.Serve.qr_sub)
    c.Serve.sv_results

let test_drain_cutoff_sim () =
  let policy = { Serve.no_policy with Serve.pl_drain_after_s = Some 1.0 } in
  let at t = { Arrival.at_s = t; tenant = "acme"; query = "count" } in
  let c = sim_policy ~policy ~workload [ at 0.0; at 0.5; at 2.0; at 3.0 ] in
  Alcotest.(check int) "admitted before the cutoff" 2
    (List.length c.Serve.sv_results);
  Alcotest.(check int) "shed after the cutoff" 2 (count_shed Serve.Shed_drain c)

let test_policy_fingerprint_across_domains () =
  (* the full policy stack at once: all decisions are coordinator-side
     and seed-deterministic, so the fingerprint must not move across
     replays or pool sizes *)
  let policy =
    { Serve.pl_seed = 7;
      pl_deadline_s = Some 2.0;
      pl_max_queue = Some 3;
      pl_breaker = Some { Config.br_threshold = 2; br_cooldown_s = 5.0 };
      pl_drain_after_s = Some 6.0;
      pl_degrade_depth = Some 2 }
  in
  let events =
    Arrival.generate ~seed:9 ~rate:6.0 ~alpha:1.2 ~tenants:[ "acme"; "beta" ]
      ~queries:[ "sum"; "count" ] ~n:24
  in
  let run pool =
    let config =
      match pool with
      | None -> one_lane
      | Some p -> Config.with_pool (Some p) one_lane
    in
    with_session ~config rt @@ fun s -> Serve.run_sim ~policy s tenants workload events
  in
  let c0 = run None in
  Alcotest.(check bool) "the burst trace sheds under this policy" true
    (c0.Serve.sv_shed <> []);
  let fp0 = Serve.fingerprint c0 in
  for i = 2 to 20 do
    if Serve.fingerprint (run None) <> fp0 then
      Alcotest.failf "policy replay %d moved the fingerprint" i
  done;
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      if Serve.fingerprint (run (Some pool)) <> fp0 then
        Alcotest.failf "policy fingerprint moved at %d domains" domains)
    [ 1; 2; 4; 8 ]

let test_unknown_names_rejected () =
  let bad_tenant = [ { Arrival.at_s = 0.0; tenant = "ghost"; query = "sum" } ] in
  let bad_query = [ { Arrival.at_s = 0.0; tenant = "acme"; query = "nope" } ] in
  let raises name events =
    match sim events with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "unknown tenant" bad_tenant;
  raises "unknown query" bad_query

(* ---------------------------------------------------------------- *)
(* Arrival traces                                                     *)
(* ---------------------------------------------------------------- *)

let test_arrival_roundtrip () =
  let txt = Arrival.to_string small_trace in
  match Arrival.of_string txt with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok events ->
      Alcotest.(check int) "length" (List.length small_trace) (List.length events);
      Alcotest.(check string) "byte-stable" txt (Arrival.to_string events)

let test_arrival_parse_errors () =
  List.iter
    (fun (name, txt) ->
      match Arrival.of_string txt with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" name
      | Error e ->
          Alcotest.(check bool) (name ^ ": one-line error") false
            (String.contains e '\n'))
    [ ("missing fields", "1.0 acme\n");
      ("bad time", "x acme sum\n");
      ("negative time", "-1.0 acme sum\n") ]

(* Garbage text never makes the parser raise: it returns events or a
   one-line error. *)
let prop_arrival_garbage =
  Helpers.qcheck_case "arrival parser never raises on garbage" ~count:500
    QCheck2.Gen.(
      string_size ~gen:
        (frequency
           [ (4, oneofl [ ' '; '\t'; '\n'; '\r'; '#'; '.'; '-'; '+'; 'e'; 'x'; '_' ]);
             (3, numeral);
             (2, printable);
             (1, char) ])
        (int_bound 80))
    (fun text ->
      match Arrival.of_string text with
      | Ok _ -> true
      | Error e -> not (String.contains e '\n')
      | exception e -> QCheck2.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

let test_arrival_generate_deterministic () =
  let a = Arrival.generate ~seed:9 ~rate:2.0 ~alpha:1.2 ~tenants:[ "t1"; "t2" ]
            ~queries:[ "q" ] ~n:50 in
  let b = Arrival.generate ~seed:9 ~rate:2.0 ~alpha:1.2 ~tenants:[ "t1"; "t2" ]
            ~queries:[ "q" ] ~n:50 in
  Alcotest.(check string) "same seed, same trace" (Arrival.to_string a)
    (Arrival.to_string b);
  let c = Arrival.generate ~seed:10 ~rate:2.0 ~alpha:1.2 ~tenants:[ "t1"; "t2" ]
            ~queries:[ "q" ] ~n:50 in
  Alcotest.(check bool) "different seed, different trace" true
    (Arrival.to_string a <> Arrival.to_string c);
  (* arrivals are sorted and non-negative *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Arrival.at_s <= b.Arrival.at_s && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone non-negative" true
    (monotone a && List.for_all (fun e -> e.Arrival.at_s >= 0.0) a)

let suite =
  [ ( "serve",
      [ qcheck_differential;
        Alcotest.test_case "cache key sensitivity" `Quick test_key_sensitivity;
        Alcotest.test_case "LRU eviction deterministic" `Quick
          test_lru_eviction_deterministic;
        Alcotest.test_case "plan-cache capacity validated" `Quick
          test_plan_cache_capacity_validated;
        Alcotest.test_case "sim fingerprint stable over 20 replays" `Quick
          test_replay_fingerprint_20x;
        Alcotest.test_case "sim fingerprint stable across 1/2/4/8 domains" `Quick
          test_replay_fingerprint_across_domains;
        Alcotest.test_case "fair share is starvation-free" `Quick
          test_starvation_freedom;
        Alcotest.test_case "deadline sheds the queue, cancels in-flight" `Quick
          test_deadline_sheds_and_cancels;
        Alcotest.test_case "queue bound sheds deterministically" `Quick
          test_queue_bound_sheds_deterministically;
        Alcotest.test_case "breaker open/half-open/close cycle" `Quick
          test_breaker_cycle;
        Alcotest.test_case "ladder degrades before shedding" `Quick
          test_ladder_degrades_before_shedding;
        Alcotest.test_case "drain cutoff sheds late arrivals" `Quick
          test_drain_cutoff_sim;
        Alcotest.test_case "full policy fingerprint stable across domains" `Quick
          test_policy_fingerprint_across_domains;
        Alcotest.test_case "unknown tenant/query rejected" `Quick
          test_unknown_names_rejected;
        Alcotest.test_case "arrival trace round-trips" `Quick test_arrival_roundtrip;
        Alcotest.test_case "arrival parse errors are one line" `Quick
          test_arrival_parse_errors;
        prop_arrival_garbage;
        Alcotest.test_case "arrival generation deterministic" `Quick
          test_arrival_generate_deterministic ] ) ]
