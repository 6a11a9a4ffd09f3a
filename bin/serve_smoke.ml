(* serve-smoke: the service-layer gate of `make check`.

   Replays one seeded Zipf arrival trace over two tenants and three
   registry programs through `Emma_serve` and asserts the service
   contract end to end:

   - the sim-mode replay fingerprint is bit-identical across two runs
     (deterministic fair-share scheduling, queues, cache counters);
   - the plan cache hits on repeat submissions and never changes a
     result: every query's value matches the cache-off replay and a
     standalone [Emma.run_on_exn] of the same program, whose cost
     metrics ([Metrics.cost]) it matches too;
   - every outcome carries per-query metrics with the cache counters
     stamped in ([plan_cache_hits + plan_cache_misses >= 1] on a cached
     session).

   Any violation exits non-zero and fails the alias. *)

module Value = Emma.Value
module Metrics = Emma.Metrics
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("serve-smoke: " ^ m); exit 1) fmt

let query_names = [ "q1"; "wordcount"; "group-min" ]
let tenants = [ Serve.tenant ~weight:2 "acme"; Serve.tenant "beta" ]

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> fail "unknown registry program %S" name

let workload =
  List.map (fun n -> let e = entry n in (n, (e.Registry.program, e.Registry.tables ()))) query_names

let rt =
  let table_scales =
    List.sort_uniq compare
      (List.concat_map (fun n -> (entry n).Registry.table_scales) query_names)
  in
  Emma.spark ~cluster:(Emma.Cluster.paper_cluster ~table_scales ()) ~timeout_s:3600.0 ()

let events =
  Arrival.generate ~seed:23 ~rate:2.0 ~alpha:1.1
    ~tenants:(List.map (fun t -> t.Serve.tn_name) tenants)
    ~queries:query_names ~n:30

let run_sim plan_cache =
  let config = Emma.Config.with_plan_cache plan_cache Emma.Config.default in
  let session = Emma.Session.create ~config rt in
  Fun.protect ~finally:(fun () -> Emma.Session.close session) @@ fun () ->
  Serve.run_sim session tenants workload events

let value_of (r : Serve.query_result) =
  match r.Serve.qr_outcome with
  | Emma.Finished { value; _ } -> value
  | Emma.Failed { reason; _ } -> fail "sub %d (%s) failed: %s" r.Serve.qr_sub r.Serve.qr_query reason
  | Emma.Timed_out _ -> fail "sub %d (%s) timed out" r.Serve.qr_sub r.Serve.qr_query
  | Emma.Cancelled _ -> fail "sub %d (%s) cancelled" r.Serve.qr_sub r.Serve.qr_query

let () =
  let on = run_sim (Some 8) in
  let on2 = run_sim (Some 8) in
  if Serve.fingerprint on <> Serve.fingerprint on2 then
    fail "sim replay fingerprint moved between identical runs";
  let hits, misses =
    match on.Serve.sv_cache with
    | Some s -> Emma.Plan_cache.(s.hits, s.misses)
    | None -> fail "cached session reports no plan-cache stats"
  in
  if hits = 0 then fail "no plan-cache hits on a repeat-heavy trace";
  if misses <> List.length query_names then
    fail "expected %d cold compiles, saw %d" (List.length query_names) misses;
  List.iter
    (fun (r : Serve.query_result) ->
      let m = Emma.metrics_of_outcome r.Serve.qr_outcome in
      if m.Metrics.plan_cache_hits + m.Metrics.plan_cache_misses < 1 then
        fail "sub %d carries no cache counters in its metrics" r.Serve.qr_sub)
    on.Serve.sv_results;
  (* cache never changes a result: vs cache-off and vs standalone run_on *)
  let off = run_sim None in
  List.iter2
    (fun a b ->
      if not (Value.equal (value_of a) (value_of b)) then
        fail "sub %d: cached value differs from cache-off replay" a.Serve.qr_sub)
    on.Serve.sv_results off.Serve.sv_results;
  List.iter
    (fun name ->
      let prog, tables = List.assoc name workload in
      let standalone = Emma.run_on_exn rt (Emma.parallelize prog) ~tables in
      let served =
        List.find (fun (r : Serve.query_result) -> r.Serve.qr_query = name)
          on.Serve.sv_results
      in
      if not (Value.equal standalone.Emma.value (value_of served)) then
        fail "%s: served value differs from standalone run_on" name;
      let sm = Emma.metrics_of_outcome served.Serve.qr_outcome in
      if Metrics.cost sm <> Metrics.cost standalone.Emma.metrics then
        fail "%s: served cost metrics differ from standalone run_on" name)
    query_names;
  Printf.printf
    "serve-smoke ok: %d queries, %d lanes, %d hits/%d misses, fingerprint stable, \
     values identical across sim/off/standalone\n"
    (List.length on.Serve.sv_results) on.Serve.sv_lanes hits misses
