(* E13 (extension): `emma serve` — multi-tenant service under a heavy
   Zipf arrival trace; measures what the session plan cache buys.

   Three tenants (one with double fair-share weight) replay the same
   deterministic arrival trace against two sessions that differ in one
   config bit: plan cache on (64-entry LRU) vs off. The trace is
   repeat-heavy by construction — Zipf(alpha) query popularity — so most
   submissions recompile a plan the cache-on session already holds.

   Contracts checked while measuring:

   - every query's value is identical between the cached and cold runs
     (the cache returns plans, never results);
   - the sim-mode replay fingerprint is bit-identical across repeats
     (scheduling, queues and cache counters are deterministic);
   - cache-on strictly beats cache-off on mean and p50 simulated latency,
     with a non-trivial hit count (the acceptance bar pinned in
     BENCH_serve.json).

   Latencies come from the deterministic service clock (compile charge +
   cost-model seconds). *)

module Value = Emma_value.Value
module Json = Emma_util.Json
module Prng = Emma_util.Prng
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival
module Session = Emma.Session
module Config = Emma.Config
module W = Emma_workloads
module Pr = Emma_programs

let n_events = try int_of_string (Sys.getenv "EMMA_SERVE_EVENTS") with Not_found -> 160
let seed = 11
let rate = 4.0
let alpha = 1.1
let tenant_names = [ "acme"; "beta"; "gamma" ]
let query_names = [ "q1"; "wordcount"; "group-min"; "q3" ]

let docs ~seed n =
  let g = Prng.create seed in
  let vocab =
    [| "emma"; "bag"; "fold"; "join"; "group"; "plan"; "cache"; "serve"; "zipf";
       "lane" |]
  in
  Pr.Wordcount.docs_of_strings
    (List.init n (fun _ ->
         String.concat " "
           (List.init
              (Prng.int_in g 4 12)
              (fun _ -> vocab.(Prng.int_in g 0 (Array.length vocab - 1))))))

let workload () =
  let cfg = W.Tpch_gen.of_scale_factor 0.002 in
  let lineitem = W.Tpch_gen.lineitem ~seed:3 cfg in
  let orders = W.Tpch_gen.orders ~seed:3 cfg in
  let customer = W.Tpch_gen.customer ~seed:3 cfg in
  let dataset =
    W.Keyed_gen.tuples ~seed:5
      (W.Keyed_gen.paper_config ~n_tuples:2_000 (W.Keyed_gen.uniform ~n_keys:64))
  in
  [ ("q1", (Pr.Tpch_q1.program Pr.Tpch_q1.default_params, [ ("lineitem", lineitem) ]));
    ( "wordcount",
      (Pr.Wordcount.program Pr.Wordcount.default_params, [ ("docs", docs ~seed:7 400) ]) );
    ( "group-min",
      (Pr.Group_min.program Pr.Group_min.default_params, [ ("dataset", dataset) ]) );
    ( "q3",
      ( Pr.Tpch_q3.program Pr.Tpch_q3.default_params,
        [ ("customer", customer); ("orders", orders); ("lineitem", lineitem) ] ) ) ]

let tenants =
  [ Serve.tenant ~weight:2 "acme"; Serve.tenant "beta"; Serve.tenant "gamma" ]

let rt () = Exp_common.rt ~profile:Exp_common.spark ()

let run_sim ~plan_cache wl events =
  let config = Config.with_plan_cache plan_cache Config.default in
  let session = Session.create ~config (rt ()) in
  Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
  Serve.run_sim session tenants wl events

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float (Array.length a)

let value_of_result (r : Serve.query_result) =
  match r.Serve.qr_outcome with
  | Emma.Finished { value; _ } -> Some value
  | Emma.Failed _ | Emma.Timed_out _ | Emma.Cancelled _ -> None

let run () =
  Exp_common.section
    "E13: emma serve — plan cache under a Zipf multi-tenant trace (extension)";
  Printf.printf
    "(%d arrivals, rate %.1f/s, Zipf %.1f over %d tenants x %d queries; \
     latencies are deterministic service-clock seconds)\n"
    n_events rate alpha (List.length tenant_names) (List.length query_names);
  let wl = workload () in
  let events =
    Arrival.generate ~seed ~rate ~alpha ~tenants:tenant_names ~queries:query_names
      ~n:n_events
  in
  let on = run_sim ~plan_cache:(Some 64) wl events in
  let on2 = run_sim ~plan_cache:(Some 64) wl events in
  let off = run_sim ~plan_cache:None wl events in
  (* contract: replay determinism and value identity cached vs cold *)
  let replay_stable = Serve.fingerprint on = Serve.fingerprint on2 in
  if not replay_stable then failwith "serve: sim replay fingerprint moved";
  List.iter2
    (fun (a : Serve.query_result) (b : Serve.query_result) ->
      match (value_of_result a, value_of_result b) with
      | Some va, Some vb ->
          if not (Value.equal va vb) then
            failwith
              (Printf.sprintf "serve: cached result differs on sub %d (%s)"
                 a.Serve.qr_sub a.Serve.qr_query)
      | _ ->
          failwith
            (Printf.sprintf "serve: sub %d did not finish" a.Serve.qr_sub))
    on.Serve.sv_results off.Serve.sv_results;
  let stats c =
    let lat = Serve.latencies c in
    ( mean lat,
      Serve.percentile lat 0.50,
      Serve.percentile lat 0.99,
      c.Serve.sv_makespan_s )
  in
  let on_mean, on_p50, on_p99, on_mk = stats on in
  let off_mean, off_p50, off_p99, off_mk = stats off in
  let hits, misses, evictions =
    match on.Serve.sv_cache with
    | Some s -> Emma.Plan_cache.(s.hits, s.misses, s.evictions)
    | None -> (0, 0, 0)
  in
  let qps mk = float n_events /. mk in
  Emma_util.Tbl.print
    ~title:"sim-mode service latency (deterministic clock; cache on vs off)"
    ~header:[ "plan cache"; "mean"; "p50"; "p99"; "makespan"; "qps"; "hits/misses" ]
    [ [ "on (64)";
        Printf.sprintf "%.3f s" on_mean;
        Printf.sprintf "%.3f s" on_p50;
        Printf.sprintf "%.3f s" on_p99;
        Printf.sprintf "%.1f s" on_mk;
        Printf.sprintf "%.2f" (qps on_mk);
        Printf.sprintf "%d/%d" hits misses ];
      [ "off";
        Printf.sprintf "%.3f s" off_mean;
        Printf.sprintf "%.3f s" off_p50;
        Printf.sprintf "%.3f s" off_p99;
        Printf.sprintf "%.1f s" off_mk;
        Printf.sprintf "%.2f" (qps off_mk);
        "-" ] ];
  let passed = on_mean < off_mean && on_p50 < off_p50 && hits > 0 in
  Printf.printf "acceptance: cache-on %s cache-off (mean %.3f vs %.3f, p50 %.3f \
                 vs %.3f, %d hits) — %s\n"
    (if passed then "beats" else "does NOT beat")
    on_mean off_mean on_p50 off_p50 hits
    (if passed then "ok" else "FAIL");
  let side name (m, p50, p99, mk) cache =
    ( name,
      Json.Obj
        ([ ("latency_mean_s", Json.Float m);
           ("latency_p50_s", Json.Float p50);
           ("latency_p99_s", Json.Float p99);
           ("makespan_s", Json.Float mk);
           ("qps", Json.Float (qps mk)) ]
        @ cache) )
  in
  let json =
    Json.Obj
      [ ("experiment", Json.Str "serve");
        ("bench", Json.Str "E13 Zipf multi-tenant trace, plan cache on vs off");
        ("events", Json.Int n_events);
        ("seed", Json.Int seed);
        ("rate_per_s", Json.Float rate);
        ("zipf_alpha", Json.Float alpha);
        ("tenants", Json.List (List.map (fun t -> Json.Str t) tenant_names));
        ("queries", Json.List (List.map (fun q -> Json.Str q) query_names));
        ("lanes", Json.Int on.Serve.sv_lanes);
        side "cache_on" (on_mean, on_p50, on_p99, on_mk)
          [ ("plan_cache_hits", Json.Int hits);
            ("plan_cache_misses", Json.Int misses);
            ("plan_cache_evictions", Json.Int evictions) ];
        side "cache_off" (off_mean, off_p50, off_p99, off_mk) [];
        ("replay_fingerprint_stable", Json.Bool replay_stable);
        ("results_identical", Json.Bool true);
        ("target_met", Json.Bool passed) ]
  in
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "measurement written to %s\n" path;
  if not passed then failwith "serve: plan cache missed the latency target"
