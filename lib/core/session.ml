(* The session layer: a reusable engine handle binding one Config.

   This module is also the home of the run-facing types ([algorithm],
   [runtime], [outcome]) that the [Emma] façade re-exports with type
   equations — they must live below the façade so [Session] can use them
   without a dependency cycle. *)

module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module Eval = Emma_lang.Eval
module Cprog = Emma_dataflow.Cprog
module Pipeline = Emma_compiler.Pipeline
module Plan_cache = Emma_compiler.Plan_cache
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
module Trace = Emma_util.Trace

type algorithm = {
  source : Expr.program;
  compiled : Cprog.t;
  report : Pipeline.report;
  opts : Pipeline.opts;
}

let parallelize ?(opts = Pipeline.default_opts) source =
  let compiled, report = Pipeline.compile ~opts source in
  { source; compiled; report; opts }

type runtime = {
  cluster : Cluster.t;
  profile : Cluster.profile;
  timeout_s : float option;
}

let spark ?(cluster = Cluster.laptop ()) ?timeout_s () =
  { cluster; profile = Cluster.spark_like; timeout_s }

let flink ?(cluster = Cluster.laptop ()) ?timeout_s () =
  { cluster; profile = Cluster.flink_like; timeout_s }

type run_result = { value : Value.t; metrics : Metrics.t; ctx : Eval.ctx }

type outcome =
  | Finished of run_result
  | Failed of { reason : string; metrics : Metrics.t }
  | Timed_out of { at_s : float; metrics : Metrics.t }
  | Cancelled of { at_s : float; reason : string; metrics : Metrics.t }

let metrics_of_outcome = function
  | Finished r -> r.metrics
  | Failed { metrics; _ } -> metrics
  | Timed_out { metrics; _ } -> metrics
  | Cancelled { metrics; _ } -> metrics

let make_ctx tables =
  let ctx = Eval.create_ctx () in
  List.iter (fun (name, rows) -> Eval.register_table ctx name rows) tables;
  ctx

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

(* One memoized plan-cache key: the program is matched by physical
   identity, because structural equality would confuse constants that
   print differently (0.0 and -0.0). A structurally equal copy just
   computes its key again. *)
type key_entry = {
  ke_source : Expr.program;
  ke_opts : Pipeline.opts;
  ke_schema : string;
  ke_key : Pipeline.cache_key;
}

type t = {
  rt : runtime;
  config : Config.t;  (* with [pool] resolved to the session pool *)
  pool : Pool.t;
  owns_pool : bool;
  cache : Plan_cache.t option;
  compile_lock : Mutex.t;
      (* serializes submissions' compile step: the compiler's fresh-name
         counter is a process global and the plan cache must observe a
         deterministic probe/store order; execution itself still runs
         concurrently when several domains submit at once *)
  read_memo : Engine.read_memo;
      (* every run's partitioned input tables: a table submitted again
         (the same row list) is partitioned and sized once per session *)
  mutable keys : key_entry list;
      (* the plan-cache keys this session computed, newest first, at most
         the cache's capacity; guarded by [compile_lock] *)
}

(* Timeout unification: [Session.spark ?timeout_s] and [Config.timeout_s]
   must agree. One source set wins; both set to the same value is fine;
   both set and different is a configuration error rejected with a
   one-line message (the CLI maps it to exit 2). *)
let resolve_timeout rt config =
  match (rt.timeout_s, config.Config.timeout_s) with
  | None, t | t, None -> t
  | Some a, Some b when a = b -> Some a
  | Some a, Some b ->
      invalid_arg
        (Printf.sprintf
           "conflicting timeouts: runtime timeout_s %g vs config timeout_s %g \
            (set the timeout in one place only; Config is the canonical home)"
           a b)

let create ?(config = Config.default) rt =
  let config = { config with Config.timeout_s = resolve_timeout rt config } in
  let pool, owns_pool =
    match config.Config.pool with
    | Some p -> (p, false)
    | None -> (
        match config.Config.domains with
        | Some d -> (Pool.create ~domains:d (), true)
        | None -> (Pool.default (), false))
  in
  let cache =
    match config.Config.plan_cache with
    | Some cap -> Some (Plan_cache.create ~capacity:cap)
    | None -> None
  in
  {
    rt;
    config = { config with Config.pool = Some pool };
    pool;
    owns_pool;
    cache;
    compile_lock = Mutex.create ();
    read_memo = Engine.read_memo ();
    keys = [];
  }

let close t = if t.owns_pool then Pool.shutdown t.pool
let config t = t.config
let runtime t = t.rt
let pool t = t.pool
let plan_cache_stats t = Option.map Plan_cache.stats t.cache

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let tracer_of cfg =
  match cfg.Config.trace with Some tr -> tr | None -> Trace.global ()

(* The satellite fix: every Session-run query — including Failed and
   Timed_out ones — surfaces its per-query Metrics.t (the engine's
   metrics record is returned in every outcome arm) and a terminal Trace
   instant, so service dashboards never lose the linkage for
   partially-run jobs. *)
let terminal_instant tracer outcome =
  if Trace.enabled tracer then begin
    let status, extra =
      match outcome with
      | Finished _ -> ("finished", [])
      | Failed { reason; _ } -> ("failed", [ ("reason", Trace.A_str reason) ])
      | Timed_out { at_s; _ } -> ("timed_out", [ ("at_s", Trace.A_float at_s) ])
      | Cancelled { at_s; reason; _ } ->
          ( "cancelled",
            [
              ("at_s", Trace.A_float at_s); ("reason", Trace.A_str reason);
            ] )
    in
    let m = metrics_of_outcome outcome in
    Trace.instant tracer ~cat:"session"
      ~args:
        (( "status", Trace.A_str status )
        :: ("sim_time_s", Trace.A_float m.Metrics.sim_time_s)
        :: extra)
      "query_terminal"
  end

let run ?config ?cluster t algo ~tables =
  (* a per-run config override with no timeout of its own still inherits
     the session's resolved timeout *)
  let cfg =
    match config with
    | Some ({ Config.timeout_s = None; _ } as c) ->
        { c with Config.pool = Some t.pool; timeout_s = t.config.Config.timeout_s }
    | Some c -> { c with Config.pool = Some t.pool }
    | None -> t.config
  in
  (* [cluster] narrows the execution slice for this run only — the serve
     degradation ladder halves dop with it; defaults to the runtime's *)
  let cluster = Option.value cluster ~default:t.rt.cluster in
  let ctx = make_ctx tables in
  let engine =
    Engine.create ~config:cfg ~read_memo:t.read_memo ~cluster ~profile:t.rt.profile ctx
  in
  let outcome =
    match Engine.run engine algo.compiled with
    | value -> Finished { value; metrics = Engine.metrics engine; ctx }
    | exception Engine.Engine_failure reason ->
        Failed { reason; metrics = Engine.metrics engine }
    | exception Engine.Engine_timeout at_s ->
        Timed_out { at_s; metrics = Engine.metrics engine }
    | exception Engine.Engine_cancelled (at_s, reason) ->
        Cancelled { at_s; reason; metrics = Engine.metrics engine }
  in
  terminal_instant (tracer_of cfg) outcome;
  outcome

(* ------------------------------------------------------------------ *)
(* Submission: source program -> plan cache -> run                      *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprint of the input tables — the schema half of the
   plan-cache key. Only shapes participate (field names, type tags,
   element shape of the first row), never data, so re-submitting a query
   over fresh rows of the same shape still hits. *)
let rec value_shape = function
  | Value.Unit -> "unit"
  | Value.Bool _ -> "bool"
  | Value.Int _ -> "int"
  | Value.Float _ -> "float"
  | Value.String _ -> "string"
  | Value.Tuple vs ->
      "(" ^ String.concat "," (Array.to_list (Array.map value_shape vs)) ^ ")"
  | Value.Record fs ->
      "{"
      ^ String.concat ","
          (Array.to_list
             (Array.map (fun (k, v) -> k ^ ":" ^ value_shape v) fs))
      ^ "}"
  | Value.Option None -> "option:_"
  | Value.Option (Some v) -> "option:" ^ value_shape v
  | Value.Vector _ -> "vector"
  | Value.Bag [] -> "bag:_"
  | Value.Bag (v :: _) -> "bag:" ^ value_shape v
  | Value.Blob _ -> "blob"

let schema_of_tables tables =
  tables
  |> List.map (fun (name, rows) ->
         let shape = match rows with [] -> "_" | v :: _ -> value_shape v in
         name ^ "=" ^ shape)
  |> List.sort String.compare
  |> String.concat ";"

type cache_status = Hit | Miss | Uncached

type submit_info = {
  si_cache : cache_status;
  si_compile_s : float;
  si_evictions : int;
}

(* Deterministic compile charge used by serve's latency accounting: a
   cold compile is priced proportionally to source size, a hit pays a
   small constant probe. Charged OUTSIDE the engine (service time = charge
   + sim_time_s), so a query's engine metrics stay bit-identical between
   cached and cold compiles. *)
let cold_compile_s source = 0.05 +. (1.0e-4 *. float_of_int (Pipeline.program_size source))
let hit_compile_s = 0.002

(* The plan-cache key of [source] under [opts] and [schema], from the
   session's memo when this very program was keyed before. Computing a
   key runs the whole front end and the printer, so a warm session must
   not pay it on every submit, probe and prime. An uncached session keeps
   no entries. The caller holds [compile_lock]: it guards the memo and
   the fresh-name counter that [Pipeline.normalized_key] resets. *)
let memo_key t ~opts ~schema source =
  match
    List.find_opt
      (fun e -> e.ke_source == source && e.ke_opts = opts && String.equal e.ke_schema schema)
      t.keys
  with
  | Some e -> e.ke_key
  | None ->
      let key = Pipeline.normalized_key ~opts ~schema source in
      let entry = { ke_source = source; ke_opts = opts; ke_schema = schema; ke_key = key } in
      let cap = match t.cache with Some pc -> Plan_cache.capacity pc | None -> 0 in
      t.keys <- List.filteri (fun i _ -> i < cap) (entry :: t.keys);
      key

(* Uncounted plan-cache membership: would this submission hit? Used by
   the serve degradation ladder's plan-cache-only rung to shed queries
   that would compile cold, without perturbing the counted probe/store
   sequence the LRU replays from. [false] when the session is uncached. *)
let would_hit ?(opts = Pipeline.default_opts) t source ~tables =
  match t.cache with
  | None -> false
  | Some pc ->
      let schema = schema_of_tables tables in
      with_lock t.compile_lock (fun () ->
          Plan_cache.mem pc (memo_key t ~opts ~schema source))

(* The ck_text a [submit] of this program/opts/schema is keyed by.
   Serve snapshots use it to persist cache contents as query names. *)
let plan_key ?(opts = Pipeline.default_opts) t source ~tables =
  let schema = schema_of_tables tables in
  (with_lock t.compile_lock (fun () -> memo_key t ~opts ~schema source)).Pipeline.ck_text

(* Current cache keys, least-recently-used first; [] when uncached. *)
let plan_cache_keys t =
  match t.cache with
  | None -> []
  | Some pc ->
      List.map
        (fun k -> k.Pipeline.ck_text)
        (Plan_cache.entries_by_recency pc)

(* Stats-neutral cache warming for recovery replay: insert (compiling
   cold if needed) or refresh the entry with [store]'s tick/eviction
   behavior, bumping no counters. The journaled pre-crash hit/miss/
   eviction counts are reported separately as a base, so warming must
   not count anything itself. No-op on uncached sessions. *)
let prime ?(opts = Pipeline.default_opts) t source ~tables =
  match t.cache with
  | None -> ()
  | Some pc ->
      let schema = schema_of_tables tables in
      with_lock t.compile_lock (fun () ->
          let key = memo_key t ~opts ~schema source in
          if Plan_cache.mem pc key then Plan_cache.touch pc key
          else
            let compiled, report = Pipeline.compile ~opts source in
            Plan_cache.prime pc key (compiled, report))

let submit ?(opts = Pipeline.default_opts) ?config ?cluster t source
    ~tables =
  let cfg = match config with Some c -> c | None -> t.config in
  let tracer = tracer_of cfg in
  let schema = schema_of_tables tables in
  let algo, status, evicted =
    with_lock t.compile_lock (fun () ->
        match t.cache with
        | None ->
            let compiled, report = Pipeline.compile ~opts source in
            ({ source; compiled; report; opts }, Uncached, 0)
        | Some pc -> (
            let key = memo_key t ~opts ~schema source in
            match Plan_cache.probe pc key with
            | Some (compiled, report) -> ({ source; compiled; report; opts }, Hit, 0)
            | None ->
                let compiled, report = Pipeline.compile ~opts source in
                let evicted = Plan_cache.store pc key (compiled, report) in
                ({ source; compiled; report; opts }, Miss, evicted)))
  in
  (if Trace.enabled tracer then
     let name =
       match status with
       | Hit -> "plan_cache_hit"
       | Miss -> "plan_cache_miss"
       | Uncached -> "plan_cache_off"
     in
     Trace.instant tracer ~cat:"session"
       ~args:[ ("schema", Trace.A_str schema) ]
       name);
  let outcome = run ?config ?cluster t algo ~tables in
  let m = metrics_of_outcome outcome in
  (match status with
  | Hit -> m.Metrics.plan_cache_hits <- m.Metrics.plan_cache_hits + 1
  | Miss -> m.Metrics.plan_cache_misses <- m.Metrics.plan_cache_misses + 1
  | Uncached -> ());
  m.Metrics.plan_cache_evictions <- m.Metrics.plan_cache_evictions + evicted;
  let si_compile_s =
    match status with Hit -> hit_compile_s | _ -> cold_compile_s source
  in
  (outcome, { si_cache = status; si_compile_s; si_evictions = evicted })
