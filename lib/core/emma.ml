module Value = Emma_value.Value
module Databag = Emma_databag.Databag
module Stateful_bag = Emma_databag.Stateful_bag
module Expr = Emma_lang.Expr
module Surface = Emma_lang.Surface
module Pretty = Emma_lang.Pretty
module Eval = Emma_lang.Eval
module Plan = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Pipeline = Emma_compiler.Pipeline
module Plan_cache = Emma_compiler.Plan_cache
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Faults = Emma_engine.Faults
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
module Trace = Emma_util.Trace
module Json = Emma_util.Json
module Explain = Emma_compiler.Explain
module Session = Session

type algorithm = Session.algorithm = {
  source : Expr.program;
  compiled : Cprog.t;
  report : Pipeline.report;
  opts : Pipeline.opts;
}

let parallelize = Session.parallelize

type runtime = Session.runtime = {
  cluster : Cluster.t;
  profile : Cluster.profile;
  timeout_s : float option;
}

let spark = Session.spark
let flink = Session.flink

type run_result = Session.run_result = {
  value : Value.t;
  metrics : Metrics.t;
  ctx : Eval.ctx;
}

type outcome = Session.outcome =
  | Finished of run_result
  | Failed of { reason : string; metrics : Metrics.t }
  | Timed_out of { at_s : float; metrics : Metrics.t }
  | Cancelled of { at_s : float; reason : string; metrics : Metrics.t }

let make_ctx = Session.make_ctx
let metrics_of_outcome = Session.metrics_of_outcome

let run_native algo ~tables =
  let ctx = make_ctx tables in
  let value = Eval.eval_program ctx algo.source in
  (value, ctx)

(* A throwaway single-use session. It never allocates a plan cache and
   never creates its own pool: [domains] and [plan_cache] are session
   concerns. *)
let run_on ?(config = Config.default) rt algo ~tables =
  let config = { config with Config.domains = None; plan_cache = None } in
  let session = Session.create ~config rt in
  Fun.protect
    ~finally:(fun () -> Session.close session)
    (fun () -> Session.run session algo ~tables)

let run_on_exn ?config rt algo ~tables =
  match run_on ?config rt algo ~tables with
  | Finished r -> r
  | Failed { reason; _ } -> failwith ("engine failure: " ^ reason)
  | Timed_out { at_s; _ } -> failwith (Printf.sprintf "engine timeout at %.0f s" at_s)
  | Cancelled { at_s; reason; _ } ->
      failwith (Printf.sprintf "query cancelled at %.0f s: %s" at_s reason)
