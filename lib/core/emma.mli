(** Emma: implicit parallelism through deep language embedding.

    This is the library façade. Write a driver program against
    {!Surface} (the comprehension syntax that desugars like Scala's), then
    either run it natively on the host-language DataBag implementation —
    for development and debugging, exactly as §3.1 prescribes — or
    [parallelize] it: the compiler pipeline recovers monad comprehensions,
    normalizes and optimizes them, and emits abstract dataflows that the
    simulated distributed engine executes under a Spark-like or Flink-like
    cost profile.

    {[
      let program = Surface.(program ~ret:(sum (read "xs")) []) in
      let algorithm = Emma.parallelize program in
      let result = Emma.run_on (Emma.spark ()) algorithm ~tables:[ "xs", rows ] in
      ...
    ]}

    {b Configuration.} Execution knobs travel in one first-class record,
    {!Config.t} (udf mode, chaos plan, checkpointing, memory governance,
    admission, pool, chunking, tracing, domains, plan cache), built with
    [Config.default] and functional [with_*] setters or parsed from raw
    CLI values with [Config.of_cli]. {!Session} binds a [Config] to a
    runtime once and accepts any number of submissions — the substrate of
    [emma serve]; {!run_on} is a one-shot session. *)

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
module Cancel = Emma_engine.Cancel
module Pool = Emma_util.Pool
module Trace = Emma_util.Trace
module Json = Emma_util.Json
module Explain = Emma_compiler.Explain

module Session = Session
(** Reusable engine handles; see {!Session.create} / {!Session.submit}. *)

type algorithm = Session.algorithm = {
  source : Expr.program;
  compiled : Cprog.t;
  report : Pipeline.report;
  opts : Pipeline.opts;
}

val parallelize : ?opts:Pipeline.opts -> Expr.program -> algorithm
(** Compiles the bracketed program (paper §3.2, line 6). *)

(** A runtime target: cluster configuration plus engine profile. *)
type runtime = Session.runtime = {
  cluster : Cluster.t;
  profile : Cluster.profile;
  timeout_s : float option;
}

val spark : ?cluster:Cluster.t -> ?timeout_s:float -> unit -> runtime
val flink : ?cluster:Cluster.t -> ?timeout_s:float -> unit -> runtime

type run_result = Session.run_result = {
  value : Value.t;
  metrics : Metrics.t;
  ctx : Eval.ctx;  (** holds the sink tables the program wrote *)
}

type outcome = Session.outcome =
  | Finished of run_result
  | Failed of { reason : string; metrics : Metrics.t }
  | Timed_out of { at_s : float; metrics : Metrics.t }
  | Cancelled of { at_s : float; reason : string; metrics : Metrics.t }
      (** cooperative cancellation (a {!Cancel} token or the per-query
          [Config.deadline_s] budget); carries the simulated clock at the
          terminal safepoint and the reason *)

val metrics_of_outcome : outcome -> Metrics.t
(** Every outcome arm — including [Failed], [Timed_out] and [Cancelled] —
    carries the per-query metrics of the partial run. *)

val run_native : algorithm -> tables:(string * Value.t list) list -> Value.t * Eval.ctx
(** Host-language execution of the {e source} program on the native
    DataBag — the semantic reference. *)

val run_on :
  ?config:Config.t ->
  runtime ->
  algorithm ->
  tables:(string * Value.t list) list ->
  outcome
(** Executes the compiled program on the simulated engine through a
    single-use {!Session} built from [config] (default {!Config.default});
    see {!Config.t} for the knobs and {!Engine.create} for the execution
    model. Hold a {!Session} open to amortize set-up across runs.

    [config.domains] and [config.plan_cache] are session concerns and are
    ignored by this one-shot entry point: it never creates a pool of its
    own and never allocates a plan cache. *)

val run_on_exn :
  ?config:Config.t ->
  runtime ->
  algorithm ->
  tables:(string * Value.t list) list ->
  run_result
(** Like {!run_on} but raises [Failure] on engine failure, timeout or
    cancellation. *)
