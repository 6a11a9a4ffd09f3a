(** Sessions: a reusable engine handle binding one {!Emma_engine.Config}.

    [Emma.run_on] spins up a fresh engine per call and threads nine
    optional knobs through every layer; a session resolves the knobs once
    — including the domain pool (created and owned when
    [config.domains] is set) and the plan cache — and then accepts any
    number of submissions. This is the substrate [Emma_serve] schedules
    multi-tenant traffic on.

    This module also defines the run-facing types ([algorithm],
    [runtime], [outcome]); the [Emma] façade re-exports them with type
    equations, so [Emma.Finished] and [Session]'s [Finished] are the
    same constructor. *)

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

val parallelize : ?opts:Pipeline.opts -> Expr.program -> algorithm
(** Compiles the bracketed program (paper §3.2, line 6). *)

(** A runtime target: cluster configuration plus engine profile. *)
type runtime = {
  cluster : Cluster.t;
  profile : Cluster.profile;
  timeout_s : float option;
}

val spark : ?cluster:Cluster.t -> ?timeout_s:float -> unit -> runtime
val flink : ?cluster:Cluster.t -> ?timeout_s:float -> unit -> runtime
(** [?timeout_s] sets [runtime.timeout_s], the second source of the
    execution timeout next to [Config.timeout_s]. {!create} accepts
    either source (or both set to the {e same} value) and rejects
    conflicting values with [Invalid_argument] — the CLI maps that to a
    one-line exit-2 error. *)

type run_result = {
  value : Value.t;
  metrics : Metrics.t;
  ctx : Eval.ctx;  (** holds the sink tables the program wrote *)
}

type outcome =
  | Finished of run_result
  | Failed of { reason : string; metrics : Metrics.t }
  | Timed_out of { at_s : float; metrics : Metrics.t }
  | Cancelled of { at_s : float; reason : string; metrics : Metrics.t }
      (** cooperative cancellation: the per-query [Config.deadline_s]
          budget ran out; carries the simulated clock at the terminal
          safepoint and the reason *)

val metrics_of_outcome : outcome -> Metrics.t
(** Every outcome arm — including [Failed], [Timed_out] and [Cancelled] —
    carries the per-query metrics of the partial run. *)

val make_ctx : (string * Value.t list) list -> Eval.ctx

type t
(** A session: runtime target + resolved {!Config.t} + domain pool +
    optional plan cache. Cheap to submit to repeatedly; safe to submit to
    from multiple domains (compilation is serialized internally,
    execution is not). *)

val create : ?config:Config.t -> runtime -> t
(** Resolves [config] (default {!Config.default}) once: when
    [config.pool] is unset and [config.domains = Some d] the session
    creates — and owns — a dedicated [d]-domain pool (released by
    {!close}); otherwise it borrows [config.pool] or the ambient
    {!Pool.default}. [config.plan_cache = Some n] equips the session with
    an [n]-entry LRU plan cache ({!Emma_compiler.Plan_cache}).

    Every session also owns a read memo ({!Emma_engine.Exec.read_memo})
    that all its runs share: a table submitted again as the same row list
    is partitioned and sized once, not once per run. It holds one
    partition layout per table name and never changes a result or a
    cost. Entries are never evicted: each table name the session has
    read keeps its last row list and a partitioned copy of it for the
    life of the session, so the memo's memory grows with the number of
    distinct table names read (a replaced table's old rows stay pinned
    until that name is read again).

    Also unifies [runtime.timeout_s] with [config.timeout_s]: one source
    set wins, both set to the same value is accepted, and conflicting
    values raise [Invalid_argument] with a one-line message (exit 2 at
    the CLI). The resolved value lands in [config t].timeout_s. *)

val close : t -> unit
(** Shuts down the session-owned pool, if any. Borrowed pools are left
    running. *)

val config : t -> Config.t
(** The resolved config ([pool] always set). *)

val runtime : t -> runtime
val pool : t -> Pool.t

val plan_cache_stats : t -> Plan_cache.stats option
(** [None] when the session was created with [plan_cache = None]. *)

val run :
  ?config:Config.t ->
  ?cluster:Cluster.t ->
  t ->
  algorithm ->
  tables:(string * Value.t list) list ->
  outcome
(** Executes an already-compiled algorithm on this session's engine
    substrate. [config] overrides the session config for this run only
    (its [pool] field is ignored — the session pool always executes);
    serve uses this for per-tenant memory budgets. A per-run [config]
    without a timeout of its own still inherits the session's resolved
    timeout. [config.deadline_s] sets the per-query budget: running past
    it ends the run in a classified [Cancelled] outcome. [cluster] narrows the
    execution slice for this run only (the serve degradation ladder
    halves dop with it).

    Every outcome path also emits a terminal Trace instant
    ([session:query_terminal], tagged with the outcome status and final
    [sim_time_s]) when tracing is enabled, so failed, timed-out and
    cancelled queries keep their trace/metrics linkage. *)

type cache_status =
  | Hit  (** compiled plan reused from the session plan cache *)
  | Miss  (** compiled cold; the cache was populated *)
  | Uncached  (** session has no plan cache *)

type submit_info = {
  si_cache : cache_status;
  si_compile_s : float;
      (** deterministic compile charge for service-time accounting: a
          cold compile prices proportionally to source size, a hit pays a
          small constant probe. Never added to engine metrics — cached
          and cold runs stay bit-identical there. *)
  si_evictions : int;  (** plans evicted by this submission's store *)
}

val submit :
  ?opts:Pipeline.opts ->
  ?config:Config.t ->
  ?cluster:Cluster.t ->
  t ->
  Expr.program ->
  tables:(string * Value.t list) list ->
  outcome * submit_info
(** The service entry point: compile (or reuse) then run a {e source}
    program. The plan-cache key is {!Pipeline.normalized_key} of the
    normalized program, the compile [opts] and a structural fingerprint
    of [tables] (field names and type tags, never data) — so the same
    query over fresh same-shaped rows hits, while a plan or schema change
    misses. Cache hits/misses/evictions are recorded in the returned
    outcome's {!Metrics.t} ([plan_cache_*] fields) and as Trace instants.
    Results and engine cost metrics are bit-identical between a hit and a
    cold compile (property-tested).

    The session memoizes each key it computes, so a warm session does not
    run the front end again to probe: the memo is matched on the program's
    physical identity ([==]), [opts] and the schema fingerprint, holds at
    most the plan cache's capacity (oldest dropped first) and is empty on
    an uncached session. A structurally equal copy of a program computes
    its key again and hits as before. {!would_hit}, {!prime} and
    {!plan_key} share the memo; all four read it under the session's
    compile lock. *)

val would_hit :
  ?opts:Pipeline.opts ->
  t ->
  Expr.program ->
  tables:(string * Value.t list) list ->
  bool
(** Uncounted plan-cache membership: [true] iff a {!submit} of this
    program/opts/schema would hit right now. Never bumps cache stats or
    LRU recency ({!Plan_cache.mem}), so peeking is free of observable
    side effects — the serve degradation ladder's plan-cache-only rung
    uses it to shed queries that would compile cold. Its key comes from
    the session's key memo (see {!submit}), so a probe of a program the
    session has keyed before allocates only the schema fingerprint.
    Always [false] on an uncached session. *)

val prime :
  ?opts:Pipeline.opts ->
  t ->
  Expr.program ->
  tables:(string * Value.t list) list ->
  unit
(** Stats-neutral cache warming for serve recovery: insert this
    program's plan (compiling cold if absent) or refresh its recency,
    with {!Plan_cache.store}'s tick and eviction behavior but no counter
    bumps. Replaying the journaled hit/miss sequence through [prime]
    reconstructs the uninterrupted run's cache population and LRU order
    exactly; the pre-crash counts are reported as a separate base. Keyed
    through the session's key memo, as {!submit} is. No-op on an uncached
    session. *)

val plan_key :
  ?opts:Pipeline.opts ->
  t ->
  Expr.program ->
  tables:(string * Value.t list) list ->
  string
(** The cache-key text a {!submit} of this program/opts/schema is keyed
    by, taken from (and added to) the session's key memo — serve
    snapshots persist cache contents as query names via this mapping.
    Equal to [(Pipeline.normalized_key ~opts ~schema prog).ck_text] with
    [schema = schema_of_tables tables]. *)

val plan_cache_keys : t -> string list
(** Current plan-cache key texts, least-recently-used first; [[]] when
    the session is uncached. *)

val schema_of_tables : (string * Value.t list) list -> string
(** The structural table fingerprint used by {!submit} (exposed for
    tests). *)
