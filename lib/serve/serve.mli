(** [emma serve]: a multi-tenant query service over {!Emma.Session}.

    Tenants submit named queries following an {!Arrival} trace; a
    fair-share admission scheduler — deficit round-robin over per-tenant
    queues, deterministic tie-break on submission id — dispatches them
    over [max_inflight] service lanes on one shared session (shared
    work-stealing pool, shared plan cache, per-tenant memory budgets).

    Serving is a deterministic discrete-event simulation: service time is
    the session's deterministic compile charge plus the engine's
    simulated cost, so every counter — queue depths, cache hits/misses,
    per-tenant admissions, the full {!fingerprint} — is bit-identical
    across replays and across domain counts, and each query's value and
    engine metrics match a standalone [run_on]. The decisions are taken
    by {!Sched}; this module is the one driver over it, for live serving
    ({!run_sim}) and for journal replay ({!recover_sim}) alike.

    {b Overload control.} Every run is under a {!policy}: per-query
    deadlines (queue-expired queries are shed before dispatch; admitted
    ones carry the remaining budget into the engine, which raises a
    classified [Cancelled] outcome past it), bounded per-tenant queues
    with a seeded-deterministic victim pick, per-tenant circuit breakers
    (open after K consecutive bad outcomes, half-open probe after a
    cool-down), a degradation ladder (halve dop → disable speculation →
    plan-cache-only) stepped by total backlog, and a drain cutoff on the
    simulated clock. Every decision is a pure function of (seed, trace,
    simulated clock), so shed/breaker behaviour replays bit-identically
    at any domain count. Shed queries are always counted and reported
    per submission — nothing is silently dropped. *)

module Session = Emma.Session
module Config = Emma.Config
module Plan_cache = Emma.Plan_cache
module Wal = Emma_util.Wal

type tenant = {
  tn_name : string;
  tn_weight : int;  (** fair-share weight (>= 1): deficit earned per round *)
  tn_mem_budget : float option;
      (** per-tenant engine memory budget, overriding the session config *)
}

val tenant : ?weight:int -> ?mem_budget:float -> string -> tenant
(** [weight] defaults to 1. Raises [Invalid_argument] when [weight < 1]. *)

type workload = (string * (Emma.Expr.program * (string * Emma.Value.t list) list)) list
(** Query name → source program + input tables. Submissions go through
    {!Session.submit}, so repeat names hit the plan cache. *)

type query_result = {
  qr_sub : int;  (** submission id: position in the arrival trace *)
  qr_tenant : string;
  qr_query : string;
  qr_arrival_s : float;
  qr_start_s : float;  (** dispatch time on the simulated clock *)
  qr_finish_s : float;
  qr_service_s : float;  (** compile charge + simulated cost *)
  qr_cache : Session.cache_status;
  qr_outcome : Session.outcome;
      (** full outcome — value and per-query metrics, present on failure
          and cancellation paths too *)
  qr_degrade : int;
      (** degradation-ladder level the query ran at: 0 = none, 1 =
          halved dop, 2 = + no speculation, 3 = plan-cache-only *)
}

(** Why a query was shed instead of run (see {!Sched.shed_reason}). Every
    shed is counted and carries its submission identity — no query is
    ever silently lost. *)
type shed_reason = Sched.shed_reason =
  | Shed_deadline
  | Shed_queue_full
  | Shed_breaker
  | Shed_drain
  | Shed_degraded

type shed_record = {
  sh_sub : int;
  sh_tenant : string;
  sh_query : string;
  sh_arrival_s : float;
  sh_at_s : float;  (** clock when the shed decision was taken *)
  sh_reason : shed_reason;
}

type tenant_counters = {
  tc_name : string;
  tc_weight : int;
  tc_admissions : int;  (** queries dispatched for this tenant *)
  tc_max_queue : int;
      (** deepest scheduler-queue backlog observed *)
  tc_shed : int;
  tc_breaker_opens : int;  (** times this tenant's circuit opened *)
  tc_queue_wait_s : float;  (** total dispatch − arrival *)
  tc_service_s : float;
}

type counters = {
  sv_results : query_result list;  (** in submission-id order *)
  sv_shed : shed_record list;  (** in submission-id order *)
  sv_tenants : tenant_counters list;  (** in declaration order *)
  sv_cache : Plan_cache.stats option;
  sv_failed : int;
  sv_timed_out : int;
  sv_cancelled : int;  (** admitted queries ending in [Cancelled] *)
  sv_degraded : int;  (** admitted queries run at ladder level >= 1 *)
  sv_breaker_opens : int;
  sv_breaker_half_opens : int;
  sv_breaker_closes : int;
  sv_lanes : int;
  sv_makespan_s : float;
  sv_wall_s : float;  (** host seconds; excluded from {!fingerprint} *)
}

(** Overload-control policy (fields documented at {!Sched.policy}). All
    decisions taken under it are pure functions of (seed, trace,
    simulated clock) — never of wall time, domain count or queue races —
    which is what keeps fingerprints bit-identical across 1/2/4/8
    domains and replays. *)
type policy = Sched.policy = {
  pl_seed : int;
  pl_deadline_s : float option;
  pl_max_queue : int option;
  pl_breaker : Config.breaker_spec option;
  pl_drain_after_s : float option;
  pl_degrade_depth : int option;
}

val no_policy : policy
(** Everything off, seed 0 — byte-identical behaviour to a pre-policy
    serve. *)

val policy_of_config : ?seed:int -> lanes:int -> Config.t -> policy
(** The default policy of a run: [deadline_s], [max_queue],
    [breaker] and [drain_after_s] map across from the session config; the
    degradation ladder auto-engages when deadlines are set (step =
    2 × lanes of backlog per level) and stays off otherwise. *)

exception Recovery_error of string
(** Raised by {!recover_sim} (and by journaling {!run_sim}) when the
    durable state on disk cannot be reconciled with the run being
    performed: a journal record regenerated from (trace, flags) differs
    from the retained journal, a snapshot's scheduler dimensions do not
    match the session, or a snapshot names a cached plan outside the
    workload. The one-line message tells the operator to recover with the
    original run's flags and trace; the CLI maps it to exit 2. *)

type durability = {
  du_wal : Wal.t;  (** open journal (see {!Emma_util.Wal.create}) *)
  du_snapshot_every : int option;
      (** write a compacting snapshot every K outcomes ([None] = never) *)
}

val run_sim :
  ?quantum_s:float ->
  ?policy:policy ->
  ?durability:durability ->
  Session.t ->
  tenant list ->
  workload ->
  Arrival.event list ->
  counters
(** Deterministic replay of the trace. Lanes = the session config's
    [max_inflight] (default: one per tenant). [quantum_s] (default 1.0)
    is the deficit earned per weight unit per scheduler round; any
    positive value is starvation-free. [policy] defaults to
    {!policy_of_config} of the session config (everything off for a
    config without robustness knobs). Raises [Invalid_argument] when a
    trace event names an unknown tenant or query, on duplicate tenants,
    on an empty tenant list, or on a non-positive [max_queue].

    With [durability] the run journals every decision as it is taken —
    one meta record, one record per arrival, then a shed record per shed
    and dispatch + outcome records per admission — and optionally writes
    compacting snapshots every [du_snapshot_every] outcomes. Journaling
    never changes the fingerprint: a journaled run and a plain run of the
    same (session, trace, policy) produce bit-identical counters. *)

val recover_sim :
  ?quantum_s:float ->
  ?policy:policy ->
  durability:durability ->
  Session.t ->
  tenant list ->
  workload ->
  Arrival.event list ->
  counters
(** Crash recovery: rebuild the serve run recorded in [durability]'s
    journal. The scheduler re-simulates the trace from the latest usable
    snapshot (or from t=0); decisions already journaled are verified
    against the regenerated ones ({!Recovery_error} on mismatch), queries
    with a journaled outcome are {e not} re-executed — their results are
    rebuilt from the journal and the plan cache is warmed stats-neutrally
    to the same population and LRU order — and queries that were admitted
    but unfinished at the crash are re-submitted idempotently under their
    original submission id. New decisions past the retained journal are
    appended, so the recovered journal converges to the uninterrupted
    run's journal and repeated crashes compose. The recovered counters'
    {!fingerprint} is bit-identical to an uninterrupted run
    (property-tested across every crash point). *)

val fingerprint : counters -> string
(** The replay identity of a run: every scheduling/queue/cache/shed/
    breaker quantity in pinned formatting, host wall time excluded —
    bit-identical across replays and across 1/2/4/8 domains
    (property-tested). *)

val latencies : counters -> float array
(** Sorted [finish − arrival] per {e admitted} query (sheds excluded —
    they are reported separately, never folded into latency). *)

val percentile : float array -> float -> float
(** Nearest-rank percentile on a sorted array ([percentile lat 0.99]). *)

val counters_to_json : counters -> Emma.Json.t
(** Machine-readable summary (queries, lanes, p50/p99, shed counts by
    reason, breaker cycle counts, cache stats, per-tenant counters) with
    the repo's pinned float rendering. *)

val cache_to_string : Session.cache_status -> string
val status_to_string : Session.outcome -> string
val shed_reason_to_string : shed_reason -> string
