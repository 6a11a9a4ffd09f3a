(** The simulated distributed runtime: executes abstract dataflow plans over
    partitioned data and interprets compiled driver programs (thunks,
    broadcast variables, loops — the data-motion model of Fig. 3b).

    Semantics are exact — every operator computes the same bag the native
    {!Emma_lang.Eval} interpreter would — while costs are charged to a
    BSP-style model parameterized by {!Cluster.t} and an engine
    {!Cluster.profile}:

    {ul
    {- {b lineage}: binding a bag-valued dataflow is lazy; each consumer
       re-executes the plan (counted in [recomputes]) unless the plan was
       compiled with a [Cache] root, which materializes eagerly — in memory
       for Spark-like profiles, on the simulated DFS (paying I/O per reuse)
       for Flink-like ones;}
    {- {b joins} pick broadcast vs. repartition just-in-time from actual
       input sizes, and skip shuffles for co-partitioned inputs;}
    {- {b aggBy} performs map-side partial aggregation, shuffling one
       aggregate per key per partition, while [groupBy] shuffles everything
       and fails (Spark) or spills (Flink) when a single group exceeds the
       per-slot memory budget;}
    {- {b UDF captures} are shipped as broadcast variables, collecting
       distributed operands first.}} *)

module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Eval = Emma_lang.Eval

exception Engine_failure of string
(** Unrecoverable job failure (e.g. an oversized reduce group on a
    non-spilling engine). *)

exception Engine_timeout of float
(** Raised as soon as the simulated clock exceeds the configured timeout;
    carries the clock value. *)

exception Engine_cancelled of float * string
(** Cooperative cancellation: raised at the next safepoint after the
    query's [deadline_s] budget is exhausted; carries the simulated clock
    and the cancellation reason. Safepoints are every cost charge and
    every partition-dispatch barrier — the same choke points [timeout_s]
    uses — so cancellation also lands mid-recovery and
    mid-admission-wait. When both limits trip on the same charge,
    [Engine_timeout] wins (the operator limit). The run's metrics record
    the event in [cancellations]. *)

type t
(** An engine instance: cluster + profile + metrics + table storage. *)

type read_memo
(** Partitioned input tables reused across runs: each table a [Read]
    scans is partitioned and sized once per (row list, partition count,
    table scale), and reused while its name still maps to the physically
    same row list at the same dop and scale. One entry per table name,
    replaced but never evicted. Safe to share between runs on different
    domains. *)

val read_memo : unit -> read_memo
(** A fresh, empty memo. *)

type udf_mode = Config.udf_mode =
  | Interp  (** tree-walk every UDF body per tuple with {!Emma_lang.Eval} *)
  | Compiled
      (** stage each UDF body once through {!Emma_lang.Compile} into a
          host closure (the default) *)

(** Chunk-size policy for the adaptive-chunking barriers. Operators that
    are order-preserving list homomorphisms (map, flatMap, filter, cross
    and broadcast-join probes, shuffle routing) cut the rows of their
    partitions, in order, into tasks of this many physical rows before
    dispatching to the work-stealing pool, so a skewed partition's tail
    can be stolen mid-partition and runs of small partitions share a
    task; outputs are reassembled in order, keeping results and every
    cost-model metric bit-identical across policies. [Chunk_auto] (the
    default) first decides whether the stage is worth the pool at all
    (see {!inline_work_s}), then sizes tasks from the cost model's
    per-row estimate with a granularity floor (each task carries at least
    a small fraction of one task-scheduling cost in per-row work, so
    cheap rows get coarse tasks); [Chunk_fixed k] pins k rows per task
    (the CLI's [--chunk N]) and always dispatches on a multi-domain pool.
    Non-homomorphic per-partition work (fold accumulators, groupBy/aggBy
    tables, sort-based distinct/minus, repartition-join builds) is never
    cut inside a partition — splitting a float fold would reassociate
    additions — but is packed into tasks of contiguous partitions. *)
type chunk_spec = Config.chunk_spec = Chunk_auto | Chunk_fixed of int

val inline_work_s : float
(** Host granularity: under [Chunk_auto], a barrier whose stage work —
    the cost model's per-row estimate times the physical rows, in
    simulated seconds — is below this runs inline on the calling domain,
    exactly as on a one-domain pool; at or above it the barrier is
    dispatched as at most [chunk_oversub × domains] tasks. *)

val chunk_oversub : int
(** Tasks per domain of a dispatched barrier. *)

val stage_work : Cluster.t -> Pdata.t -> float
(** The work a barrier over this input carries: the cost model's per-row
    estimate (per-record CPU plus bytes through the UDF throughput) times
    the physical rows, in simulated seconds. *)

val create :
  ?config:Config.t ->
  ?read_memo:read_memo ->
  cluster:Cluster.t ->
  profile:Cluster.profile ->
  Eval.ctx ->
  t
(** The [Eval.ctx] provides the named input tables and receives written
    sinks, so engine runs and native runs are directly comparable.

    [read_memo] (default: a fresh memo for this run) holds the
    partitioned form of every table the run reads; a {!Emma.Session}
    passes its own so that repeated submissions over the same tables
    partition and size them once. It never changes a result or a cost:
    the memo stores exactly the layout a fresh [Read] would build.

    [config] carries every execution knob in one record ({!Config.t},
    default {!Config.default}); its [domains]/[plan_cache] fields are
    session concerns and ignored here, as are the serve-layer knobs
    [max_queue]/[breaker]/[drain_after_s]/[wal_dir]/[wal_sync]/
    [snapshot_every]. Raises [Invalid_argument] on [config.mem_budget]
    [<= 0], [config.max_inflight < 1] or [config.checkpoint_every < 1].

    [config.deadline_s] is checked at every safepoint (every cost
    charge, every partition-dispatch barrier) and raises
    {!Engine_cancelled} once the run's own simulated time exceeds the
    budget; [config.timeout_s] raises {!Engine_timeout} once the
    simulated clock exceeds it.

    [config.udf_mode] (default [Compiled]) selects how worker-side UDF
    bodies execute. Both modes share the same cost charging and UDF
    tally, so results and every cost-model metric are bit-identical
    between them — only [wall_time_s] moves; the interpreter is retained
    as the differential-testing oracle.

    [config.faults] is a deterministic fault plan (default
    {!Faults.none}): it injects task-attempt failures, executor losses,
    shuffle-fetch failures, stragglers and driver-loop losses at seeded
    or scripted points, which the engine answers with retries, lineage
    recomputation, speculative copies, blacklisting and checkpoint
    restores (knobs in {!Cluster.recovery}). Results are bit-identical to
    the fault-free run; only the simulated clock and the recovery
    counters in {!Metrics} change. Recovery time is charged through the
    same clock the timeout watches, so [config.timeout_s] fires
    mid-recovery too.

    [config.checkpoint_every] (default off) checkpoints driver-loop
    state — assigned loop variables and stateful bags — every [k]
    completed iterations, priced as DFS I/O and counted in
    [checkpoints]/[checkpoint_bytes]; an injected loop loss then restarts
    from the last checkpoint instead of the loop entry. Each checkpoint
    record carries a CRC32 of a deterministic fingerprint of its state;
    on restore the engine verifies the checksum and a corrupted record
    (injected via {!Faults.Ckpt_corrupt}) is skipped — counted in
    [checkpoint_corruptions] — falling back to the previous good one,
    paying the DFS read for every record examined.

    [config.mem_budget] (logical bytes per slot, default unbounded) turns
    on deterministic memory governance ({!Memman}): every state-building
    operator — [groupBy]/[aggBy] hash tables, join build sides, fold
    partials, sort buffers — reserves its per-slot state size before
    running. Overflowing slots either spill to disk ([config.spill =
    true]: priced as DFS I/O in the dedicated [mem_spills]/
    [mem_spill_bytes] channels) or are OOM-killed and retried at halved
    parallelism ([config.spill = false]: counted in [oom_kills]; the job
    fails with [Engine_failure] once even one slot per node cannot hold
    the state). The budget also caps the [Mem]-cache: cached bags past
    [mem_budget × dop] total are LRU-evicted (counted in
    [cache_evictions]/[evicted_bytes]) and rebuilt through lineage on
    next use. Results are bit-identical to the unbounded run for any
    sufficient budget; only [sim_time_s] and the memory counters move.
    Without a budget the engine only tracks [mem_peak_bytes].

    [config.max_inflight] (>= 1, default unbounded) gates job admission:
    a submission past the in-flight budget waits for the earliest slot
    release (completion + per-job overhead), counted in
    [jobs_queued]/[queue_wait_s] and charged to the simulated clock.

    [config.pool] is the domain pool the multicore backend runs
    per-partition operator work on (default: {!Emma_util.Pool.default}).
    Shuffles, the driver, and all cost charging stay on the calling
    domain, so results and every cost-model metric — [sim_time_s],
    [shuffle_bytes], [stages], even [udf_invocations] — are bit-identical
    whatever the pool size; only [wall_time_s] and the [par_*] counters
    reflect the parallelism. [config.chunk] sets the chunk-size policy
    ({!chunk_spec}).

    [config.trace] is a span tracer (default: {!Emma_util.Trace.global},
    i.e. disabled unless the CLI/bench installed one). When enabled the
    engine emits job spans around each submitted dataflow, stage spans
    per executed operator (tagged operator kind, the simulated clock at
    operator start as [sim_s], and output size; on a one-domain pool also
    [minor_words], the host words the operator and its inputs
    allocated, not counting the tracer's own), partition task spans on
    the worker domains (tagged partition index and domain id), and
    byte-motion counters. Tracing is pure observation: it is never
    consulted by cost charging, so every cost-model metric is
    bit-identical with tracing on or off. *)

val metrics : t -> Metrics.t

type dval =
  | Dscalar of Eval.rvalue
  | Dbag of handle  (** distributed bag (lazy lineage or materialized) *)
  | Dstateful of state_handle

and handle
and state_handle

val run : t -> Cprog.t -> Value.t
(** Executes a compiled driver program and returns its result value
    (distributed results are collected). Raises [Engine_failure] /
    [Engine_timeout]. *)
