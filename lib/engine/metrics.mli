(** Cost accounting for a simulated run. All byte quantities are logical
    (physical × [data_scale]); [sim_time_s] is the simulated wall-clock the
    cost model produces, which the experiment harness reports in place of
    the paper's measured runtimes. *)

type t = {
  mutable sim_time_s : float;
  mutable shuffle_bytes : float;
  mutable broadcast_bytes : float;  (** total bytes shipped to workers *)
  mutable dfs_read_bytes : float;
  mutable dfs_write_bytes : float;
  mutable collect_bytes : float;  (** DFL → DRV motion *)
  mutable parallelize_bytes : float;  (** DRV → DFL motion *)
  mutable spilled_bytes : float;
  mutable jobs : int;  (** dataflows submitted *)
  mutable stages : int;  (** operators executed *)
  mutable recomputes : int;  (** lineage re-executions of a bound dataflow *)
  mutable cache_hits : int;
  mutable cache_losses : int;  (** injected failures recovered via lineage *)
  mutable udf_invocations : int;  (** physical count, not scaled *)
  mutable wall_time_s : float;  (** real elapsed time of the run on the host *)
  mutable par_stages : int;
      (** operator barriers dispatched on the domain pool (a barrier run
          inline on the calling domain is not counted) *)
  mutable par_tasks : int;  (** packed tasks dispatched through the pool *)
  mutable par_chunks : int;
      (** retired, always 0: the engine no longer splits a partition
          across tasks. Kept, with its report row and JSON key, because
          perfbench reads it for [pool.chunks]; both go together. *)
  mutable par_steals : int;
      (** retired, always 0: the pool has no deques to steal from (every
          domain claims from a batch's shared next-index counter). Kept,
          with its report row and JSON key, because perfbench reads it
          for [pool.steal_ratio]; they go together. *)
  mutable par_steal_misses : int;  (** retired, always 0, as [par_steals] *)
  mutable retries : int;
      (** failed task attempts injected by the fault plan and re-run
          (each charged backoff + rescheduling) *)
  mutable fetch_failures : int;  (** shuffle-fetch chunks lost and re-fetched *)
  mutable executor_losses : int;  (** node deaths injected at barriers *)
  mutable blacklisted_nodes : int;  (** nodes blacklisted after repeated failures *)
  mutable recomputed_partitions : int;
      (** partitions of lost cached/materialized results rebuilt through
          lineage re-execution *)
  mutable speculative_launches : int;  (** speculative copies of straggler tasks *)
  mutable speculative_wins : int;
      (** speculative copies that finished before the straggler *)
  mutable checkpoints : int;  (** loop-state checkpoints written *)
  mutable checkpoint_bytes : float;  (** logical bytes of loop state checkpointed *)
  mutable loop_restores : int;
      (** driver-loop restarts from a checkpoint (or from loop entry) *)
  mutable mem_peak_bytes : float;
      (** largest per-slot operator-state reservation seen by {!Memman}
          (logical bytes); tracked even when no budget is set *)
  mutable mem_spills : int;
      (** slots that overflowed their budget and spilled operator state *)
  mutable mem_spill_bytes : float;
      (** logical bytes of operator state spilled to local disk under
          memory pressure (separate channel from [spilled_bytes], which
          counts the profile's own group-by spill behaviour) *)
  mutable oom_kills : int;
      (** attempts killed for exceeding the budget with spilling disabled
          (genuine overflows and chaos-injected kills) and retried at
          reduced parallelism *)
  mutable cache_evictions : int;
      (** [Mem]-cached bags dropped by the LRU evictor to admit new ones *)
  mutable evicted_bytes : float;  (** logical bytes of evicted cached bags *)
  mutable jobs_queued : int;
      (** job submissions delayed by admission control ([max_inflight]) *)
  mutable queue_wait_s : float;
      (** total simulated seconds jobs spent queued before admission *)
  mutable checkpoint_corruptions : int;
      (** loop checkpoints whose CRC32 failed verification on restore and
          were skipped in favour of an older good one *)
  mutable plan_cache_hits : int;
      (** session plan-cache hits: submissions whose compiled plan was
          reused, skipping the whole compile pipeline (set by
          [Emma.Session.submit], not the engine) *)
  mutable plan_cache_misses : int;
      (** submissions that compiled cold and populated the plan cache *)
  mutable plan_cache_evictions : int;
      (** cached plans dropped by the LRU evictor on this submission's
          store *)
  mutable cancellations : int;
      (** cooperative cancellations observed by this run: 1 when the run
          ended in a classified [Cancelled] outcome (its [deadline_s]
          budget was exceeded), 0 otherwise *)
  mutable wal_appends : int;
      (** journal records appended on behalf of this submission (its
          dispatch and outcome records) when serve runs with [--wal] *)
  mutable wal_bytes : float;
      (** framed journal bytes written for this submission *)
  mutable wal_fsyncs : int;
      (** fsync calls attributable to this submission under the active
          [--wal-sync] policy *)
  mutable recovery_replayed : int;
      (** 1 when this outcome was rebuilt from the durable journal during
          [--recover] instead of re-executing the query, 0 otherwise *)
}

val create : unit -> t

val cost : t -> t
(** The invariance contract: a copy of the record with every field the
    cost model does not produce zeroed. Two runs of the same program and
    inputs have equal [cost] views whatever the domain count, UDF mode, tracing, plan cache or pool, so tests compare
    [cost a = cost b]. Two groups are zeroed:
    - host-measured: [wall_time_s] and [par_stages], [par_tasks],
      [par_chunks], [par_steals], [par_steal_misses], which describe how
      the host ran the partitions;
    - session/serve attribution: [plan_cache_hits], [plan_cache_misses],
      [plan_cache_evictions], [wal_appends], [wal_bytes], [wal_fsyncs] and
      [recovery_replayed], stamped on a run's record by [Session.submit]
      and serve after the engine has finished.

    Every other field, including any field added later and not put in a
    group here, is a cost field and is kept. *)

val add_time : t -> float -> unit
val pp : Format.formatter -> t -> unit

val to_rows : t -> (string * string) list
(** Key/value rendering for benchmark tables. Formatting is pinned (fixed
    precisions; OCaml's [Printf] always uses the C locale's dot decimal
    point), so rendered rows are byte-stable across hosts. *)

val to_json : t -> Emma_util.Json.t
(** Every field, under its record name, as a flat JSON object — the
    machine-readable run report the bench harness emits next to each
    table. Floats are rendered with pinned [%.6f] precision by
    {!Emma_util.Json.to_string}. *)

val to_json_string : t -> string
