(** Deterministic fault injection: the engine's chaos subsystem.

    A {e fault plan} decides, at well-defined injection points inside
    {!Exec}, whether a simulated failure occurs:

    {ul
    {- {b task-attempt failures} — a partition task of an operator barrier
       dies and is retried with exponential backoff (bounded by
       {!Cluster.recovery.max_task_attempts}); repeated failures blacklist
       the offending node;}
    {- {b executor loss} — a node dies at a barrier: its in-flight tasks
       fail, and memory-cached partitions materialized before the loss are
       gone on their next use (recovered through lineage; DFS-backed caches
       survive);}
    {- {b shuffle-fetch failures} — a reducer loses one mapper's output
       chunk and re-fetches it;}
    {- {b stragglers} — a slot runs a task at a configured slowdown; the
       engine launches a speculative copy and the first finisher wins;}
    {- {b loop loss} — the driver loses its loop state at an iteration
       boundary and restarts from the last checkpoint (or from the loop
       entry when checkpointing is off).}}

    Every decision is a {e pure} function of the plan's seed and the
    injection point's identity ({!Emma_util.Prng.hash_unit}), so plans are
    reproducible, independent of evaluation order, and independent of the
    domain count running partition work.

    {b Invariant} (property-tested in [test/test_faults.ml]): for any
    fault plan, job results are bit-identical to the fault-free run;
    recovery changes only the simulated clock and the clearly-scoped
    recovery channels in {!Metrics} ([retries], [recomputed_partitions],
    [speculative_launches]/[_wins], [checkpoint_bytes], …) plus whatever
    lineage re-execution legitimately re-runs ([recomputes], [stages],
    [udf_invocations]). With the empty plan ({!none}) the engine behaves
    exactly as if the subsystem did not exist. *)

(** Per-injection-point probabilities, all in [0, 1]. *)
type rates = {
  task_fail : float;  (** per task attempt *)
  executor_loss : float;  (** per barrier: a node dies *)
  fetch_fail : float;  (** per (shuffle, reducer): one mapper chunk lost *)
  straggler : float;  (** per (stage, partition): task runs slow *)
  straggler_slowdown : float;
      (** multiplier on a straggler's task time (>= 1) *)
  loop_loss : float;  (** per loop-iteration boundary: driver state lost *)
  oom_kill : float;
      (** per memory reservation: the attempt is OOM-killed by the
          (simulated) container supervisor and retried at reduced
          parallelism, regardless of whether it actually fit its budget *)
}

val zero_rates : rates
(** All rates 0 — a seeded plan with these injects nothing. *)

val default_rates : rates
(** Moderate chaos for smoke tests and the CLI default: a few percent on
    each channel, 4× straggler slowdown. *)

val rates_of_string : string -> (rates, string) result
(** Parses
    ["task=0.1,exec=0.02,fetch=0.05,straggle=0.1,slow=4,loop=0.02,oom=0.01"]
    (any subset of keys; unlisted keys stay 0). Probabilities outside
    [0, 1] (and [slow < 1]) are rejected with a one-line error rather
    than clamped, so the CLI can fail fast on misspelled chaos plans. *)

(** A scripted injection: fires at an exact point instead of by rate.
    Points are identified by the engine's deterministic sequence counters
    (barriers, shuffles, cache hits and loop boundaries are numbered from
    1 in execution order, identically at any domain count). *)
type event =
  | Cache_loss of int
      (** the cached result serving the k-th cache hit is lost and is
          rebuilt through lineage *)
  | Task_fail of { barrier : int; part : int; attempts : int }
      (** the task for [part] fails [attempts] times in barrier [barrier];
          scripted counts are NOT capped, so [attempts >=]
          [max_task_attempts] fails the job *)
  | Exec_loss of { barrier : int; node : int }
      (** node [node] dies at barrier [barrier] *)
  | Fetch_fail of { shuffle : int; part : int; times : int }
      (** reducer [part] of shuffle [shuffle] loses a mapper chunk
          [times] times *)
  | Straggle of { stage : int; part : int; slowdown : float }
      (** partition [part] of CPU stage [stage] runs [slowdown]× slow *)
  | Loop_loss of int  (** driver state lost at the k-th loop boundary *)
  | Oom_kill of int
      (** the attempt holding the k-th memory reservation is OOM-killed
          (reservations are numbered from 1 in execution order,
          identically at any domain count) *)
  | Ckpt_corrupt of int
      (** the k-th loop checkpoint written is corrupted on disk (a byte
          of its payload is flipped); detected by CRC32 on restore and
          skipped in favour of the previous good checkpoint *)

type t
(** A fault plan: a seed, rate knobs, and scripted events. *)

val none : t
(** The empty plan: injects nothing, ever. *)

val is_none : t -> bool

val seeded : ?rates:rates -> int -> t
(** [seeded seed] draws every injection decision from [rates] (default
    {!default_rates}) keyed by [seed] and the injection point. Seeded
    task failures are capped below the retry bound, so a seeded plan can
    slow a job down but never fail it. *)

val scripted : event list -> t
(** Fires exactly the listed events and nothing else. *)

(** {2 Decision queries} — consulted by {!Exec} on the coordinator.
    All are pure. *)

val task_failures : t -> barrier:int -> part:int -> cap:int -> int
(** Number of failed attempts injected for this task. Seeded draws are
    capped at [cap] (the scheduler eventually finds a healthy node);
    scripted counts are returned uncapped. *)

val executor_loss : t -> barrier:int -> nodes:int -> int option
(** The node that dies at this barrier, if any. *)

val fetch_failures : t -> shuffle:int -> part:int -> int
(** Lost-chunk count for this reducer in this shuffle. *)

val straggler : t -> stage:int -> part:int -> float option
(** Slowdown factor (> 1) when this partition's task straggles. *)

val cache_loss : t -> hit:int -> bool
(** Whether the cached copy serving this (1-based) cache hit is lost. *)

val loop_loss : t -> boundary:int -> bool
(** Whether driver loop state is lost at this (1-based, globally numbered)
    iteration boundary. *)

val oom_kill : t -> reservation:int -> bool
(** Whether the attempt holding this (1-based, globally numbered) memory
    reservation is OOM-killed by the simulated container supervisor. *)

val ckpt_corrupt : t -> ckpt:int -> bool
(** Whether the (1-based, globally numbered) k-th checkpoint written is
    corrupted on disk. Scripted-only: there is no rate for corruption. *)
