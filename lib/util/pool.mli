(** A fixed pool of worker Domains (OCaml 5 shared-memory parallelism)
    scheduled by per-domain deques with work stealing.

    Each participating domain owns a deque accessed Chase-Lev style — the
    owner pushes/pops its bottom (LIFO), thieves take the top (FIFO) — and
    steals from a seeded-deterministic victim order only when its own deque
    is empty. {!parinit} batches are scattered round-robin across all
    deques, so the common case is an uncontended local pop; stealing kicks
    in exactly when work is imbalanced. The scheduling-adversarial test
    suite checks it against a sequential [Array.map]: same results, and
    the same exception (that of the lowest failing index).

    [create ~domains:n] gives n-way parallelism {e including the caller}:
    n-1 worker Domains are spawned, and the domain calling {!parinit}
    claims and executes tasks alongside them. Nested [parinit] calls are
    deadlock-free because a batch's submitter can always reach any queued
    task through its own claim sweep (pop own deque, then steal), and
    sleeps only when every remaining task of its batch is in flight.

    The pool is the machinery behind the engine's multicore execution
    backend: packed ranges of a dataflow operator's partitions are the
    tasks, and the barrier at the end of [parinit] is where the
    coordinator merges per-partition accumulators (the BSP superstep
    boundary). Scheduling is invisible to the cost model — steal order can
    move wall time only, never results or charged cost.

    {b Host granularity.} The pool itself never decides whether a batch is
    worth dispatching; the engine does, per barrier ([Exec], "Host
    granularity"). A stage whose cost-model work estimate is below a
    measured threshold runs inline on the calling domain and never wakes a
    worker; larger stages become a few tasks per domain, each covering a
    contiguous range of partitions. *)

type t

val create : ?seed:int -> domains:int -> unit -> t
(** Spawns [domains - 1] worker Domains ([domains <= 1] spawns none and
    makes {!parinit} run inline — the exact sequential execution). [seed]
    (default 0) keys the per-slot victim permutations, making scheduling
    traces reproducible; results never depend on it. *)

val size : t -> int
(** The configured degree of parallelism (including the caller). *)

val parinit : t -> int -> (int -> 'a) -> 'a array
(** [parinit t n f] is [Array.init n f] with the calls spread over the
    pool's domains, one task per index. All tasks run to completion even
    if some raise; the exception of the {e lowest} index is then re-raised
    in the caller — the same exception a sequential ascending run would
    surface — and the pool remains usable. Safe to call from inside a
    task (nested batches). On a one-domain pool, or for [n <= 1], it is
    exactly [Array.init n f] on the calling domain. *)

val parmap : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parmap t f xs] is [parinit t (Array.length xs) (fun i -> f xs.(i))]. *)

val shutdown : t -> unit
(** Signals every worker to exit and joins them. Idempotent; after
    shutdown, {!parinit} still works but runs inline. *)

(** {1 Scheduler observability} *)

type stats = {
  steals : int;  (** tasks claimed from another slot's deque *)
  steal_misses : int;  (** full claim sweeps that found every deque empty *)
  tasks_run : int;  (** tasks executed through the deques (parallel path) *)
}

val stats : t -> stats
(** Monotone counters since [create]. Purely observational: consumers (the
    engine's [par_steals]/[par_steal_misses] metrics, trace instants) diff
    snapshots around barriers; nothing in result or cost computation reads
    them. *)

(** {1 Global default pool}

    Process-wide pool used by engine instances that are not given an
    explicit pool: the CLI's [--domains] and the test suite's
    [EMMA_TEST_DOMAINS] configure it once at startup. *)

val default : unit -> t
(** The shared pool (created lazily; 1 domain unless configured). *)

val set_default_domains : int -> unit
(** Reconfigures the default pool size, shutting down any existing default
    pool (a fresh one is created on the next {!default} call). *)

val default_domains : unit -> int
