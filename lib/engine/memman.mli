(** Deterministic memory governance for the simulated engine.

    A [Memman.t] is a coordinator-side accountant that gives every
    execution slot a {e logical} byte budget (the unit the cost model
    charges — physical × [data_scale]) and answers, for each
    state-building operator ({i groupBy}/{i aggBy} hash tables, join
    build sides, fold partials, sort buffers), what happens when the
    state exceeds it:

    {ul
    {- {b spill} ([spill = true]) — the overflowing slots run an external
       (partitioned, grace-style) version of the operator; {!Exec} prices
       the overflow as two disk passes and counts it in the dedicated
       [mem_spills]/[mem_spill_bytes] channels;}
    {- {b OOM kill} ([spill = false]) — the attempt is killed and retried
       at halved parallelism, doubling the surviving slots' memory share
       up to the node's whole memory ([slots_per_node] × budget); beyond
       that the job fails, like a container runtime would kill it for
       good.}}

    It also owns the LRU registry of [Mem]-cached bags (total capacity
    [budget × dop]; admitting a new bag evicts least-recently-used ones,
    which are rebuilt through lineage on next access) and the
    admission-control gate ([max_inflight]) that queues job submissions
    past the in-flight budget.

    {b Determinism.} Every verdict is a pure function of the reservation
    sizes presented in execution order — reservations, evictions and
    queue delays are identical across hosts and domain counts.

    {b Minimum budget.} With spilling enabled, {e any} positive budget
    produces results bit-identical to the unbounded run (spilling only
    adds simulated I/O time). With spilling disabled, the minimum safe
    budget is [peak / slots_per_node] where [peak] is the largest
    per-slot reservation of the unbounded run ([mem_peak_bytes]): beyond
    that, even one slot per node cannot hold the state and the job
    fails. Property-tested in [test/test_memman.ml]. *)

type t

val create :
  ?budget:float ->
  ?spill:bool ->
  ?max_inflight:int ->
  slots_per_node:int ->
  dop:int ->
  unit ->
  t
(** [create ()] is an unbounded accountant: it tracks the peak
    reservation but never spills, kills, evicts or queues — the engine
    behaves exactly as if the subsystem did not exist. [budget] (logical
    bytes per slot, > 0) turns governance on; [spill] picks spill-to-disk
    over OOM-kill on overflow (default [false]); [max_inflight] (>= 1)
    turns admission control on.

    @raise Invalid_argument on [budget <= 0] or [max_inflight < 1]. *)

val governed : t -> bool
(** Whether a budget is set (any verdict other than [Fits] is possible). *)

val budget : t -> float
(** The per-slot budget, or [infinity] when unbounded. *)

val peak : t -> float
(** Largest per-slot reservation seen so far (logical bytes). *)

(** The accountant's answer to one reservation. *)
type verdict =
  | Fits  (** every slot's state fits its budget *)
  | Spill of { slots : int; bytes : float }
      (** [slots] slots overflow by [bytes] logical bytes in total and
          run externally (spilling enabled) *)
  | Kill of { attempts : int }
      (** the attempt is OOM-killed [attempts] times, each retry halving
          parallelism, until the state fits [budget × 2^attempts]
          (spilling disabled) *)
  | Fatal
      (** the state exceeds [budget × slots_per_node] — it cannot fit a
          node's whole memory and the job must fail *)

val reserve : t -> needs:float array -> verdict
(** [reserve t ~needs] presents one operator's per-slot state sizes
    (logical bytes, one array cell per slot holding state) and returns
    the verdict. Always updates {!peak}; always [Fits] when no budget is
    set. *)

(** {2 Cached-bag registry} *)

type admission = { admitted : int option; evicted : float list }
(** [admitted] is the registry id of the newly cached bag ([None] when
    governance is off — nothing to track — or when the bag alone exceeds
    the cache capacity and is not cached at all); [evicted] lists the
    byte sizes of LRU entries dropped to make room. *)

val register : t -> bytes:float -> evict:(unit -> unit) -> admission
(** Admit a freshly materialized [Mem]-cached bag of [bytes] logical
    bytes. Evicts least-recently-used entries (calling their [evict]
    callbacks, which drop the handle's materialization so the next access
    recomputes through lineage) until it fits the capacity
    [budget × dop]. *)

val touch : t -> int -> unit
(** LRU bump on a cache hit. Unknown ids are ignored. *)

val forget : t -> int -> unit
(** Remove an entry whose materialization was dropped for another reason
    (executor loss, epoch invalidation) — does {e not} call its evict
    callback and counts nothing. Unknown ids are ignored. *)

val cached_bytes : t -> float
(** Total logical bytes currently admitted in the registry. *)

(** {2 Admission control}

    A job submission occupies an admission slot from submission until
    [job_overhead_s] of simulated time {e after} its completion (the
    driver-side teardown window). With [max_inflight] slots all held, a
    new submission waits for the earliest release. *)

val admit_job : t -> now:float -> float
(** [admit_job t ~now] takes an admission slot and returns the simulated
    delay (0 when a slot is free or admission control is off). The
    caller charges the delay before running the job. *)

val job_done : t -> release:float -> unit
(** Releases the running job's admission slot at simulated time
    [release] (completion + teardown window). *)
