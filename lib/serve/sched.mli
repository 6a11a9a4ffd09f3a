(** The serve decision core: fair-share admission and overload control
    as two functions over one mutable {!state}, with no query execution,
    journal or tracer in reach. {!Serve} drives it for live serving and
    for journal replay alike; tests drive it with a fake executor.

    Every decision is a pure function of the policy, the trace, and what
    the executor feeds back: service times and outcome classes through
    {!settle}, plan-cache verdicts through [would_hit]. With a
    deterministic executor, serve replays bit-identically at any domain
    count. *)

type shed_reason =
  | Shed_deadline  (** queue wait alone already exceeded the deadline *)
  | Shed_queue_full
      (** per-tenant queue at [max_queue]; the victim (arriving vs oldest
          queued) is a seeded-deterministic pick *)
  | Shed_breaker  (** tenant circuit open: fast-fail without dispatch *)
  | Shed_drain  (** arrived after the drain point: admissions stopped *)
  | Shed_degraded
      (** ladder level 3 (plan-cache-only): the query would compile cold *)

type policy = {
  pl_seed : int;  (** seeds the queue-full victim picks *)
  pl_deadline_s : float option;
      (** end-to-end per-query budget (arrival → finish): queue-expired
          queries are shed, admitted ones hand the remaining budget to
          the engine as [Config.deadline_s] *)
  pl_max_queue : int option;  (** per-tenant queue bound (>= 1) *)
  pl_breaker : Emma.Config.breaker_spec option;
  pl_drain_after_s : float option;
      (** stop admitting arrivals past this simulated clock *)
  pl_degrade_depth : int option;
      (** ladder step size in total queued queries: level = depth / step,
          capped at 3; [None] = ladder off *)
}

(** Per-tenant circuit: [Br_closed k] after [k] consecutive bad outcomes,
    [Br_open until] fast-fails until the simulated instant [until], and
    [Br_half_open] probes with a single query. *)
type breaker = Br_closed of int | Br_open of float | Br_half_open

type shed = { sd_sub : int; sd_at_s : float; sd_reason : shed_reason }

(** A dispatch: submission [sub] of tenant index [tenant] starts on
    [lane] at simulated time [start] at ladder [level] (0–3). *)
type run = { sub : int; tenant : int; lane : int; start : float; level : int }

type decision = Idle | Shed of shed | Run of run

(** Everything a snapshot persists. ['r] is the executor's result, one
    per settled submission. [sheds] is newest first. *)
type 'r state = {
  quantum_s : float;
  weights : int array;  (** per tenant index *)
  arrivals : float array;  (** per sub *)
  tenant_of : int array;  (** per sub *)
  order : int array;  (** subs by arrival time, sub id breaking ties *)
  lane_free : float array;
  queues : int Queue.t array;
  deficit : float array;
  max_queue : int array;  (** deepest backlog seen, per tenant *)
  breakers : breaker array;
  breaker_opens : int array;
  mutable half_opens : int;
  mutable closes : int;
  results : 'r option array;
  mutable sheds : shed list;
  mutable next : int;  (** position in [order] of the next arrival *)
  mutable accounted : int;  (** subs settled or shed *)
  mutable rr : int;  (** next tenant the rotation visits *)
}

val create :
  quantum_s:float ->
  weights:int array ->
  lanes:int ->
  arrivals:float array ->
  tenant_of:int array ->
  'r state
(** A fresh state at t = 0: every lane free, every queue empty, every
    circuit closed. *)

val finished : 'r state -> bool
(** Every submission is settled or shed. *)

val decide : would_hit:(int -> bool) -> policy -> 'r state -> decision
(** The next decision on the earliest-free lane (lowest index breaks
    ties). Arrivals due by then are admitted first, and the first one
    shed at admission (drain, queue bound) is the decision. Otherwise
    [Idle] advances an idle lane to the next arrival, or deficit
    round-robin picks a tenant whose queue head is shed (open breaker,
    deadline, ladder level 3 when [would_hit sub] is false) or run.
    [would_hit] is called only at ladder level 3. A [Run] must be
    {!settle}d before the next call. *)

val settle : policy -> 'r state -> run -> service:float -> bad:bool -> 'r -> unit
(** Applies a run's outcome: debits [service] from the tenant's deficit,
    frees the lane at [start + service], and feeds the tenant's breaker
    ([bad] = failed, timed out or cancelled). *)
