(** First-class engine configuration.

    One record holds every execution knob of [Emma.run_on],
    {!Exec.create}, sessions and the CLI. Build one with {!default} and
    the functional [with_*] setters (or {!of_cli} from raw flag values),
    then hand it to [Emma.Session.create] / [Exec.create ?config]. *)

type udf_mode =
  | Interp  (** tree-walk every UDF body per tuple with {!Emma_lang.Eval} *)
  | Compiled
      (** stage each UDF body once through {!Emma_lang.Compile} into a
          host closure (the default) *)

(** Per-tenant circuit-breaker policy for [emma serve]: after
    [br_threshold] consecutive [Failed]/[Timed_out]/[Cancelled] outcomes
    a tenant's circuit opens (its queued queries fast-fail as shed), then
    half-opens [br_cooldown_s] simulated seconds later and probes with a
    single query — a good probe closes the circuit, a bad one re-opens
    it. All transitions happen on the coordinator as pure functions of
    recorded outcomes and the simulated clock, so they replay
    bit-identically. *)
type breaker_spec = { br_threshold : int; br_cooldown_s : float }

type t = {
  udf_mode : udf_mode;  (** worker-side UDF execution (default [Compiled]) *)
  faults : Faults.t;  (** deterministic fault plan (default {!Faults.none}) *)
  checkpoint_every : int option;
      (** checkpoint driver-loop state every [k] iterations (default off) *)
  mem_budget : float option;
      (** logical bytes per slot; turns on memory governance (default
          unbounded) *)
  spill : bool;
      (** overflowing slots spill to simulated disk instead of OOM-killing
          (default [false]) *)
  max_inflight : int option;
      (** job-admission gate: at most this many jobs in flight (default
          unbounded) *)
  pool : Emma_util.Pool.t option;
      (** domain pool for per-partition work (default: the ambient
          {!Emma_util.Pool.default}, or a session-owned pool when
          [domains] is set) *)
  trace : Emma_util.Trace.t option;
      (** span tracer (default: the ambient {!Emma_util.Trace.global}) *)
  domains : int option;
      (** when set and [pool] is [None], sessions create (and own) a
          dedicated pool of this many domains *)
  plan_cache : int option;
      (** plan-cache capacity for sessions: [Some n] keeps the [n] most
          recently used compiled plans (default [Some 64]); [None] turns
          the cache off. Ignored by bare [Exec.create]. *)
  timeout_s : float option;
      (** simulated-clock execution timeout (default none). Sessions
          reject a conflicting [Session.spark ?timeout_s] value. *)
  deadline_s : float option;
      (** per-query latency budget on the simulated clock (default
          none): the engine raises a classified [Cancelled] outcome as
          soon as the query's own simulated time exceeds it. Distinct
          from [timeout_s] (an operator limit) — a deadline is a service
          objective, checked at the same safepoints. *)
  max_queue : int option;
      (** serve-layer knob: bounded per-tenant queue depth; arrivals past
          the bound are shed by a seeded-deterministic policy (default
          unbounded). Ignored by bare [Exec.create]. *)
  breaker : breaker_spec option;
      (** serve-layer knob: per-tenant circuit breaker (default off).
          Ignored by bare [Exec.create]. *)
  drain_after_s : float option;
      (** serve-layer knob: stop admitting queries after this many
          simulated seconds, shedding later arrivals and finishing or
          cancelling in-flight work by deadline (default: never drain).
          Ignored by bare [Exec.create]. *)
  wal_dir : string option;
      (** serve-layer knob: directory of the durable write-ahead journal
          ([--wal DIR] / [--recover DIR]); default off. Ignored by bare
          [Exec.create]. *)
  wal_sync : Emma_util.Wal.sync_policy;
      (** fsync policy for journal appends (default {!Emma_util.Wal.Sync_none});
          only meaningful with [wal_dir]. *)
  snapshot_every : int option;
      (** write a recovery snapshot every [k] outcome records (default:
          no snapshots — recovery replays the whole journal); only
          meaningful with [wal_dir]. *)
}

val default : t
(** [Compiled] UDFs, no chaos, unbounded memory and admission, ambient
    pool and tracer, a 64-entry plan cache. *)

val with_udf_mode : udf_mode -> t -> t
val with_faults : Faults.t -> t -> t
val with_checkpoint_every : int option -> t -> t
val with_mem_budget : float option -> t -> t
val with_spill : bool -> t -> t
val with_max_inflight : int option -> t -> t
val with_pool : Emma_util.Pool.t option -> t -> t
val with_trace : Emma_util.Trace.t option -> t -> t
val with_domains : int option -> t -> t
val with_plan_cache : int option -> t -> t
val with_timeout_s : float option -> t -> t
val with_deadline_s : float option -> t -> t
val with_max_queue : int option -> t -> t
val with_breaker : breaker_spec option -> t -> t

val parse_udf_mode : string -> (udf_mode, string) result
(** ["interp"] / ["compiled"] (case-insensitive). *)

val parse_plan_cache : string -> (int option, string) result
(** ["off"] / ["0"] disables; a capacity >= 1 enables. *)

val parse_breaker : string -> (breaker_spec option, string) result
(** ["off"] disables; ["K"] or ["K:COOLDOWN_S"] opens a tenant's circuit
    after [K >= 1] consecutive bad outcomes with a cooldown of
    [COOLDOWN_S > 0] seconds (default 30). *)

val of_cli :
  ?base:t ->
  ?udf_mode:string ->
  ?chaos_seed:int ->
  ?chaos_rates:string ->
  ?checkpoint_every:int ->
  ?mem_per_slot:float ->
  ?spill:bool ->
  ?max_inflight:int ->
  ?domains:int ->
  ?plan_cache:string ->
  ?timeout:float ->
  ?deadline:float ->
  ?max_queue:int ->
  ?breaker:string ->
  ?drain_after:float ->
  ?wal:string ->
  ?wal_sync:string ->
  ?snapshot_every:int ->
  unit ->
  (t, string) result
(** The one shared flag-validation path for [run], [bench] and [serve]:
    each argument is the raw CLI value of the flag of the same name;
    absent flags keep [base] (default {!default}). Every rejection is a
    one-line actionable message — callers print it and exit 2.
    [--chaos-rates] without [--chaos-seed] is rejected, matching the
    historical CLI behavior. *)

val udf_mode_to_string : udf_mode -> string

val to_json : t -> Emma_util.Json.t
(** Pinned rendering for reports; the pool/trace fields render as
    presence flags ("custom"/"default", enabled bool), not contents. *)
