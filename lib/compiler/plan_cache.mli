(** Bounded LRU cache of compiled plans.

    Sessions key each submission with {!Pipeline.normalized_key} (the
    CRC32-indexed rendering of the normalized program + opts + table
    schema) and reuse the compiled {!Emma_dataflow.Cprog.t} + report on a
    hit, skipping the whole normalize/fusion/translate/physical pipeline.
    Compiled programs are immutable, so a cached plan is shared across
    runs without copying.

    Eviction is strict LRU ordered by a monotone use tick — a pure
    function of the probe/store sequence, independent of wall clock,
    domain count and hash order — so serve's cache counters replay
    bit-identically. All operations are mutex-guarded, because pool
    domains may submit to one session at once. *)

type t

type stats = {
  hits : int;  (** probes that found a live entry *)
  misses : int;  (** probes that found nothing *)
  evictions : int;  (** entries dropped to stay within capacity *)
  entries : int;  (** current population *)
}

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1] (use no cache at all to
    disable caching). *)

val capacity : t -> int
val stats : t -> stats

val probe : t -> Pipeline.cache_key -> (Emma_dataflow.Cprog.t * Pipeline.report) option
(** Counted: bumps [hits] or [misses], and refreshes recency on a hit. *)

val mem : t -> Pipeline.cache_key -> bool
(** Uncounted membership test: no hit/miss bump, no recency refresh —
    cache stats and LRU order are unchanged. Used by the serve layer's
    plan-cache-only degradation rung to predict whether a submission
    would compile cold, without perturbing the replayable probe/store
    sequence. *)

val store : t -> Pipeline.cache_key -> Emma_dataflow.Cprog.t * Pipeline.report -> int
(** Inserts (or refreshes) the entry and evicts least-recently-used
    entries past capacity; returns the number evicted by this store. *)

val touch : t -> Pipeline.cache_key -> unit
(** Stats-neutral recency refresh: consumes one tick when the key is
    present (exactly what a counted hit would), bumps no counters; no-op
    when absent. Used by serve recovery to replay journaled cache hits. *)

val prime : t -> Pipeline.cache_key -> Emma_dataflow.Cprog.t * Pipeline.report -> unit
(** Stats-neutral insert-or-refresh with [store]'s tick and eviction
    behavior but no counter bumps. Used by serve recovery to replay
    journaled cache misses and to restore snapshotted cache contents. *)

val entries_by_recency : t -> Pipeline.cache_key list
(** Current keys, least-recently-used first — replaying {!prime} over
    this sequence reconstructs both population and LRU order. Serve
    snapshots persist it (as query names) for recovery. *)
