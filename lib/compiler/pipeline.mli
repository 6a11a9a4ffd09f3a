(** The complete [parallelize] pipeline (paper Fig. 1):

    (i) statement inlining → comprehension recovery → normalization;
    (ii) logical optimization (fold-group fusion; unnesting is realized
    during translation as semi-join extraction);
    (iii) translation to abstract dataflows + physical optimization
    (broadcast insertion, caching, partition pulling).

    Every phase can be toggled for ablation studies; the compilation report
    records which optimizations actually fired, which regenerates the
    paper's Table 1. *)

type opts = {
  inline : bool;
  fuse : bool;  (** fold-group fusion *)
  unnest : bool;  (** exists → semi-join *)
  cache : bool;
  partition : bool;  (** partition pulling *)
}

val default_opts : opts
(** Everything on. *)

val no_opts : opts
(** Only the mandatory phases (recovery, normalization, translation). *)

val with_ : ?inline:bool -> ?fuse:bool -> ?unnest:bool -> ?cache:bool -> ?partition:bool
  -> unit -> opts
(** [default_opts] with selected switches overridden. *)

type report = {
  fusion : Fusion.stats;
  translation : Translate.stats;
  cached_vars : string list;
  partitioned_vars : string list;
}

val applied_group_fusion : report -> bool
val applied_unnesting : report -> bool
val applied_caching : report -> bool
val applied_partition_pulling : report -> bool

type phase_obs = {
  ph_name : string;  (** inline | normalize | fusion | translate | caching
                         | partition | broadcasts | udf-compile *)
  ph_enabled : bool;  (** false when the phase was switched off by [opts] *)
  ph_before : int;  (** AST/plan node count entering the phase *)
  ph_after : int;  (** node count leaving it *)
  ph_changed : bool;  (** the phase rewrote the artifact *)
  ph_detail : (string * string) list;  (** deterministic per-phase facts
                                           (fusion counts, join counts,
                                           cached/partitioned vars) *)
  ph_artifact : string option;  (** pretty-printed artifact after the
                                    phase, present iff it changed *)
}
(** One pipeline phase as observed by [compile ~observe]. Snapshots are
    only rendered when an observer is installed, so plain compiles pay
    nothing. *)

val program_size : Emma_lang.Expr.program -> int
(** Total AST node count over all statements and the return expression. *)

val cprog_size : Emma_dataflow.Cprog.t -> int
(** Node count of a compiled driver program: driver expressions plus plan
    nodes of every thunk. *)

type cache_key = {
  ck_crc : int;  (** CRC32 of [ck_text] — the cache's index *)
  ck_text : string;
      (** deterministic rendering of (opts fingerprint, table schema,
          front-end-normalized program). Equality of this text is the
          cache's identity, so CRC collisions are harmless. *)
}

val normalized_key :
  ?opts:opts -> ?schema:string -> Emma_lang.Expr.program -> cache_key
(** The plan-cache key of a submission: the front-end phases (inline +
    normalize + fuse) run under {!Emma_lang.Expr.with_fresh_reset} so
    invented variable names are reproducible, and the rendered program is
    combined with an [opts] fingerprint and the caller's table-[schema]
    fingerprint. Same source modulo alpha-renaming of compiler-invented
    names + same opts + same schema ⇒ same key; any plan-affecting change
    ⇒ different key. *)

val compile :
  ?opts:opts ->
  ?trace:Emma_util.Trace.t ->
  ?observe:(phase_obs -> unit) ->
  Emma_lang.Expr.program ->
  Emma_dataflow.Cprog.t * report
(** Runs the pipeline. The result is executable by [Emma_engine] and by the
    compiled-program interpreter used in tests.

    Every phase is wrapped in a [trace] span (category [compile]) whose
    begin/end attributes carry the before/after node counts; [trace]
    defaults to the ambient {!Emma_util.Trace.global} tracer, which is
    disabled unless the CLI/bench switched it on. [observe] is called once
    per phase, in order, with a {!phase_obs} snapshot — the structured feed
    behind [emma explain].

    The plan cache ({!Plan_cache}) sits in front of this: a session keys
    a submission with {!normalized_key}, probes, and only compiles on a
    miss. Compiled programs are immutable, so sharing them across runs is
    safe. *)

val normalized : ?opts:opts -> Emma_lang.Expr.program -> Emma_lang.Expr.program
(** The program after the front-end phases only (inline + recover +
    normalize + fuse); exposed for inspection and tests. *)
