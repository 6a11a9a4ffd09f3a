(** Abstract parallel dataflows — the combinator trees produced by step
    (iii) of the pipeline (paper §4.3). Each constructor corresponds to a
    higher-order operator that every targeted runtime supports (Fig. 2/3);
    physical operators ([Cache], [Partition_by]) are inserted by the
    physical-optimization passes, and the semi- and anti-[Join]s are the
    logical joins the exists-unnesting of §4.2.1 produces.

    A UDF is a reified lambda: the engine can inspect its body (e.g. to
    evaluate nested local bag expressions) and the compiler annotates it
    with the driver variables it captures, which the engine turns into
    broadcast variables (Fig. 3b, DRV→UDF motion). *)

module Expr = Emma_lang.Expr

type udf = {
  param : string;
  body : Expr.expr;
  broadcast : string list;
      (** free driver variables of [body]; filled in by
          {!val:annotate_broadcasts} *)
}

type udf2 = { param1 : string; param2 : string; body2 : Expr.expr; broadcast2 : string list }

(** What a [Join] emits for a left element [l]: [Inner] one [Tuple [l; r]]
    per right match [r]; [Semi] [l] itself if it has at least one right
    match (the exists-unnesting of §4.2.1); [Anti] [l] itself if it has
    none (the translation of a negated exists and, via ¬∃¬, of forall
    guards). *)
type join_kind = Inner | Semi | Anti

type t =
  | Read of string  (** dataset from distributed storage *)
  | Scan of string  (** result of a driver binding (bag-valued) *)
  | Local of Expr.expr
      (** driver-evaluated bag expression, parallelized on use (DRV→DFL) *)
  | Map of udf * t
  | Flat_map of udf * t
  | Filter of udf * t
  | Join of { kind : join_kind; lkey : udf; rkey : udf; left : t; right : t }
      (** equi-join on [lkey l = rkey r] *)
  | Cross of t * t  (** emits [Tuple [l; r]] pairs *)
  | Group_by of udf * t  (** emits [{key; values}] records, values nested *)
  | Agg_by of { key : udf; fold : Expr.fold_fns; input : t }
      (** fused group-and-fold; emits [{key; agg}] records *)
  | Fold of Expr.fold_fns * t  (** scalar result, collected to the driver *)
  | Union of t * t
  | Minus of t * t
  | Distinct of t
  | Cache of t  (** materialize and reuse (physical) *)
  | Partition_by of udf * t  (** enforce hash partitioning (physical) *)
  | Stateful_create of { key : udf; init : t }  (** result is a stateful handle *)
  | Stateful_read of string  (** current contents of a stateful driver binding *)
  | Stateful_update of { state : string; udf : udf }  (** emits the delta *)
  | Stateful_update_msgs of { state : string; msg_key : udf; messages : t; udf : udf2 }

type result_kind = Rbag | Rscalar | Rstateful

val result_kind : t -> result_kind

val udf_of_expr : Expr.expr -> udf
(** Builds a UDF from a lambda, eta-expanding other expressions. Broadcast
    annotations start empty. *)

val udf2_of_expr : Expr.expr -> udf2
(** Builds a binary UDF from a curried two-argument lambda. *)

val udf_alpha_equal : udf -> udf -> bool
(** Equality modulo the bound parameter name; used to compare partitioning
    keys. *)

val annotate_broadcasts : bound:Emma_util.Strset.t -> t -> t
(** Computes, for every UDF in the plan, the driver variables its body
    captures (free variables that are neither the UDF parameters nor
    [bound] global names) and records them in the [broadcast] fields. *)

val children : t -> t list
val map_children : (t -> t) -> t -> t

val fold_plan : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all plan nodes. *)

val scanned_vars : t -> string list
(** Driver bindings referenced by [Scan]/[Stateful_*] nodes, with
    duplicates (one entry per reference). *)

val broadcast_vars : t -> string list
(** All broadcast variables referenced by UDFs in the plan (with
    duplicates). *)

val node_count : t -> int

val join_name : join_kind -> string
(** ["join"], ["semijoin"] or ["antijoin"]: the operator's name in plan
    printouts and stage spans. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_dot : ?name:string -> t -> string
(** GraphViz rendering of the plan tree: one node per combinator (shuffling
    operators drawn as boxes, pipelined ones as ellipses, physical
    operators dashed), edges from inputs to consumers. *)
