(** Physical optimizations over compiled programs (paper §4.4).

    {b Caching}: bag-valued dataflow results referenced more than once —
    or referenced from a deeper loop level than their definition — are
    forced and cached ([Cache] node). This is the paper's aggressive
    heuristic: it amortizes recomputation under lazy evaluation (e.g. the
    [extractFeatures] map in the Fig. 4 workflow runs once instead of once
    per classifier).

    {b Partition pulling}: for joins and group-based operators consumed
    inside loops, the desired hash partitioning is traced back through
    element-preserving operators ([Filter], the left input of a semi- or
    anti-[Join], [Cache]) to the producing driver binding, and a
    [Partition_by] is enforced at the producer. Desired partitionings are
    weighted by loop depth, matching the paper's preference for consumers
    inside loops; with caching, the shuffle is then paid once instead of
    once per iteration.

    {b Broadcast annotation}: UDFs are annotated with the driver variables
    they capture; the engine ships those as broadcast variables. *)

type report = {
  cached_vars : string list;
  partitioned_vars : string list;
}

val insert_caching : Emma_dataflow.Cprog.t -> Emma_dataflow.Cprog.t * string list
(** Returns the transformed program and the names of the cached bindings. *)

val partition_pulling : Emma_dataflow.Cprog.t -> Emma_dataflow.Cprog.t * string list
(** Returns the transformed program and the bindings that received an
    enforced partitioning. *)

val annotate_broadcasts : Emma_dataflow.Cprog.t -> Emma_dataflow.Cprog.t

val udf_compile_stats : Emma_dataflow.Cprog.t -> (string * string) list
(** Analysis for the [udf-compile] explain phase: counts the UDF sites the
    engine stages through {!Emma_lang.Compile} — unary and binary UDFs,
    fold algebras, and how many UDFs are closed (capture no driver
    variables, so they compile to environment-free closures). Does not
    transform the program. *)
