(** Partitioned distributed collections: the engine's runtime representation
    of a DataBag. Partition count equals the cluster DOP; [part_key] records
    an established hash partitioning (the plan property joins and
    aggregations test to skip shuffles).

    {b Logical scaling.} Experiments run the cost model at the paper's data
    volumes while materializing laptop-scale physical rows. Each collection
    carries two multipliers set by provenance: [rmult] (logical records per
    physical record) and [bmult] (logical bytes per physical byte). A
    [Read] of a scaled table introduces the cluster's scale; element-wise
    operators preserve it; aggregations collapse it — an [aggBy] output has
    one record per key whether the input was scaled or not, which is
    exactly why map-side combining wins.

    {b Cached counts.} The cost model prices every operator by the records
    and bytes of its inputs and outputs, often several times per operator.
    Each collection therefore carries [stats]: one lazy pass over its
    values yields the record count, the total bytes, the bytes of each
    partition (a flat [int array]) and the largest element's bytes, and
    every size query below reads them. The type is [private] so that the
    only way to build a collection is {!make} (or a function built on it),
    which attaches stats that match [parts]; a record update that changed
    [parts] but kept the old stats would misprice everything downstream.
    {!with_mult} keeps the stats, since the multipliers are applied on
    read.

    {b Bit-identical floats.} [Value.byte_size] is an [int], and the stats
    sum those ints. Every partial sum the engine sees is far below
    2{^53} (about 9·10{^15}): the values live in host memory, and the
    declared sizes of blobs are kilobytes. Every integer below 2{^53} is
    exact as a float, so each float
    addition of the old left-to-right fold
    [acc +. float_of_int (Value.byte_size v)] was exact too. Hence
    [float_of_int] of the int sum equals that fold bit for bit, in
    whatever order the partitions or elements are summed.

    {b Sharing across domains.} The stats are a [Lazy.t]; forcing the same
    lazy value from two domains at once raises
    [CamlinternalLazy.Undefined]. Inside one engine run only the
    coordinator domain reads them. A collection published to other
    domains (the per-session [Read] memo in {!Exec}) must be passed
    through {!force_stats} first. *)

module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan

type stats
(** Record count, total bytes, bytes per partition and largest element's
    bytes, all physical; read through the accessors below. *)

type t = private {
  parts : Value.t list array;
  part_key : Plan.udf option;
      (** when set, every element [v] of partition [i] satisfies
          [hash (key v) mod nparts = i] for this key UDF *)
  rmult : float;  (** logical records per physical record *)
  bmult : float;  (** logical bytes per physical byte *)
  stats : stats Lazy.t;  (** computed from [parts] on first use *)
}

val make : ?part_key:Plan.udf -> rmult:float -> bmult:float -> Value.t list array -> t
(** The one constructor: wraps [parts] with lazily computed stats. *)

val nparts : t -> int

val of_list : ?rmult:float -> ?bmult:float -> nparts:int -> Value.t list -> t
(** Round-robin partitioning (no key property); multipliers default to 1. *)

val round_robin : nparts:int -> Value.t list -> int -> Value.t list
(** [round_robin ~nparts vs] copies [vs] into an array once and returns
    the function from a partition index [r] ([0 <= r < nparts]) to
    partition [r] of [of_list ~nparts vs]. The function only reads the
    array, so the partitions may be built on several domains at once. *)

val with_mult : rmult:float -> bmult:float -> t -> t
(** Replaces the multipliers; keeps the stats. *)

val force_stats : t -> unit
(** Computes the stats now, so that the collection can be read from
    several domains. *)

val to_list : t -> Value.t list

val records : t -> int
(** Physical record count. *)

val logical_records : t -> float

val bytes : t -> float
(** Physical bytes. *)

val logical_bytes : t -> float

val part_bytes : t -> int array
(** Physical bytes per partition. The array is the cached one: callers
    must not mutate it. *)

val max_elem_bytes : t -> int
(** Physical bytes of the largest element (0 when empty). *)

val co_partitioned : t -> Plan.udf -> bool
(** Whether the data is already hash-partitioned by an alpha-equal key. *)

val union : t -> t -> t
(** Zips partitions pairwise; clears the key property; multipliers are the
    pairwise maxima. *)
