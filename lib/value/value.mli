(** Universal runtime value of the deeply embedded language.

    The Emma compiler pipeline rewrites untyped terms, exactly as the paper's
    Scala-macro pipeline rewrites untyped Scala ASTs; this module is the
    dynamic value domain those terms evaluate to. It also carries the cost
    model's notion of the *logical size in bytes* of a value, which is what
    the simulated engine charges for shuffles, broadcasts and disk I/O.

    [Blob] is an opaque payload of a given logical byte size: workload
    generators use it to represent large fields (e.g. 100 KB email bodies)
    without materializing them, so experiments can run at the paper's data
    scales on a laptop. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Tuple of t array
  | Record of (string * t) array
  | Option of t option
  | Vector of float array
  | Bag of t list  (** nested bags, e.g. group values produced by groupBy *)
  | Blob of { bytes : int; tag : int }

exception Type_error of string
(** Raised by the accessors below (and by the interpreter's primitives) when
    a value has an unexpected shape. *)

(** {1 Constructors} *)

val unit : t

val bool : bool -> t
(** Returns one of two shared values; allocates nothing. *)

val int : int -> t
val float : float -> t
val string : string -> t
val tuple : t list -> t
val record : (string * t) list -> t
val some : t -> t
val none : t
val vector : float array -> t
val bag : t list -> t
val blob : bytes:int -> tag:int -> t

(** {1 Accessors} — raise [Type_error] on shape mismatch *)

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float

val to_number : t -> float
(** Coerces [Int] or [Float] to float. *)

val to_string_exn : t -> string
val to_bag : t -> t list
val to_vector : t -> float array
val to_option : t -> t option

val proj : t -> int -> t
(** 0-based tuple projection. *)

val field : t -> string -> t
(** Record field lookup by name; allocates nothing on success. *)

val field_hinted : int ref -> t -> string -> t
(** [field_hinted hint v name] is [field v name], but first tries slot
    [!hint], checking the name there, and on a miss rescans and stores the
    found slot in [hint]. The hint only saves the scan: any value of it,
    including one raced by another domain, gives the same result. *)

val set_field : t -> string -> t -> t
(** Functional record update; raises [Type_error] if the field is absent. *)

(** {1 Structure} *)

val compare : t -> t -> int
(** Total structural order. Bags compare as sorted multisets, so two bags
    with the same elements in different order are equal. [Int n] and
    [Float f] are distinct even when numerically equal. *)

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with [equal] (bags hash order-independently).
    Used by the engine for hash partitioning. *)

val byte_size : t -> int
(** Logical size in bytes under the cost model (8 per number, payload size
    for strings/blobs, small per-node overheads for containers). *)

val pp : Format.formatter -> t -> unit
val to_display : t -> string

val type_name : t -> string
(** Short constructor name, used in error messages. *)
