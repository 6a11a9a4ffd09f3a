(** Primitive (built-in) operations of the embedded expression language.

    Primitives are pure scalar/vector functions — everything collection-typed
    goes through the DataBag operators in {!Expr} instead, because the
    compiler must see collection operations to rewrite them. *)

type t =
  (* arithmetic: polymorphic over Int/Float, following the operand types *)
  | Add | Sub | Mul | Div | Mod | Neg
  (* comparison: structural over any values *)
  | Eq | Ne | Lt | Le | Gt | Ge
  (* boolean *)
  | And | Or | Not
  (* numeric functions *)
  | Min2 | Max2 | Abs | Sqrt | Floor | To_float | To_int
  (* vectors *)
  | Vadd | Vsub | Vscale | Vdiv_scalar | Vdist | Vdot | Vzeros
  (* strings *)
  | Str_concat | Str_len | Str_contains
  (* options *)
  | Is_some | Opt_get | Opt_get_or | Mk_some | Mk_none
  (* blobs: opaque payloads carrying only a logical size *)
  | Mk_blob | Blob_bytes
  (* misc *)
  | Hash_value

val name : t -> string
val arity : t -> int

val of_name : string -> t option
(** Inverse of [name]; used by the CLI. *)

val apply : t -> Emma_value.Value.t list -> Emma_value.Value.t
(** Evaluate a primitive. Raises [Emma_value.Value.Type_error] on shape
    mismatches and [Invalid_argument] on arity mismatches. Numeric binary
    operators promote [Int] to [Float] when operand kinds are mixed. *)

val apply0 : t -> Emma_value.Value.t
val apply1 : t -> Emma_value.Value.t -> Emma_value.Value.t

val apply2 : t -> Emma_value.Value.t -> Emma_value.Value.t -> Emma_value.Value.t
(** Arity-specialized variants of {!apply} that skip the argument-list
    allocation and the runtime arity check; callers (the staged compiler
    in {!Compile}) must have verified [arity p] themselves. Raise
    [Invalid_argument "prim ...: bad application"] if [p] is not of the
    corresponding arity. *)

