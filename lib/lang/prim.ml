module Value = Emma_value.Value

type t =
  | Add | Sub | Mul | Div | Mod | Neg
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or | Not
  | Min2 | Max2 | Abs | Sqrt | Floor | To_float | To_int
  | Vadd | Vsub | Vscale | Vdiv_scalar | Vdist | Vdot | Vzeros
  | Str_concat | Str_len | Str_contains
  | Is_some | Opt_get | Opt_get_or | Mk_some | Mk_none
  | Mk_blob | Blob_bytes
  | Hash_value

let name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod" | Neg -> "neg"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | And -> "and" | Or -> "or" | Not -> "not"
  | Min2 -> "min2" | Max2 -> "max2" | Abs -> "abs" | Sqrt -> "sqrt" | Floor -> "floor"
  | To_float -> "to_float" | To_int -> "to_int"
  | Vadd -> "vadd" | Vsub -> "vsub" | Vscale -> "vscale" | Vdiv_scalar -> "vdiv_scalar"
  | Vdist -> "vdist" | Vdot -> "vdot" | Vzeros -> "vzeros"
  | Str_concat -> "str_concat" | Str_len -> "str_len" | Str_contains -> "str_contains"
  | Is_some -> "is_some" | Opt_get -> "opt_get" | Opt_get_or -> "opt_get_or"
  | Mk_some -> "some" | Mk_none -> "none"
  | Mk_blob -> "mk_blob" | Blob_bytes -> "blob_bytes"
  | Hash_value -> "hash"

let all =
  [ Add; Sub; Mul; Div; Mod; Neg; Eq; Ne; Lt; Le; Gt; Ge; And; Or; Not; Min2; Max2; Abs;
    Sqrt; Floor; To_float; To_int; Vadd; Vsub; Vscale; Vdiv_scalar; Vdist; Vdot; Vzeros;
    Str_concat; Str_len; Str_contains; Is_some; Opt_get; Opt_get_or; Mk_some; Mk_none;
    Mk_blob; Blob_bytes; Hash_value ]

let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

let arity = function
  | Neg | Not | Abs | Sqrt | Floor | To_float | To_int | Str_len | Is_some | Opt_get
  | Mk_some | Hash_value | Vzeros | Blob_bytes -> 1
  | Mk_none -> 0
  | Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or | Min2 | Max2
  | Vadd | Vsub | Vscale | Vdiv_scalar | Vdist | Vdot | Str_concat | Str_contains
  | Opt_get_or | Mk_blob -> 2

let type_error fmt = Printf.ksprintf (fun s -> raise (Value.Type_error s)) fmt

(* Numeric binary ops stay in Int when both operands are Int; otherwise they
   promote to Float, like most host languages would. *)
let num2 op_name fi ff a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Value.Int (fi x y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      Value.Float (ff (Value.to_number a) (Value.to_number b))
  | _ -> type_error "%s: expected numbers, got %s and %s" op_name (Value.type_name a) (Value.type_name b)

let cmp2 rel a b = Value.bool (rel (Value.compare a b) 0)

(* [n] occurs in [h] at offset [i] or later; compared in place. *)
let rec contains_from h n i =
  i + String.length n <= String.length h && (matches_at h n i 0 || contains_from h n (i + 1))

and matches_at h n i j = j >= String.length n || (h.[i + j] = n.[j] && matches_at h n i (j + 1))

let bad_application p = invalid_arg (Printf.sprintf "prim %s: bad application" (name p))

(* Arity-specialized evaluators. The staged compiler ({!Compile}) checks
   arity once at compile time and then calls these directly, so a hot
   per-tuple primitive neither allocates an argument list nor re-checks
   its arity; [apply] below dispatches to them, so both evaluation paths
   share one implementation (and one set of error messages). *)

let apply0 p = match p with Mk_none -> Value.none | _ -> bad_application p

let apply1 p a =
  match (p, a) with
  | Neg, Value.Int x -> Value.Int (-x)
  | Neg, Value.Float x -> Value.Float (-.x)
  | Neg, v -> type_error "neg: expected number, got %s" (Value.type_name v)
  | Not, a -> Value.bool (not (Value.to_bool a))
  | Abs, Value.Int x -> Value.Int (abs x)
  | Abs, Value.Float x -> Value.Float (Float.abs x)
  | Abs, v -> type_error "abs: expected number, got %s" (Value.type_name v)
  | Sqrt, v -> Value.Float (sqrt (Value.to_number v))
  | Floor, v -> Value.Float (Float.floor (Value.to_number v))
  | To_float, v -> Value.Float (Value.to_number v)
  | To_int, Value.Int x -> Value.Int x
  | To_int, Value.Float x -> Value.Int (int_of_float x)
  | To_int, v -> type_error "to_int: expected number, got %s" (Value.type_name v)
  | Vzeros, n -> Value.Vector (Emma_util.Vec.zeros (Value.to_int n))
  | Str_len, a -> Value.Int (String.length (Value.to_string_exn a))
  | Is_some, v -> Value.bool (Option.is_some (Value.to_option v))
  | Opt_get, v -> begin
      match Value.to_option v with
      | Some x -> x
      | None -> type_error "opt_get: None"
    end
  | Mk_some, v -> Value.some v
  | Blob_bytes, Value.Blob { bytes; _ } -> Value.Int bytes
  | Blob_bytes, v -> type_error "blob_bytes: expected blob, got %s" (Value.type_name v)
  | Hash_value, v -> Value.Int (Value.hash v)
  | _ -> bad_application p

let apply2 p a b =
  match (p, a, b) with
  | Add, a, b -> num2 "add" ( + ) ( +. ) a b
  | Sub, a, b -> num2 "sub" ( - ) ( -. ) a b
  | Mul, a, b -> num2 "mul" ( * ) ( *. ) a b
  | Div, Value.Int x, Value.Int y ->
      if y = 0 then type_error "div: integer division by zero" else Value.Int (x / y)
  | Div, a, b -> Value.Float (Value.to_number a /. Value.to_number b)
  | Mod, Value.Int x, Value.Int y ->
      if y = 0 then type_error "mod: modulo by zero" else Value.Int (x mod y)
  | Mod, _, _ -> type_error "mod: expected ints"
  | Eq, a, b -> Value.bool (Value.equal a b)
  | Ne, a, b -> Value.bool (not (Value.equal a b))
  | Lt, a, b -> cmp2 ( < ) a b
  | Le, a, b -> cmp2 ( <= ) a b
  | Gt, a, b -> cmp2 ( > ) a b
  | Ge, a, b -> cmp2 ( >= ) a b
  | And, a, b -> Value.bool (Value.to_bool a && Value.to_bool b)
  | Or, a, b -> Value.bool (Value.to_bool a || Value.to_bool b)
  | Min2, a, b -> if Value.compare a b <= 0 then a else b
  | Max2, a, b -> if Value.compare a b >= 0 then a else b
  | Vadd, a, b -> Value.Vector (Emma_util.Vec.add (Value.to_vector a) (Value.to_vector b))
  | Vsub, a, b -> Value.Vector (Emma_util.Vec.sub (Value.to_vector a) (Value.to_vector b))
  | Vscale, c, v -> Value.Vector (Emma_util.Vec.scale (Value.to_number c) (Value.to_vector v))
  | Vdiv_scalar, v, c ->
      Value.Vector (Emma_util.Vec.div_scalar (Value.to_vector v) (Value.to_number c))
  | Vdist, a, b -> Value.Float (Emma_util.Vec.dist (Value.to_vector a) (Value.to_vector b))
  | Vdot, a, b -> Value.Float (Emma_util.Vec.dot (Value.to_vector a) (Value.to_vector b))
  | Str_concat, a, b -> Value.String (Value.to_string_exn a ^ Value.to_string_exn b)
  | Str_contains, hay, needle ->
      let h = Value.to_string_exn hay and n = Value.to_string_exn needle in
      Value.bool (contains_from h n 0)
  | Opt_get_or, v, dflt -> Option.value (Value.to_option v) ~default:dflt
  | Mk_blob, n, tag -> Value.blob ~bytes:(Value.to_int n) ~tag:(Value.to_int tag)
  | _ -> bad_application p

let apply p args =
  let check_arity n = if List.length args <> n then invalid_arg (Printf.sprintf "prim %s: arity %d expected, got %d" (name p) n (List.length args)) in
  check_arity (arity p);
  match args with
  | [] -> apply0 p
  | [ a ] -> apply1 p a
  | [ a; b ] -> apply2 p a b
  | _ -> bad_application p
