(** Reference interpreter for the embedded language — the paper's "host
    language execution" mode (§3.1): every DataBag operator runs natively on
    {!Emma_databag.Databag}, with no parallel runtime involved. The
    simulated engine's results are cross-checked against this interpreter,
    and every compiler rewrite is property-tested with it. *)

module Value = Emma_value.Value

type ctx
(** Runtime context: the named tables visible to [Read]/[SWrite]. *)

val create_ctx : unit -> ctx
val register_table : ctx -> string -> Value.t list -> unit
val read_table : ctx -> string -> Value.t list
(** Raises [Eval_error] if the table was never registered or written. *)

exception Eval_error of string

type rvalue =
  | V of Value.t
  | Clo of closure
  | St of (Value.t, Value.t) Emma_databag.Stateful_bag.t
      (** stateful-bag handles live only in the driver environment *)

and closure

type env

val empty_env : env
val bind : string -> rvalue -> env -> env
val lookup : env -> string -> rvalue

val lookup_opt : env -> string -> rvalue option
(** Like [lookup] but returns [None] instead of raising; the staged
    compiler ({!Compile}) uses it to resolve captured bindings at
    compile time. *)

val eval : ctx -> env -> Expr.expr -> rvalue
val eval_value : ctx -> env -> Expr.expr -> Value.t
(** Like [eval] but requires a first-class value (not a closure/stateful). *)

val apply_rv : ctx -> rvalue -> Value.t -> Value.t
(** Applies an evaluated UDF to a value. *)

val apply2_rv : ctx -> rvalue -> Value.t -> Value.t -> Value.t
(** Applies an evaluated curried binary UDF to two values. *)

val apply_step : ctx -> rvalue -> Value.t -> rvalue
(** One application step that does {e not} force the result to a value:
    applying a curried closure yields the inner closure. This is the
    building block [apply2_rv] composes; {!Compile} uses it to wrap
    interpreter closures captured from the environment. Error messages
    match {!apply_rv}. *)

val eval_program : ctx -> Expr.program -> Value.t
(** Runs the driver program: executes statements in order (writing sinks
    into [ctx]) and returns the value of the program's [ret] expression. *)
