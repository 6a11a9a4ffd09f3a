(** Staged compilation of embedded-language terms.

    A partial-evaluation / normalization-by-evaluation pass in the spirit of
    {e Stream Fusion, to Completeness} and {e Embedding by Normalisation}
    (see PAPERS.md): each fused UDF body emitted by the compiler pipeline is
    walked {e once} and turned into a nested OCaml closure over
    {!Emma_value.Value}, so per-tuple evaluation performs no tree dispatch
    and no string-keyed environment lookups. Names captured from the driver
    environment (broadcast values, constants) are resolved and inlined at
    compile time.

    {b Environment layout.} A call runs on one flat [Value.t array] frame.
    Every binder in a body (parameters, [let]s, generators, the parameters
    of nested lambdas and fold algebras) takes the slot numbered by its
    scope depth, so sibling scopes share slots, and every hoisted cell
    takes one slot counted from the end. Each call of a returned closure
    allocates one frame; binding a value is a store, not an allocation.
    Frames are never allocated at staging time, so one staged closure may
    run on several domains at once. A lambda applied on the spot, or bound
    by a [let] and applied, is staged in place with its argument in a
    slot; any other use of a lambda builds a closure that copies the frame
    when it is built and again on each call, so a closure too may run on
    several domains at once. A [let] bound to any other function or to a
    stateful bag stages its body again on each evaluation (slow, and
    unused by the registry programs).

    {b Hoisting.} In a comprehension, the maximal non-atomic subterms of
    the head, the guards and every generator source but the first that
    mention no variable bound since entering it (its generators, or a
    lambda, [let] or inner generator in between) are staged into cells of
    the frame, for the outermost comprehension they are invariant to.
    Subterms with a [Stateful_*] node are never hoisted. A comprehension
    resets its cells on every entry, and a cell is filled by the first
    evaluation that reaches it, where the interpreter first evaluates the
    subterm: so a subterm under an empty generator, a false guard or an
    untaken branch is never run, and errors surface at the same point.

    {b Float paths.} An arithmetic root ([add], [sub], [mul], [div],
    [neg], [abs], [sqrt], [floor], [to_float]) with at least one
    arithmetic argument, also one reached through a fused binder's
    [b._i], is staged a second time as a float path that runs first: it
    computes the whole tree on unboxed floats in a small per-evaluation
    scratch array and boxes only the root's [Float]. An [Int] operand
    beside a float, or under [sqrt], [floor] or [to_float], converts as
    [Prim] converts it. Where the generic code would not return a
    [Float], because an operand is no number, two [Int]s meet, or an
    [Int] is under [neg] or [abs], the path stops and the generic code
    runs the tree again. The code is pure, so only the result counts. The
    two paths share the staging of every non-arithmetic subterm, and
    bodies without such a root stage exactly as before.

    The reference interpreter ({!Eval}) remains the semantics and serves as
    the differential-testing oracle: compiled closures produce the same
    values, raise the same classified errors ([Eval.Eval_error],
    [Emma_value.Value.Type_error], [Invalid_argument]) with the same
    messages, and observe the same evaluation order. Compilation itself
    never raises — a subterm that would fail at runtime compiles into code
    that re-raises that error exactly when the interpreter would.

    Compilation never calls {!Expr.fresh}, so it cannot perturb the
    deterministic names in tooling output. *)

val fn :
  Eval.ctx -> Eval.env -> param:string -> Expr.expr -> Emma_value.Value.t -> Emma_value.Value.t
(** [fn ctx env ~param body] compiles the unary UDF [fun param -> body]
    under the captured environment [env]; the returned closure behaves like
    [fun v -> Eval.eval_value ctx (Eval.bind param (V v) env) body]. Each
    call allocates one frame (one word per slot plus a header: 2 words for
    [x => x.f]); a static body allocates none. *)

val fn2 :
  Eval.ctx ->
  Eval.env ->
  param1:string ->
  param2:string ->
  Expr.expr ->
  Emma_value.Value.t ->
  Emma_value.Value.t ->
  Emma_value.Value.t
(** Binary (uncurried at the plan level) UDF; [param2] is the inner binder
    and shadows [param1] if the names coincide, like the interpreter's bind
    order. *)

type algebra = {
  empty : Emma_value.Value.t;
  single : Emma_value.Value.t -> Emma_value.Value.t;
  union : Emma_value.Value.t -> Emma_value.Value.t -> Emma_value.Value.t;
  step : Emma_value.Value.t -> Emma_value.Value.t -> Emma_value.Value.t;
      (** [step acc v] behaves exactly like [union acc (single v)]: same
          value, same classified error. *)
}
(** A fold algebra's runtime form. *)

val fold_fns : Eval.ctx -> Eval.env -> Expr.fold_fns -> algebra
(** Compiles a fold algebra. [empty], [single] and [union] are evaluated
    eagerly (when [fold_fns] is called), matching the engine's interpreted
    fold runtime. A literal [single] lambda and a literal curried [union]
    lambda run as slot bodies: a call allocates its frame and no closure.

    [step] is fused when [single] is [x => (c_0, ..., c_n-1)] and [union]'s
    second binder [b] occurs only as [b._i], each component exactly once
    and never under an [If], a lambda, a comprehension or an [AggBy]:
    then [c_i] replaces [b._i], run with [x] bound to the row, and no
    intermediate tuple is built; a call allocates one frame holding the
    accumulator and the row. The fused body runs under a handler that, on
    a classified error, re-runs [union acc (single v)] so the interpreter's
    error is the one raised. Otherwise [step] is [union acc (single v)]. *)

type owned = {
  algebra : algebra;
  merge : Emma_value.Value.t -> Emma_value.Value.t -> Emma_value.Value.t;
      (** [merge acc v] is [algebra.step acc v], but may store the result
          into [acc]'s own array and return [acc]. *)
  absorb : Emma_value.Value.t -> Emma_value.Value.t -> Emma_value.Value.t;
      (** [absorb a b] is [algebra.union a b], but may store the result
          into [a]'s own array and return [a]. *)
}
(** A fold algebra whose caller owns its accumulators: aggBy's.

    {b Ownership rule.} [merge] and [absorb] may write into their first
    argument, so the caller must own it: it was returned by [step],
    [union], [merge] or [absorb] of this algebra (never [empty]), no one
    else holds it, and no one will read it again as it was. Every tuple
    [step] and [union] return is a new one, so [step empty v] is owned by
    its caller. A classified error leaves the argument untouched. The
    engine's aggBy keeps each map-side accumulator in one cell of a table
    private to one partition task, so its combine uses [merge]; its
    reduce adopts each key's first map-side partial, which no one reads
    after the shuffle, and [absorb]s the others into it. *)

val owned_fns : Eval.ctx -> Eval.env -> Expr.fold_fns -> owned
(** [fold_fns], with in-place forms when [union] is
    [(a, b) => (u_0, ..., u_m-1)] and [a] occurs in it only as [a._i].
    Each body is still staged once, in store form:
    it computes every component, holding the values, and only then stores
    them into a new tuple ([union], [step]) or into its first argument's
    array ([absorb], [merge], which allocate only their frame and the
    components' values). [merge acc v] is then the fused step stored into
    [acc], or [absorb acc (single v)] when [step] is not fused. With any
    other [union], [merge] is [step] and [absorb] is [union]. *)

val value : Eval.ctx -> Eval.env -> Expr.expr -> Emma_value.Value.t
(** Whole-expression evaluation via staging; observationally equivalent to
    {!Eval.eval_value}. Used by the differential test-suite. *)
