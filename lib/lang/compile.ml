(* Staged compilation of embedded-language terms: a partial-evaluation /
   normalization-by-evaluation pass that walks an [Expr] tree ONCE and
   produces an OCaml closure over [Value.t], so per-tuple evaluation pays
   neither tree dispatch nor string-keyed environment lookups.

   The interpreter ({!Eval}) remains the semantics: every case below mirrors
   the corresponding [Eval.eval] case, including its evaluation order and
   the exact classified errors it raises ([Eval_error], [Value.Type_error],
   [Invalid_argument]) — the differential test-suite holds the two modes to
   byte-identical behaviour. *)

module Value = Emma_value.Value
module Databag = Emma_databag.Databag
module Stateful_bag = Emma_databag.Stateful_bag
open Expr

let fail fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Semantic values                                                      *)
(* ------------------------------------------------------------------ *)

(* The compiled counterpart of [Eval.rvalue]: functions are host closures
   rather than (env, param, body) triples. *)
type sv =
  | Sval of Value.t
  | Sfun of (Value.t -> sv)
  | Sst of (Value.t, Value.t) Stateful_bag.t

(* Mirrors [Eval.as_value]. *)
let force = function
  | Sval v -> v
  | Sfun _ -> fail "expected a value, got a function"
  | Sst _ -> fail "expected a value, got a stateful bag"

(* Mirrors [Eval.apply_rv]: apply and force the result to a value. *)
let apply1 fv arg =
  match fv with
  | Sfun f -> force (f arg)
  | Sval _ -> fail "cannot apply a non-function value"
  | Sst _ -> fail "cannot apply a stateful bag"

(* Mirrors [Eval.apply2_rv]: the intermediate application step is not
   forced, so curried closures work, and anything else reports the same
   error [apply2_rv]'s catch-all does. *)
let apply2 fv a b =
  match fv with
  | Sfun f -> apply1 (f a) b
  | Sval _ | Sst _ -> fail "cannot apply a non-function value"

(* Imports an interpreter value captured from the driver environment.
   Closures stay interpreted — they run via [Eval.apply_step] — but the
   lookup that found them happened once, at compile time. *)
let rec of_rvalue ctx (rv : Eval.rvalue) : sv =
  match rv with
  | Eval.V v -> Sval v
  | Eval.St st -> Sst st
  | Eval.Clo _ -> Sfun (fun v -> of_rvalue ctx (Eval.apply_step ctx rv v))

(* ------------------------------------------------------------------ *)
(* Staged code                                                          *)
(* ------------------------------------------------------------------ *)

(* A compiled expression either evaluated completely at compile time
   ([Static]) or is residual code over the runtime environment — a list of
   semantic values indexed positionally, innermost binder first. Residual
   code whose result is statically known to be a first-class value is kept
   at the [Value.t] level ([Dynv]): chains of such nodes (all arithmetic,
   projections, bag operators) call through to each other directly, paying
   neither an [Sval] box nor a [force] match per node. *)
type code =
  | Static of sv
  | Dyn of (sv list -> sv)
  | Dynv of (sv list -> Value.t)

let is_static = function Static _ -> true | Dyn _ | Dynv _ -> false

let stage = function
  | Static sv -> fun _ -> sv
  | Dyn f -> f
  | Dynv f -> fun env -> Sval (f env)

(* Stage to a first-class value; forcing a static non-value raises per
   evaluation, exactly when the interpreter would. *)
let vstage = function
  | Static (Sval v) -> fun _ -> v
  | Static sv -> fun _ -> force sv
  | Dyn f -> fun env -> force (f env)
  | Dynv f -> f

(* Stage a bag source: the value is forced first, then viewed as a bag, so
   the classified error order matches [Eval.as_bag]. *)
let bstage c =
  let g = vstage c in
  fun env -> Value.to_bag (g env)

(* [true] when evaluating the code can only produce a first-class value —
   the condition for staying at the [Dynv] level. *)
let valueish = function Static (Sval _) | Dynv _ -> true | Static _ | Dyn _ -> false

let classified = function
  | Eval.Eval_error _ | Value.Type_error _ | Invalid_argument _ -> true
  | _ -> false

(* Constant-fold [f], but turn a classified failure into residual code that
   re-raises at every evaluation — compiling never raises, and the error
   surfaces only if (and as often as) the interpreter would raise it. *)
let static_or_raiser f =
  match f () with
  | sv -> Static sv
  | exception e when classified e -> Dyn (fun _ -> raise e)

(* Compile-time environment. [Cdyn] entries occupy a runtime slot;
   [Cstatic] entries were evaluated at compile time and occupy none.
   [Cfused (b, gs)] is a fold union's binder [b] in a fused accumulate
   step (see [fused_step]): its slot holds the row [v], and [b._i]
   compiles to component [gs.(i)] of [single], run on that slot. *)
type centry =
  | Cdyn of string
  | Cstatic of string * sv
  | Cfused of string * (sv list -> Value.t) array

(* A compiled comprehension qualifier: generator sources stage straight to
   element lists, guards to (boolean) values. *)
type cqual = CGen of (sv list -> Value.t list) | CGuard of (sv list -> Value.t)

(* The innermost entry binding [x], with its runtime slot index. *)
let rec lookup cenv x i =
  match cenv with
  | [] -> None
  | (Cdyn y | Cfused (y, _)) as ce :: rest ->
      if String.equal y x then Some (ce, i) else lookup rest x (i + 1)
  | Cstatic (y, _) as ce :: rest -> if String.equal y x then Some (ce, i) else lookup rest x i

let slot i : sv list -> sv =
  match i with
  | 0 -> ( function v :: _ -> v | [] -> invalid_arg "Compile.slot" )
  | 1 -> ( function _ :: v :: _ -> v | _ -> invalid_arg "Compile.slot" )
  | 2 -> ( function _ :: _ :: v :: _ -> v | _ -> invalid_arg "Compile.slot" )
  | i -> fun env -> List.nth env i

let rec drop k env = if k = 0 then env else drop (k - 1) (List.tl env)

(* The fusion rule guarantees a fused binder occurs only as [b._i]; were it
   used whole, this classified error sends the step to its unfused path. *)
let bare_fused = Dyn (fun _ -> invalid_arg "Compile: fused binder used whole")

(* ------------------------------------------------------------------ *)
(* The compiler                                                         *)
(* ------------------------------------------------------------------ *)

(* NOTE on sequencing: OCaml evaluates function arguments right-to-left, so
   every residual body below [let]-binds its pieces explicitly to preserve
   the interpreter's evaluation (and error) order. [Union] is the one
   exception: [Eval] itself uses operator-argument order there, so the
   residual code uses the identical expression shape. *)

let rec comp ctx base cenv (e : Expr.expr) : code =
  match e with
  | Const v -> Static (Sval v)
  | Var x -> begin
      match lookup cenv x 0 with
      | Some (Cdyn _, i) -> Dyn (slot i)
      | Some (Cstatic (_, sv), _) -> Static sv
      | Some (Cfused _, _) -> bare_fused
      | None -> begin
          match Eval.lookup_opt base x with
          | Some rv -> Static (of_rvalue ctx rv)
          | None ->
              let exn = Eval.Eval_error ("unbound variable " ^ x) in
              Dyn (fun _ -> raise exn)
        end
    end
  | Lam (x, b) -> begin
      match comp ctx base (Cdyn x :: cenv) b with
      | Static sv_b -> Static (Sfun (fun _ -> sv_b))
      | (Dyn _ | Dynv _) as cb ->
          let fb = stage cb in
          Dyn (fun env -> Sfun (fun v -> fb (Sval v :: env)))
    end
  | App (f, a) ->
      (* Never folded: folding applications of self-applying closures could
         diverge at compile time; the interpreter only pays when it runs.
         The result is forced ([apply1]), so the node is value-typed. *)
      let gf = stage (comp ctx base cenv f) in
      let ga = vstage (comp ctx base cenv a) in
      Dynv
        (fun env ->
          let fv = gf env in
          let av = ga env in
          apply1 fv av)
  | Tuple es ->
      comp_nary ctx base cenv es (fun vs -> Value.tuple vs) ~residual:(fun gs ->
          let n = Array.length gs in
          Dynv
            (fun env ->
              let a = Array.make n (gs.(0) env) in
              for i = 1 to n - 1 do
                a.(i) <- gs.(i) env
              done;
              Value.Tuple a))
  | Proj (a, i) -> begin
      match fused_component cenv a i with
      | Some c -> c
      | None -> begin
          match comp ctx base cenv a with
          | Static _ as c ->
              let g = vstage c in
              static_or_raiser (fun () -> Sval (Value.proj (g []) i))
          | (Dyn _ | Dynv _) as c ->
              let g = vstage c in
              Dynv (fun env -> Value.proj (g env) i)
        end
    end
  | Record fields ->
      let names = List.map fst fields in
      let anames = Array.of_list names in
      comp_nary ctx base cenv (List.map snd fields)
        (fun vs -> Value.record (List.combine names vs))
        ~residual:(fun gs ->
          let n = Array.length gs in
          Dynv
            (fun env ->
              let a = Array.make n (anames.(0), gs.(0) env) in
              for i = 1 to n - 1 do
                a.(i) <- (anames.(i), gs.(i) env)
              done;
              Value.Record a))
  | Field (a, n) -> begin
      match comp ctx base cenv a with
      | Static _ as c ->
          let g = vstage c in
          static_or_raiser (fun () -> Sval (Value.field (g []) n))
      | (Dyn _ | Dynv _) as c ->
          let g = vstage c in
          (* one slot hint per access site; see [Value.field_hinted] *)
          let hint = ref 0 in
          Dynv (fun env -> Value.field_hinted hint (g env) n)
    end
  | Prim (p, args) ->
      let cs = List.map (comp ctx base cenv) args in
      let gs = List.map vstage cs in
      if List.length args <> Prim.arity p then
        (* [Eval] evaluates the arguments before [Prim.apply] checks the
           arity, so argument errors take precedence here too. *)
        let msg =
          Printf.sprintf "prim %s: arity %d expected, got %d" (Prim.name p)
            (Prim.arity p) (List.length args)
        in
        Dyn
          (fun env ->
            let _ = List.map (fun g -> g env) gs in
            invalid_arg msg)
      else if List.for_all is_static cs then
        static_or_raiser (fun () ->
            Sval (Prim.apply p (List.map (fun g -> g []) gs)))
      else begin
        match gs with
        | [ g ] -> Dynv (fun env -> Prim.apply1 p (g env))
        | [ g1; g2 ] ->
            Dynv
              (fun env ->
                let a = g1 env in
                let b = g2 env in
                Prim.apply2 p a b)
        | gs -> Dynv (fun env -> Prim.apply p (List.map (fun g -> g env) gs))
      end
  | If (c, t, el) -> begin
      match comp ctx base cenv c with
      | Static _ as cc -> begin
          let gc = vstage cc in
          match Value.to_bool (gc []) with
          | b -> comp ctx base cenv (if b then t else el)
          | exception exn when classified exn -> Dyn (fun _ -> raise exn)
        end
      | (Dyn _ | Dynv _) as cc ->
          let gc = vstage cc in
          let ct = comp ctx base cenv t in
          let ce = comp ctx base cenv el in
          if valueish ct && valueish ce then
            let gt = vstage ct and ge = vstage ce in
            Dynv (fun env -> if Value.to_bool (gc env) then gt env else ge env)
          else
            let gt = stage ct and ge = stage ce in
            Dyn (fun env -> if Value.to_bool (gc env) then gt env else ge env)
    end
  | Let (x, a, b) -> begin
      match comp ctx base cenv a with
      | Static sv ->
          (* The binding is a pure compile-time value: inline it and spend
             no runtime slot. *)
          comp ctx base (Cstatic (x, sv) :: cenv) b
      | (Dyn _ | Dynv _) as ca ->
          let fa = stage ca in
          let cb = comp ctx base (Cdyn x :: cenv) b in
          if valueish cb then
            let fb = vstage cb in
            Dynv
              (fun env ->
                let av = fa env in
                fb (av :: env))
          else
            let fb = stage cb in
            Dyn
              (fun env ->
                let av = fa env in
                fb (av :: env))
    end
  | BagOf es ->
      comp_nary ctx base cenv es (fun vs -> Value.bag vs) ~residual:(fun gs ->
          let gs = Array.to_list gs in
          Dynv (fun env -> Value.bag (List.map (fun g -> g env) gs)))
  | Range (lo, hi) ->
      let clo = comp ctx base cenv lo in
      let chi = comp ctx base cenv hi in
      let glo = vstage clo in
      let ghi = vstage chi in
      let run env =
        let lo = Value.to_int (glo env) in
        let hi = Value.to_int (ghi env) in
        if hi < lo then Value.bag []
        else Value.bag (List.init (hi - lo + 1) (fun i -> Value.Int (lo + i)))
      in
      if is_static clo && is_static chi then
        static_or_raiser (fun () -> Sval (run []))
      else Dynv run
  | Read (Src_table t) ->
      (* Tables are mutated by [SWrite] between evaluations, so reads stay
         residual. *)
      Dynv (fun _ -> Value.bag (Eval.read_table ctx t))
  | Map (f, xs) ->
      let gf = stage (comp ctx base cenv f) in
      let gxs = bstage (comp ctx base cenv xs) in
      Dynv
        (fun env ->
          let fv = gf env in
          let elems = gxs env in
          Value.bag (List.map (fun x -> apply1 fv x) elems))
  | FlatMap (f, xs) ->
      let gf = stage (comp ctx base cenv f) in
      let gxs = bstage (comp ctx base cenv xs) in
      Dynv
        (fun env ->
          let fv = gf env in
          let elems = gxs env in
          Value.bag (List.concat_map (fun x -> Value.to_bag (apply1 fv x)) elems))
  | Filter (p, xs) ->
      let gp = stage (comp ctx base cenv p) in
      let gxs = bstage (comp ctx base cenv xs) in
      Dynv
        (fun env ->
          let pv = gp env in
          let elems = gxs env in
          Value.bag (List.filter (fun x -> Value.to_bool (apply1 pv x)) elems))
  | GroupBy (k, xs) ->
      let gk = stage (comp ctx base cenv k) in
      let gxs = bstage (comp ctx base cenv xs) in
      Dynv
        (fun env ->
          let kv = gk env in
          let elems = gxs env in
          let groups =
            Databag.group_by ~cmp:Value.compare
              (fun x -> apply1 kv x)
              (Databag.of_list elems)
          in
          let to_record (g : (_, _) Databag.grp) =
            Value.record
              [ ("key", g.key); ("values", Value.bag (Databag.to_list g.values)) ]
          in
          Value.bag (List.map to_record (Databag.to_list groups)))
  | Fold (fns, xs) ->
      let gxs = bstage (comp ctx base cenv xs) in
      let run_fold = comp_fold ctx base cenv fns in
      Dynv
        (fun env ->
          let elems = gxs env in
          run_fold env elems)
  | AggBy (k, fns, xs) ->
      let gk = stage (comp ctx base cenv k) in
      let gxs = bstage (comp ctx base cenv xs) in
      let run_fold = comp_fold ctx base cenv fns in
      Dynv
        (fun env ->
          let kv = gk env in
          let elems = gxs env in
          let groups =
            Databag.group_by ~cmp:Value.compare
              (fun x -> apply1 kv x)
              (Databag.of_list elems)
          in
          let to_record (g : (_, _) Databag.grp) =
            Value.record
              [ ("key", g.key); ("agg", run_fold env (Databag.to_list g.values)) ]
          in
          Value.bag (List.map to_record (Databag.to_list groups)))
  | Union (a, b) ->
      let ga = bstage (comp ctx base cenv a) in
      let gb = bstage (comp ctx base cenv b) in
      Dynv (fun env -> Value.bag (ga env @ gb env))
  | Minus (a, b) ->
      let ga = bstage (comp ctx base cenv a) in
      let gb = bstage (comp ctx base cenv b) in
      Dynv
        (fun env ->
          let xs = Databag.of_list (ga env) in
          let ys = Databag.of_list (gb env) in
          Value.bag (Databag.to_list (Databag.minus ~cmp:Value.compare xs ys)))
  | Distinct a ->
      let ga = bstage (comp ctx base cenv a) in
      Dynv
        (fun env ->
          let xs = Databag.of_list (ga env) in
          Value.bag (Databag.to_list (Databag.distinct ~cmp:Value.compare xs)))
  | Comp { head; quals; alg } ->
      let cquals, cenv' = comp_quals ctx base cenv quals in
      let ghead = vstage (comp ctx base cenv' head) in
      let run_alg =
        match alg with
        | Alg_bag -> fun _env produced -> Value.bag produced
        | Alg_fold fns ->
            (* The algebra evaluates in the comprehension's outer scope. *)
            let run_fold = comp_fold ctx base cenv fns in
            fun env produced -> run_fold env produced
      in
      Dynv
        (fun env ->
          let results = ref [] in
          let rec go env = function
            | [] -> results := ghead env :: !results
            | CGen gsrc :: rest ->
                let elems = gsrc env in
                List.iter (fun v -> go (Sval v :: env) rest) elems
            | CGuard gp :: rest -> if Value.to_bool (gp env) then go env rest
          in
          go env cquals;
          let produced = List.rev !results in
          run_alg env produced)
  | Flatten a ->
      let ga = bstage (comp ctx base cenv a) in
      Dynv
        (fun env ->
          let outer = ga env in
          Value.bag (List.concat_map Value.to_bag outer))
  | Stateful_create { key; init } ->
      let gkey = stage (comp ctx base cenv key) in
      let ginit = bstage (comp ctx base cenv init) in
      Dyn
        (fun env ->
          let kv = gkey env in
          let init_elems = ginit env in
          Sst
            (Stateful_bag.create
               ~key:(fun x -> apply1 kv x)
               ~cmp:Value.compare
               (Databag.of_list init_elems)))
  | Stateful_bag a ->
      let ga = stage (comp ctx base cenv a) in
      Dynv
        (fun env ->
          match ga env with
          | Sst st -> Value.bag (Databag.to_list (Stateful_bag.bag st))
          | _ -> fail "bag(): expected a stateful bag")
  | Stateful_update { state; udf } ->
      let gstate = stage (comp ctx base cenv state) in
      let gudf = stage (comp ctx base cenv udf) in
      Dynv
        (fun env ->
          match gstate env with
          | Sst st ->
              let u = gudf env in
              let delta =
                Stateful_bag.update st (fun x -> Value.to_option (apply1 u x))
              in
              Value.bag (Databag.to_list delta)
          | _ -> fail "update: expected a stateful bag")
  | Stateful_update_msgs { state; msg_key; messages; udf } ->
      let gstate = stage (comp ctx base cenv state) in
      let gkey = stage (comp ctx base cenv msg_key) in
      let gmsgs = bstage (comp ctx base cenv messages) in
      let gudf = stage (comp ctx base cenv udf) in
      Dynv
        (fun env ->
          match gstate env with
          | Sst st ->
              let kf = gkey env in
              let msgs = gmsgs env in
              let u = gudf env in
              let delta =
                Stateful_bag.update_with_messages st
                  ~msg_key:(fun m -> apply1 kf m)
                  (Databag.of_list msgs)
                  (fun x m -> Value.to_option (apply2 u x m))
              in
              Value.bag (Databag.to_list delta)
          | _ -> fail "update: expected a stateful bag")

(* n-ary value constructors (tuples, records, bag literals): fold with
   [build] when every piece is static, otherwise [residual] builds the value
   from the staged pieces, which it must run left to right, in [Eval]'s
   [List.map] order. A residual has at least one piece; tuples and records
   seed their array with the first, so a 1-element literal stores nothing
   after allocation. *)
and comp_nary ctx base cenv es build ~residual =
  let cs = List.map (comp ctx base cenv) es in
  let gs = List.map vstage cs in
  if List.for_all is_static cs then
    static_or_raiser (fun () -> Sval (build (List.map (fun g -> g []) gs)))
  else residual (Array.of_list gs)

(* [b._i] for a fused binder [b] ([Cfused]): component [i] of [single], run
   on the row in [b]'s slot, [k] slots down the runtime environment. *)
and fused_component cenv a i =
  match a with
  | Var x -> begin
      match lookup cenv x 0 with
      | Some (Cfused (_, gs), k) when i >= 0 && i < Array.length gs ->
          let g = gs.(i) in
          Some (if k = 0 then Dynv g else Dynv (fun env -> g (drop k env)))
      | _ -> None
    end
  | _ -> None

(* A fold algebra's [single] and [union] as per-run functions. A literal
   [Lam (x, s)] compiles to a one-slot body and a literal
   [Lam (a, Lam (b, u))] to a two-slot body ([b] shadowing [a], as in
   [fn2]), so applying them allocates no [Sfun] closure; the interpreter's
   evaluation of such a lambda cannot fail, so skipping it is unobservable.
   Any other form is evaluated per run and applied like [Eval.apply_rv] /
   [Eval.apply2_rv]. *)
and comp_single ctx base cenv = function
  | Lam (x, s) ->
      let g = vstage (comp ctx base (Cdyn x :: cenv) s) in
      fun env v -> g (Sval v :: env)
  | f ->
      let gf = stage (comp ctx base cenv f) in
      fun env ->
        let fv = gf env in
        fun v -> apply1 fv v

and comp_union ctx base cenv = function
  | Lam (a, Lam (b, u)) ->
      let g = vstage (comp ctx base (Cdyn b :: Cdyn a :: cenv) u) in
      fun env x y -> g (Sval y :: Sval x :: env)
  | f ->
      let gf = stage (comp ctx base cenv f) in
      fun env ->
        let fv = gf env in
        fun x y -> apply2 fv x y

(* Fold algebras re-evaluate [empty]/[single]/[union] per run (and [AggBy]
   per group), exactly like [Eval.eval_fold], and keep [Databag.fold]'s
   tree shape, so float association does not change. *)
and comp_fold ctx base cenv (fns : Expr.fold_fns) =
  let vempty = vstage (comp ctx base cenv fns.f_empty) in
  let gsingle = comp_single ctx base cenv fns.f_single in
  let gunion = comp_union ctx base cenv fns.f_union in
  fun env elems ->
    let empty = vempty env in
    let single = gsingle env in
    let union = gunion env in
    Databag.fold ~empty ~single ~union (Databag.of_list elems)

and comp_quals ctx base cenv = function
  | [] -> ([], cenv)
  | QGen (x, src) :: rest ->
      (* The source is evaluated before the binder is in scope. *)
      let gsrc = bstage (comp ctx base cenv src) in
      let qs, cenv' = comp_quals ctx base (Cdyn x :: cenv) rest in
      (CGen gsrc :: qs, cenv')
  | QGuard p :: rest ->
      let gp = vstage (comp ctx base cenv p) in
      let qs, cenv' = comp_quals ctx base cenv rest in
      (CGuard gp :: qs, cenv')

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let fn ctx base ~param body =
  let f = vstage (comp ctx base [ Cdyn param ] body) in
  fun v -> f [ Sval v ]

let fn2 ctx base ~param1 ~param2 body =
  (* [param2] is the inner binder, so it shadows [param1] when the names
     coincide — matching the interpreter's bind order. *)
  let f = vstage (comp ctx base [ Cdyn param2; Cdyn param1 ] body) in
  fun a b -> f [ Sval b; Sval a ]

type algebra = {
  empty : Value.t;
  single : Value.t -> Value.t;
  union : Value.t -> Value.t -> Value.t;
  step : Value.t -> Value.t -> Value.t;
}

(* The fusion rule for [step]: every free occurrence of [b] in [u] is a
   projection [b._i] with [i < n], each [i] occurs exactly once, and each
   occurrence is evaluated exactly once whenever [u] is. A subterm under a
   lambda, an [If] branch, a comprehension or an [AggBy] (whose algebra
   runs per group) may run zero or many times, so [b] must not occur
   there. *)
let fusable b n u =
  let uses = Array.make n 0 in
  let mentions e = Emma_util.Strset.mem b (Expr.free_vars e) in
  let rec strict e =
    match e with
    | Proj (Var y, i) when String.equal y b ->
        i >= 0 && i < n
        && begin
             uses.(i) <- uses.(i) + 1;
             true
           end
    | Var y -> not (String.equal y b)
    | Lam _ | Comp _ | AggBy _ -> not (mentions e)
    | If (c, t, el) -> strict c && (not (mentions t)) && not (mentions el)
    | Let (y, a, body) -> strict a && (String.equal y b || strict body)
    | e ->
        let ok = ref true in
        ignore
          (Expr.map_children
             (fun c ->
               if !ok && not (strict c) then ok := false;
               c)
             e);
        !ok
  in
  strict u && Array.for_all (fun c -> c = 1) uses

(* [union acc (single v)] as one body, when [single] is a tuple literal and
   [union]'s [b] passes [fusable]: [b._i] becomes [single]'s component [i]
   (the [Cfused] entry), so no intermediate tuple is built. The step's
   environment is [v; acc]: [b]'s slot holds the row. *)
let fused_step ctx base (fns : Expr.fold_fns) =
  match (fns.f_single, fns.f_union) with
  | Lam (x, Tuple cs), Lam (a, Lam (b, u)) when fusable b (List.length cs) u ->
      let gs = Array.of_list (List.map (fun c -> vstage (comp ctx base [ Cdyn x ] c)) cs) in
      let g = vstage (comp ctx base [ Cfused (b, gs); Cdyn a ] u) in
      Some (fun acc v -> g [ Sval v; Sval acc ])
  | _ -> None

let fold_fns ctx base (fns : Expr.fold_fns) =
  (* Evaluated eagerly, like the engine's interpreted fold runtime. *)
  let empty = vstage (comp ctx base [] fns.f_empty) [] in
  let single = comp_single ctx base [] fns.f_single [] in
  let union = comp_union ctx base [] fns.f_union [] in
  let unfused acc v = union acc (single v) in
  let step =
    match fused_step ctx base fns with
    | None -> unfused
    | Some fused ->
        (* Emma expressions are pure, and on success the fused body
           evaluates the same subterms on the same values as [unfused]; on
           a classified error, re-running [unfused] raises the
           interpreter's error, in its order. *)
        fun acc v -> ( try fused acc v with e when classified e -> unfused acc v)
  in
  { empty; single; union; step }

let value ctx base e = vstage (comp ctx base [] e) []
