(* Differential tests for the staged UDF compiler (Emma_lang.Compile).

   The interpreter is the oracle: on random generated pipelines and on
   targeted programs, compiled evaluation must agree with Eval on values,
   on classified errors (same exception constructor, same message), and —
   through the engine — on every cost-model metric, at any domain count.
   Only wall-clock time may differ between the modes. *)

module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module Eval = Emma_lang.Eval
module Compile = Emma_lang.Compile
module S = Emma_lang.Surface
module Metrics = Emma_engine.Metrics
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
open Helpers

let both ?(tables = []) ?(env = Eval.empty_env) e =
  let ctx = ctx_with tables in
  let interp = classify (fun () -> Eval.eval_value ctx env e) in
  let compiled = classify (fun () -> Compile.value ctx env e) in
  (interp, compiled)

let check_parity ?tables ?env msg e =
  let interp, compiled = both ?tables ?env e in
  Alcotest.check outcome_testable msg interp compiled

(* ---------------------------------------------------------------- *)
(* Engine-level differential: both modes, full cost signature         *)
(* ---------------------------------------------------------------- *)

let run_mode ?pool mode prog tables =
  let config = Config.(default |> with_pool pool |> with_udf_mode mode) in
  let r = Emma.run_on_exn ~config (Emma.spark ()) (Emma.parallelize prog) ~tables in
  (r.Emma.value, Metrics.cost r.Emma.metrics)

let check_engine_parity ?pool msg prog tables =
  let vi, mi = run_mode ?pool Config.Interp prog tables in
  let vc, mc = run_mode ?pool Config.Compiled prog tables in
  check_value (msg ^ ": value") vi vc;
  Alcotest.(check bool) (msg ^ ": cost metrics bit-identical") true (mi = mc)

let rows_tables rows = [ ("rows", rows) ]

(* ---------------------------------------------------------------- *)
(* Random programs (qcheck)                                           *)
(* ---------------------------------------------------------------- *)

let gen_pipeline_with_rows =
  QCheck2.Gen.pair terminated_pipeline_gen rows_gen

(* Expression-level: staged evaluation is observationally the oracle. *)
let qcheck_value_parity =
  qcheck_case ~count:300 "compiled ≡ interpreted (values)" gen_pipeline_with_rows
    (fun (e, rows) ->
      let interp, compiled = both ~tables:(rows_tables rows) e in
      (match interp with
      | Val _ -> ()
      | Err m -> QCheck2.Test.fail_reportf "generated program errored: %s" m);
      interp = compiled
      ||
      match (interp, compiled) with
      | Val x, Val y -> Value.equal x y
      | _ -> false)

(* Engine-level: identical results AND identical cost metrics (counters,
   udf_invocations, simulated time) between the modes, on the default
   domain pool (sized by EMMA_TEST_DOMAINS: the tier-1 suite runs this at
   both 2 and 4 domains; the smoke alias covers 1). *)
let qcheck_engine_parity =
  qcheck_case ~count:40 "compiled ≡ interpreted (engine metrics)"
    gen_pipeline_with_rows (fun (e, rows) ->
      let prog = S.program ~ret:e [] in
      let vi, mi = run_mode Config.Interp prog (rows_tables rows) in
      let vc, mc = run_mode Config.Compiled prog (rows_tables rows) in
      Value.equal vi vc && mi = mc)

(* Same program, same mode, 1/2/4 domains: compiled execution keeps the
   engine's domain-count invariance (results and cost metrics fixed). *)
let check_domain_invariance prog tables =
  let runs =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let vi, mi = run_mode ~pool Config.Interp prog tables in
            let vc, mc = run_mode ~pool Config.Compiled prog tables in
            check_value
              (Printf.sprintf "mode parity at %d domains" domains)
              vi vc;
            Alcotest.(check bool)
              (Printf.sprintf "metric parity at %d domains" domains)
              true (mi = mc);
            (vc, mc)))
      [ 1; 2; 4 ]
  in
  match runs with
  | (v1, m1) :: rest ->
      List.iter
        (fun (v, m) ->
          check_value "value invariant across domain counts" v1 v;
          Alcotest.(check bool) "metrics invariant across domain counts" true (m1 = m))
        rest
  | [] -> assert false

let test_domain_invariance () =
  let prog =
    S.program
      ~ret:
        S.(
          sum
            (map
               (lam "x" (fun x -> field x "a" * int_ 3 + field x "b"))
               (with_filter (lam "x" (fun x -> field x "a" > int_ 2)) (read "rows"))))
      []
  in
  check_domain_invariance prog (rows_tables (List.init 24 (fun i -> row i (i mod 4))))

(* A fold algebra that is not a literal lambda is evaluated once per
   operator, and the one closure it yields runs in every partition, on
   several domains at once: in a [Fold]'s partials and an [AggBy]'s
   map-side combine. Here [single] is chosen by an [If] on a driver value
   and [union] sits under a [let] the normaliser keeps (its binder is used
   twice). A closure whose calls shared one frame would mix rows from
   different domains. *)
let test_shared_algebra_domains () =
  let rows = List.init 3000 (fun i -> row i (i mod 7)) in
  let single =
    S.if_ (S.var "flag")
      (S.lam "x" (fun x -> S.(tup [ (field x "a" * int_ 3) + field x "b"; field x "a" - field x "b" ])))
      (S.lam "x" (fun x -> S.(tup [ field x "b"; field x "a" ])))
  in
  let union =
    S.let_ "w"
      S.(var "scale" * int_ 2)
      (fun w -> S.lam2 "p" "q" (fun p q -> S.(tup [ proj p 0 + (proj q 0 * w); proj p 1 + (proj q 1 * w) ])))
  in
  let fns = { Expr.f_empty = S.(tup [ int_ 0; int_ 0 ]); f_single = single; f_union = union; f_tag = Expr.Tag_generic } in
  let driver =
    [ S.s_let "flag" S.(count (read "rows") > int_ 0); S.s_let "scale" S.(count (read "rows") / int_ 1000) ]
  in
  check_domain_invariance (S.program ~ret:(Expr.Fold (fns, S.read "rows")) driver) (rows_tables rows);
  let key = S.lam "x" (fun x -> S.field x "b") in
  check_domain_invariance (S.program ~ret:(Expr.AggBy (key, fns, S.read "rows")) driver) (rows_tables rows)

(* ---------------------------------------------------------------- *)
(* Targeted coverage                                                  *)
(* ---------------------------------------------------------------- *)

(* Captured driver bindings — the compile-time inlining path — including a
   captured closure, which must keep interpreter semantics. *)
let test_engine_driver_closure () =
  let prog =
    S.program
      ~ret:
        S.(
          sum
            (map
               (lam "x" (fun x -> app (var "scale") (field x "a")))
               (read "rows")))
      [ S.s_let "k" (S.int_ 10);
        S.s_let "scale" (S.lam "v" (fun v -> S.(v * var "k"))) ]
  in
  check_engine_parity "driver-bound closure" prog
    (rows_tables (List.init 8 (fun i -> row i 0)))

let test_engine_broadcast_bag () =
  (* a bag-valued capture is broadcast and scanned per element *)
  let prog =
    S.program
      ~ret:
        S.(
          count
            (with_filter
               (lam "x" (fun x -> exists (lam "y" (fun y -> y = field x "a")) (var "good")))
               (read "rows")))
      [ S.s_let "good" (S.bag_of [ S.int_ 1; S.int_ 3; S.int_ 5 ]) ]
  in
  check_engine_parity "broadcast bag capture" prog
    (rows_tables (List.init 10 (fun i -> row i 1)))

let test_engine_group_agg () =
  (* group-then-fold fuses to an aggBy, exercising the compiled key UDF
     and the compiled fold algebra on the reduce side *)
  let prog =
    S.program
      ~ret:
        S.(
          sum
            (for_
               [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
               ~yield:
                 (sum
                    (map (lam "x" (fun x -> field x "a")) (field (var "g") "values")))))
      []
  in
  check_engine_parity "aggBy fold algebra" prog
    (rows_tables (List.init 15 (fun i -> row i (i mod 3))));
  (* and the AggBy node itself, expression-level *)
  let fns =
    { Expr.f_empty = S.int_ 0;
      f_single = S.lam "x" (fun x -> S.field x "a");
      f_union = S.lam2 "u" "v" (fun u v -> S.(u + v));
      f_tag = Expr.Tag_generic }
  in
  check_parity ~tables:(rows_tables (List.init 9 (fun i -> row i (i mod 2))))
    "AggBy expression"
    (Expr.AggBy (S.lam "x" (fun x -> S.field x "b"), fns, S.read "rows"))

let test_engine_stateful () =
  (* stateful create/update flows through compiled key and update UDFs *)
  let prog =
    S.program
      ~ret:S.(sum (map (lam "x" (fun x -> field x "v")) (state_bag (var "st"))))
      [ S.s_let "st"
          (S.stateful
             ~key:(S.lam "x" (fun x -> S.field x "id"))
             S.(
               map
                 (lam "x" (fun x ->
                      record [ ("id", field x "a"); ("v", field x "b") ]))
                 (read "rows")));
        S.s_let "_delta"
          (S.update (S.var "st")
             (S.lam "x"
                (fun x ->
                  S.some_
                    (S.record
                       [ ("id", S.field x "id"); ("v", S.(field x "v" + int_ 100)) ])))) ]
  in
  check_engine_parity "stateful update" prog
    (rows_tables (List.init 6 (fun i -> row i (i * 2))))

(* Comprehension generators shadowing an outer binder of the same name. *)
let test_comp_shadowing () =
  let e =
    Expr.Comp
      { head = S.var "x";
        quals =
          [ Expr.QGen ("x", S.bag_of [ S.int_ 1 ]);
            Expr.QGen ("x", S.bag_of [ S.int_ 10; S.int_ 20 ]) ];
        alg = Expr.Alg_bag }
  in
  check_parity "inner generator shadows outer" e

(* Let can bind a closure that a deeper application uses. *)
let test_let_bound_closure () =
  let e =
    S.let_ "f"
      (S.lam "x" (fun x -> S.(x + int_ 1)))
      (fun f -> S.sum (S.map f (S.bag_of [ S.int_ 1; S.int_ 2; S.int_ 3 ])))
  in
  check_parity "let-bound closure" e

(* Statically dead error code must not raise at compile time: the
   interpreter never evaluates the untaken branch, so neither may we. *)
let test_dead_branch_not_evaluated () =
  let e =
    S.if_ (S.bool_ false) S.(int_ 1 / int_ 0) (S.int_ 42)
  in
  check_parity "dead division is never evaluated" e;
  let interp, _ = both e in
  Alcotest.check outcome_testable "and the live branch wins" (Val (Value.int 42)) interp

(* Constant folding must preserve error *timing*: a folded subterm that
   raises does so once per evaluation, not at compile time. *)
let test_folded_error_still_raises () =
  check_parity "static div-by-zero" S.(int_ 1 / int_ 0);
  check_parity "static mod-by-zero" S.(int_ 5 mod int_ 0);
  check_parity "static bad projection" (Expr.Proj (S.tup [ S.int_ 1 ], 7));
  check_parity "static missing field"
    (Expr.Field (S.record [ ("a", S.int_ 1) ], "nope"))

(* fn2's inner binder shadows the outer one when the names coincide,
   exactly like the interpreter's bind order. *)
let test_fn2_shadowing () =
  let ctx = ctx_with [] in
  let body = S.var "x" in
  let compiled = Compile.fn2 ctx Eval.empty_env ~param1:"x" ~param2:"x" body in
  let interp a b =
    let env = Eval.bind "x" (Eval.V a) Eval.empty_env in
    let env = Eval.bind "x" (Eval.V b) env in
    Eval.eval_value ctx env body
  in
  check_value "fn2 shadowing: compiled sees param2"
    (interp (Value.int 1) (Value.int 2))
    (compiled (Value.int 1) (Value.int 2));
  check_value "fn2 shadowing yields the inner binder" (Value.int 2)
    (compiled (Value.int 1) (Value.int 2))

(* Curried closures captured from the environment still apply step-wise:
   one App forces ("expected a value, got a function" parity), two-step
   application via a fold union works. *)
let test_captured_curried_closure () =
  let curried = S.lam "a" (fun a -> S.lam "b" (fun b -> S.(a + b))) in
  let env_expr body = S.let_ "f" curried (fun _ -> body) in
  (* fold union uses two-step application *)
  check_parity "curried closure as fold union"
    (env_expr
       (Expr.Fold
          ( { Expr.f_empty = S.int_ 0;
              f_single = S.lam "x" (fun x -> x);
              f_union = S.var "f";
              f_tag = Expr.Tag_generic },
            S.bag_of [ S.int_ 1; S.int_ 2; S.int_ 4 ] )));
  (* a single App of the curried closure must fail identically *)
  check_parity "single application of curried closure errors"
    (env_expr (S.app (S.var "f") (S.int_ 1)))

(* ---------------------------------------------------------------- *)
(* Constructors, fold algebras and field order                        *)
(* ---------------------------------------------------------------- *)

(* Tuple and record literals evaluate their components left to right, so
   with two raising components the first one's error is the one raised. *)
let test_constructor_errors () =
  let tables = rows_tables [ row 3 0; row 4 1 ] in
  let over_rows body = S.map (S.lam "x" body) (S.read "rows") in
  check_parity ~tables "tuple: div then missing field"
    (over_rows (fun x -> S.tup [ S.(field x "a" / field x "b"); S.field x "nope" ]));
  check_parity ~tables "tuple: missing field then div"
    (over_rows (fun x -> S.tup [ S.field x "nope"; S.(field x "a" / int_ 0) ]));
  check_parity ~tables "tuple: ok, bad projection, div"
    (over_rows (fun x ->
         S.tup [ S.field x "a"; Expr.Proj (x, 0); S.(field x "a" mod int_ 0) ]));
  check_parity ~tables "record: missing field then div"
    (over_rows (fun x ->
         S.record [ ("p", S.field x "nope"); ("q", S.(field x "a" / int_ 0)) ]));
  check_parity ~tables "record: div then missing field"
    (over_rows (fun x ->
         S.record [ ("p", S.(field x "b" mod int_ 0)); ("q", S.field x "zz") ]));
  check_parity "static tuple: two raisers"
    (S.tup [ S.(int_ 1 / int_ 0); Expr.Field (S.int_ 1, "f") ])

(* Random fold algebras over the rows table. [single] is a tuple literal
   and [union] a curried lambda, drawn so that the fused accumulate step's
   preconditions hold in some draws and fail in others: a component used
   twice, under an [If] or not at all, a projection out of range, binders
   shadowing each other, an ill-typed [empty], raising components. *)
let algebra_gen =
  let open QCheck2.Gen in
  let component x = function
    | 0 -> S.field x "a"
    | 1 -> S.(field x "a" * int_ 3)
    | 2 -> S.(field x "b" + float_ 0.5)
    | 3 -> S.(field x "a" / field x "b")
    | 4 -> S.field x "nope"
    | _ -> S.int_ 1
  in
  let union_part a b n i = function
    | 0 -> S.(proj a i + proj b i)
    | 1 -> S.(proj a i + proj b i + proj b i)
    | 2 -> S.if_ S.(proj a i > int_ 4) (S.proj b i) (S.proj a i)
    | 3 -> S.proj a i
    | 4 -> S.(proj b i + proj a i)
    | 5 -> S.(proj a i + proj b n)
    | _ -> S.(let_ "t" (proj b i) (fun t -> t * int_ 2 + proj a i))
  in
  int_range 1 3 >>= fun n ->
  list_repeat n (int_range 0 5) >>= fun comps ->
  list_repeat n (frequency [ (6, pure 0); (1, int_range 1 6) ]) >>= fun parts ->
  oneofl [ ("x", "a", "b"); ("a", "a", "b"); ("x", "b", "b"); ("b", "a", "b") ]
  >>= fun (xn, an, bn) ->
  frequency
    [ (6, pure (S.tup (List.init n (fun _ -> S.int_ 0))));
      (1, pure (Expr.Const (Value.String "empty")));
      (1, pure (S.tup [ S.int_ 0 ])) ]
  >|= fun empty ->
  let single = S.lam xn (fun x -> S.tup (List.map (component x) comps)) in
  let union =
    S.lam an (fun a ->
        S.lam bn (fun b -> S.tup (List.mapi (fun i k -> union_part a b n i k) parts)))
  in
  { Expr.f_empty = empty; f_single = single; f_union = union; f_tag = Expr.Tag_generic }

let print_algebra (fns : Expr.fold_fns) =
  Fmt.str "empty=%a single=%a union=%a" Emma_lang.Pretty.pp_expr fns.Expr.f_empty
    Emma_lang.Pretty.pp_expr fns.Expr.f_single Emma_lang.Pretty.pp_expr fns.Expr.f_union

(* The engine's accumulate loop, [acc := union acc (single v)] per row,
   gives the same value or classified error in both modes, and the
   compiled [step acc v] gives exactly what [union acc (single v)] does;
   so does the tree-shaped [Fold] expression. *)
let qcheck_fold_algebras =
  QCheck2.Test.make ~count:500 ~name:"random fold algebras: compiled ≡ interpreted"
    ~print:(fun (fns, _) -> print_algebra fns)
    QCheck2.Gen.(pair algebra_gen rows_gen)
    (fun (fns, rows) ->
      let ctx = ctx_with (rows_tables rows) in
      let env = Eval.empty_env in
      let interp =
        classify (fun () ->
            let empty = Eval.eval_value ctx env fns.Expr.f_empty in
            let single = Eval.eval ctx env fns.Expr.f_single in
            let union = Eval.eval ctx env fns.Expr.f_union in
            List.fold_left
              (fun acc v -> Eval.apply2_rv ctx union acc (Eval.apply_rv ctx single v))
              empty rows)
      in
      let alg = Compile.fold_fns ctx env fns in
      let compiled =
        classify (fun () ->
            List.fold_left (fun acc v -> alg.union acc (alg.single v)) alg.empty rows)
      in
      let stepped = classify (fun () -> List.fold_left alg.step alg.empty rows) in
      let same a b =
        match (a, b) with
        | Val x, Val y -> Value.equal x y
        | Err x, Err y -> String.equal x y
        | _ -> false
      in
      let fold_i, fold_c = both ~tables:(rows_tables rows) (Expr.Fold (fns, S.read "rows")) in
      same interp compiled && same compiled stepped && same fold_i fold_c)
  |> QCheck_alcotest.to_alcotest

(* The same random algebras through aggBy's owned form: the combine's
   [step] then [merge] per row, and the reduce's [absorb] of one half's
   partial into the other's, give what the interpreter's [union acc
   (single v)] gives (value or classified error), and [empty] is never
   written. *)
let qcheck_owned_algebras =
  QCheck2.Test.make ~count:500
    ~name:"random fold algebras: owned merge and absorb ≡ interpreted"
    ~print:(fun (fns, _) -> print_algebra fns)
    QCheck2.Gen.(pair algebra_gen rows_gen)
    (fun (fns, rows) ->
      let ctx = ctx_with (rows_tables rows) in
      let env = Eval.empty_env in
      let single = Eval.eval ctx env fns.Expr.f_single in
      let union = Eval.eval ctx env fns.Expr.f_union in
      let interp_fold rows =
        List.fold_left
          (fun acc v -> Eval.apply2_rv ctx union acc (Eval.apply_rv ctx single v))
          (Eval.eval_value ctx env fns.Expr.f_empty)
          rows
      in
      let own = Compile.owned_fns ctx env fns in
      let alg = own.Compile.algebra in
      let empty_before = Value.tuple [ alg.empty ] in
      (* the combine's first row goes through [step empty], the others
         through [merge] *)
      let combine = function
        | [] -> alg.empty
        | v :: rest -> List.fold_left own.merge (alg.step alg.empty v) rest
      in
      let n = List.length rows / 2 in
      let left = List.filteri (fun i _ -> i < n) rows
      and right = List.filteri (fun i _ -> i >= n) rows in
      let same a b =
        match (a, b) with
        | Val x, Val y -> Value.equal x y
        | Err x, Err y -> String.equal x y
        | _ -> false
      in
      same (classify (fun () -> interp_fold rows)) (classify (fun () -> combine rows))
      && (left = [] || right = []
         || same
              (classify (fun () ->
                   let l = interp_fold left in
                   Eval.apply2_rv ctx union l (interp_fold right)))
              (classify (fun () ->
                   let l = combine left in
                   own.absorb l (combine right))))
      && Value.equal empty_before (Value.tuple [ alg.empty ]))
  |> QCheck_alcotest.to_alcotest

(* Rows holding the same fields in different orders: a compiled field
   access must find the right field whichever layout the previous row had. *)
let test_mixed_field_order () =
  let rows =
    List.init 30 (fun i ->
        let a = ("a", Value.Int i) and b = ("b", Value.Int (i mod 4)) in
        let c = ("c", Value.Int (i * 7)) in
        Value.record
          (match i mod 3 with 0 -> [ a; b; c ] | 1 -> [ c; b; a ] | _ -> [ b; a; c ]))
  in
  let prog =
    S.program
      ~ret:
        S.(
          tup
            [ sum
                (map
                   (lam "x" (fun x -> field x "a" * int_ 3 + field x "b" - field x "c"))
                   (with_filter (lam "x" (fun x -> field x "a" > int_ 2)) (read "rows")));
              sum
                (for_
                   [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
                   ~yield:
                     (sum (map (lam "x" (fun x -> field x "c")) (field (var "g") "values"))))
            ])
      []
  in
  check_domain_invariance prog (rows_tables rows)

(* ---------------------------------------------------------------- *)
(* Comprehension-invariant subterms                                   *)
(* ---------------------------------------------------------------- *)

(* A staged unary UDF applied row after row, the way an operator applies
   it, against the interpreter: each row's value or classified error must
   match, so a value cached for one call, or computed where the
   interpreter never evaluates it, shows up. *)
let check_udf_parity ?(tables = []) msg ~param body rows =
  let ctx = ctx_with tables in
  let staged = Compile.fn ctx Eval.empty_env ~param body in
  List.iteri
    (fun i v ->
      let interp =
        classify (fun () -> Eval.eval_value ctx (Eval.bind param (Eval.V v) Eval.empty_env) body)
      in
      Alcotest.check outcome_testable
        (Printf.sprintf "%s (row %d)" msg i)
        interp
        (classify (fun () -> staged v)))
    rows

let comp ?(alg = Expr.Alg_bag) head quals = Expr.Comp { head; quals; alg }
let qgen x src = Expr.QGen (x, src)

(* [x.a / x.b] does not depend on the generator; the rows have [b = 0]
   where it would raise. *)
let test_invariant_not_evaluated () =
  let inv x = S.(field x "a" / field x "b") in
  let rows = [ row 7 0; row 8 2; row 9 0 ] in
  check_udf_parity "raising invariant under an empty generator" ~param:"x"
    (comp (inv (S.var "x")) [ qgen "n" (S.range (S.int_ 1) S.(field (var "x") "b" - int_ 1)) ])
    rows;
  check_udf_parity "raising invariant under a false guard" ~param:"x"
    (comp (inv (S.var "x"))
       [ qgen "n" (S.range (S.int_ 1) (S.int_ 3)); Expr.QGuard S.(field (var "x") "b" > int_ 0) ])
    rows;
  check_udf_parity "raising invariant under a per-element false guard" ~param:"x"
    (comp (inv (S.var "x")) [ qgen "n" (S.range (S.int_ 1) (S.int_ 3)); Expr.QGuard S.(var "n" > int_ 5) ])
    rows;
  check_udf_parity "raising invariant in an untaken If branch" ~param:"x"
    (comp
       (S.if_ S.(var "n" > int_ 100) (inv (S.var "x")) (S.var "n"))
       [ qgen "n" (S.range (S.int_ 1) (S.int_ 3)) ])
    rows

(* A generator rebinding [x] makes [x.a + 1] depend on the generator,
   whether it shadows the UDF's parameter or an earlier generator. *)
let test_invariant_shadowed () =
  let rows = [ row 1 0; row 2 1 ] in
  let inner = S.bag_of [ S.record [ ("a", S.int_ 10) ]; S.record [ ("a", S.int_ 20) ] ] in
  check_udf_parity "generator shadows the parameter" ~param:"x"
    (comp S.(tup [ field (var "x") "a" + int_ 1; var "n" ])
       [ qgen "n" (S.range (S.int_ 1) (S.int_ 2)); qgen "x" inner ])
    rows;
  check_udf_parity "guard before and after the shadowing generator" ~param:"x"
    (comp S.(field (var "x") "a" * int_ 2)
       [ qgen "y" (S.range (S.int_ 1) (S.int_ 2));
         Expr.QGuard S.(field (var "x") "a" < int_ 15);
         qgen "x" inner;
         Expr.QGuard S.(field (var "x") "a" > int_ 15) ])
    rows;
  check_udf_parity "lambda binder shadows inside the head" ~param:"x"
    (comp
       (S.sum (S.map (S.lam "x" (fun x -> S.(x * int_ 3 + var "n"))) (S.range (S.int_ 1) (S.int_ 3))))
       [ qgen "n" (S.range (S.int_ 1) S.(field (var "x") "a" + int_ 1)) ])
    rows;
  (* A comprehension's algebra runs in the scope outside it: here its [y]
     is the outer generator's, not the inner one it shadows, so the inner
     comprehension depends on the outer generator. *)
  let times_y =
    { Expr.f_empty = S.int_ 0;
      f_single = S.lam "z" (fun z -> S.(z * var "y"));
      f_union = S.lam2 "a" "b" (fun a b -> S.(a + b));
      f_tag = Expr.Tag_generic }
  in
  check_udf_parity "algebra sees the outer generator" ~param:"x"
    (comp
       (comp ~alg:(Expr.Alg_fold times_y) (S.var "y") [ qgen "y" (S.range (S.int_ 1) (S.int_ 2)) ])
       [ qgen "y" (S.range (S.int_ 1) S.(field (var "x") "a" + int_ 1)) ])
    rows

(* The inner comprehension's invariant [m.a * 10] mentions the outer
   generator [m]: it is fixed for one entry into the inner comprehension
   and must be recomputed for the next [m]. *)
let test_invariant_nested () =
  let rows = [ row 0 3; row 1 2 ] in
  let ms = S.bag_of (List.init 3 (fun i -> S.record [ ("a", S.int_ (i + 1)) ])) in
  check_udf_parity "inner invariant mentions the outer generator" ~param:"x"
    (comp
       (comp S.(field (var "m") "a" * int_ 10 + var "k" + field (var "x") "b") [ qgen "k" (S.range (S.int_ 1) (S.int_ 2)) ])
       [ qgen "m" ms ])
    rows;
  check_udf_parity "invariant of both comprehensions, under a fold" ~param:"x"
    (comp
       (S.count
          (comp S.(var "k" + (field (var "x") "a" * field (var "x") "b"))
             [ qgen "k" (S.range (S.int_ 1) S.(field (var "m") "a")) ]))
       [ qgen "m" ms ])
    rows

(* A lambda built inside a comprehension captures the generator's value
   and is applied after an inner loop has run, and again inside it; a
   staged environment that reused the generator's storage would show
   later values. *)
let test_closure_captures_generator () =
  let rows = [ row 5 1; row 6 2 ] in
  let body =
    comp
      (S.let_ "f"
         (S.lam "y" (fun y -> S.(y * int_ 100 + var "n" + field (var "x") "a")))
         (fun f ->
           S.tup
             [ S.app f (S.int_ 1);
               comp (S.app f (S.var "m")) [ qgen "m" (S.range (S.int_ 1) (S.var "n")) ];
               S.sum (S.map f (S.range (S.int_ 1) (S.int_ 2)));
               S.app f (S.int_ 2) ]))
      [ qgen "n" (S.range (S.int_ 1) S.(field (var "x") "b" + int_ 1)) ]
  in
  check_udf_parity "closure over the generator, applied after the loop" ~param:"x" body rows;
  (* two closures built at the same depth, one called inside the other *)
  check_udf_parity "closure called inside another closure" ~param:"x"
    (S.let_ "g"
       (S.lam "z" (fun z -> S.(z * int_ 10 + field (var "x") "a")))
       (fun g ->
         S.sum (S.map (S.lam "y" (fun y -> S.(app g (y + int_ 1) + y))) (S.range (S.int_ 1) (S.int_ 3)))))
    rows;
  check_parity ~tables:(rows_tables rows) "same closure through a map"
    (S.map (S.lam "x" (fun _ -> body)) (S.read "rows"))

(* A [let]-bound lambda used more than once, which the normaliser keeps:
   applications stage its body in place, so its free variables must still
   mean what they meant where it was bound (a generator [n] shadows the
   [n] it reads), an application that reads only outer names is hoisted
   out of a loop, one that reads a generator through the lambda is not,
   and a use as a whole value still builds a closure. A lambda chosen at
   runtime is bound by re-staging the [let]'s body. *)
let test_let_bound_lambda () =
  let rows = [ row 3 1; row 4 2; row 0 0 ] in
  let x = S.var "x" in
  let f = S.var "f" in
  let one_to e = S.range (S.int_ 1) e in
  check_udf_parity "applications see the binding scope" ~param:"x"
    (S.let_ "n" S.(field x "a" + int_ 1) (fun n ->
         S.let_ "f" (S.lam "y" (fun y -> S.(y * int_ 10 + n))) (fun f ->
             S.tup
               [ S.app f (S.field x "b");
                 comp S.(app f n + app f (int_ 1)) [ qgen "n" (one_to (S.int_ 3)) ];
                 S.sum (S.map f (one_to S.(field x "b" + int_ 1))) ])))
    rows;
  check_udf_parity "a lambda over a generator, applied in an inner loop" ~param:"x"
    (comp
       (S.let_ "f" (S.lam "y" (fun y -> S.(y + var "m" + field x "a"))) (fun f ->
            S.tup [ comp S.(app f (int_ 1) + var "k") [ qgen "k" (one_to (S.int_ 2)) ]; S.app f (S.int_ 2) ]))
       [ qgen "m" (one_to S.(field x "b" + int_ 1)) ])
    rows;
  check_udf_parity "an invariant application raises only where the interpreter does" ~param:"x"
    (S.let_ "f" (S.lam "y" (fun y -> S.(y / field x "a"))) (fun _ ->
         S.tup
           [ comp S.(app f (int_ 7) + var "k") [ qgen "k" (one_to (S.field x "b")) ];
             S.app f (S.field x "b") ]))
    rows;
  (* a function-valued [let] that is not a literal lambda *)
  check_udf_parity "a lambda chosen by an If" ~param:"x"
    (comp
       (S.let_ "f"
          (S.if_ S.(var "m" > int_ 1) (S.lam "y" (fun y -> S.(y + var "m"))) (S.lam "y" (fun y -> S.(y / field x "a"))))
          (fun f -> S.(app f (int_ 1) + sum (comp (app f (var "k")) [ qgen "k" (one_to (int_ 2)) ]))))
       [ qgen "m" (one_to S.(field x "b" + int_ 1)) ])
    rows

(* PageRank's message shape: the invariant divides by the degree, and the
   second vertex has no neighbors' weight to divide by. The first call
   must succeed, the second raise the interpreter's error, the third
   succeed again. *)
let test_invariant_raises_second_call () =
  let vertex rank nbrs =
    Value.tuple
      [ Value.record [ ("rank", Value.Int rank) ];
        Value.record [ ("neighbors", Value.bag (List.map Value.int nbrs)); ("w", Value.Int (List.length nbrs - 2)) ] ]
  in
  let v = S.var "v" in
  let body =
    comp
      (S.record
         [ ("vertex", S.var "n");
           ("rank", S.(field (proj v 0) "rank" / field (proj v 1) "w")) ])
      [ qgen "n" (S.field (S.proj v 1) "neighbors") ]
  in
  check_udf_parity "invariant raises on the second vertex" ~param:"v" body
    [ vertex 12 [ 1; 2; 3 ]; vertex 5 [ 4; 5 ]; vertex 7 [ 6; 7; 8; 9 ]; vertex 1 [] ]

(* A fold's [single] raising on two different elements, [x.b] (division
   by zero) and [x.a], the last one (modulo by zero): which error surfaces
   depends on the order the fold calls [single] in. The staged folds over
   a comprehension, a bag and an aggBy group must raise the
   interpreter's, at every size and every pair of positions. *)
let test_fold_call_order () =
  let x = S.var "x" in
  let two_errors =
    { Expr.f_empty = S.int_ 0;
      f_single =
        S.lam "z" (fun z ->
            S.(if_ (z = field x "b") (z / int_ 0) (if_ (z = field x "a") (z mod int_ 0) z)));
      f_union = S.lam2 "p" "q" (fun p q -> S.(p + q));
      f_tag = Expr.Tag_generic }
  in
  let upto = S.range (S.int_ 1) (S.field x "a") in
  let rows = List.concat (List.init 17 (fun a -> List.init (a + 1) (fun b -> row a b))) in
  check_udf_parity "comprehension fold" ~param:"x"
    (comp ~alg:(Expr.Alg_fold two_errors) (S.var "n") [ qgen "n" upto ])
    rows;
  check_udf_parity "bag fold" ~param:"x" (Expr.Fold (two_errors, upto)) rows;
  check_udf_parity "aggBy group" ~param:"x"
    (Expr.AggBy (S.lam "n" (fun _ -> S.int_ 0), two_errors, upto))
    rows

(* Random comprehension bodies over the row [x] and the names [n] and [m],
   which generators, [let]s and lambdas bind and shadow at any depth, with
   divisions that raise, [If] branches and nested comprehensions: staged
   and interpreted agree on every row, value or classified error
   (unbound names included), whatever gets hoisted where. *)
let comp_udf_gen =
  let open QCheck2.Gen in
  let x = S.var "x" in
  let small e = S.(e mod int_ 3) in
  let leaf =
    oneofl [ S.var "n"; S.var "m"; S.field x "a"; S.field x "b"; S.int_ 1; S.int_ 2 ]
  in
  let binder = oneofl [ "n"; "m" ] in
  let term =
    fix (fun self d ->
        if d = 0 then leaf
        else
          let sub = self (d - 1) in
          frequency
            [ (3, leaf);
              (3, map2 (fun a b -> S.(a + b)) sub sub);
              (1, map2 (fun a b -> S.(a / b)) sub sub);
              (1, map3 (fun c t e -> S.if_ S.(c > int_ 1) t e) sub sub sub);
              (1, map3 (fun y a b -> Expr.Let (y, a, b)) binder sub sub);
              ( 1,
                map3
                  (fun y src h -> S.sum (comp h [ qgen y (S.range (S.int_ 1) (small src)) ]))
                  binder sub sub );
              ( 1,
                map3
                  (fun y body src -> S.sum (S.map (Expr.Lam (y, body)) (S.range (S.int_ 0) (small src))))
                  binder sub sub );
              ( 1,
                map3
                  (fun y body rest ->
                    let f = S.var "f" in
                    Expr.Let
                      ( "f",
                        Expr.Lam (y, body),
                        S.(app f rest + app f (small rest) + sum (map f (range (int_ 0) (small rest)))) ))
                  binder sub sub ) ])
  in
  map3
    (fun y head guard ->
      comp head
        [ qgen y (S.range (S.int_ 0) S.(field x "b" mod int_ 4)); Expr.QGuard S.(guard <> int_ 0) ])
    binder (term 3) (term 2)

let qcheck_comp_udfs =
  QCheck2.Test.make ~count:300 ~name:"random comprehension UDFs: staged ≡ interpreted"
    ~print:(fun (e, _) -> Emma_lang.Pretty.expr_to_string e)
    QCheck2.Gen.(pair comp_udf_gen rows_gen)
    (fun (body, rows) ->
      let ctx = ctx_with [] in
      let staged = Compile.fn ctx Eval.empty_env ~param:"x" body in
      List.for_all
        (fun v ->
          let interp =
            classify (fun () -> Eval.eval_value ctx (Eval.bind "x" (Eval.V v) Eval.empty_env) body)
          in
          match (interp, classify (fun () -> staged v)) with
          | Val a, Val b -> Value.equal a b
          | Err a, Err b -> String.equal a b
          | _ -> false)
        rows)
  |> QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Float arithmetic                                                   *)
(* ---------------------------------------------------------------- *)

(* Values compared bit for bit: a float by its bits (so -0.0, every NaN
   payload and every subnormal count), an [Int] only as an [Int]. *)
let rec same_bits a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int x, Value.Int y -> x = y
  | Value.String x, Value.String y -> String.equal x y
  | Value.Tuple xs, Value.Tuple ys ->
      Array.length xs = Array.length ys && Array.for_all2 same_bits xs ys
  | _ -> false

let same_outcome a b =
  match (a, b) with
  | Val x, Val y -> same_bits x y
  | Err x, Err y -> String.equal x y
  | _ -> false

let nan_payload = Int64.float_of_bits 0x7ff8_0000_0000_0123L

let special_floats =
  [ 0.0; -0.0; 1.5; -2.25; 0.1; 1e308; -1e308; infinity; neg_infinity; nan_payload;
    4.9e-324; -2.2e-310; Float.min_float; 3.0 ]

(* A row [x] of five fields [v0]..[v4], each an [Int] (0 included, so
   [Int / Int] may divide by zero), a float from [special_floats] or a
   string. *)
let float_row_gen =
  let open QCheck2.Gen in
  let cell =
    frequency
      [ (3, map (fun i -> Value.Int i) (int_range (-3) 3));
        (1, map (fun i -> Value.Int i) (oneofl [ max_int; min_int; 1 lsl 53 + 1 ]));
        (6, map (fun f -> Value.Float f) (oneofl special_floats));
        (1, pure (Value.String "s")) ]
  in
  list_repeat 5 cell
  >|= fun cells -> Value.record (List.mapi (fun i v -> (Printf.sprintf "v%d" i, v)) cells)

(* Random trees of [add], [sub], [mul], [div], [neg], [abs], [sqrt],
   [floor] and [to_float] over the row's fields, a missing field, and
   [Int] and [Float] constants. *)
let float_tree_gen =
  let open QCheck2.Gen in
  let x = S.var "x" in
  let leaf =
    frequency
      [ (8, map (fun i -> S.field x (Printf.sprintf "v%d" i)) (int_range 0 4));
        (1, pure (S.field x "nope"));
        (2, map S.int_ (int_range (-2) 2));
        (3, map S.float_ (oneofl special_floats)) ]
  in
  let unary = oneofl Emma_lang.Prim.[ Neg; Abs; Sqrt; Floor; To_float ] in
  let binary = oneofl Emma_lang.Prim.[ Add; Sub; Mul; Div ] in
  sized_size (int_range 1 4)
  @@ fix (fun self d ->
         if d = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (2, map2 (fun p a -> Expr.Prim (p, [ a ])) unary (self (d - 1)));
               ( 5,
                 map3 (fun p a b -> Expr.Prim (p, [ a; b ])) binary (self (d - 1)) (self (d - 1)) )
             ])

(* Staged float trees against [Eval], bit for bit, value or classified
   error: as a plain [fn] body; and as [single]'s component under a fused
   [union (a, b) => (a._0 op b._0)], through the staged [step], and
   aggBy's [merge] and [absorb]. *)
let qcheck_float_trees =
  QCheck2.Test.make ~count:1000 ~name:"random float trees: staged ≡ interpreted, bit for bit"
    ~print:(fun (e, op, rows) ->
      Fmt.str "%s, union op %s, rows %a" (Emma_lang.Pretty.expr_to_string e)
        (Emma_lang.Prim.name op) (Fmt.Dump.list Value.pp) rows)
    QCheck2.Gen.(
      triple float_tree_gen (oneofl Emma_lang.Prim.[ Add; Sub; Mul; Div ])
        (list_size (int_range 1 3) float_row_gen))
    (fun (tree, op, rows) ->
      let ctx = ctx_with [] in
      let env = Eval.empty_env in
      let staged = Compile.fn ctx env ~param:"x" tree in
      let plain =
        List.for_all
          (fun v ->
            same_outcome
              (classify (fun () -> Eval.eval_value ctx (Eval.bind "x" (Eval.V v) env) tree))
              (classify (fun () -> staged v)))
          rows
      in
      let fns =
        { Expr.f_empty = S.tup [ S.int_ 0 ];
          f_single = Expr.Lam ("x", S.tup [ tree ]);
          f_union =
            S.lam2 "a" "b" (fun a b -> S.tup [ Expr.Prim (op, [ S.proj a 0; S.proj b 0 ]) ]);
          f_tag = Expr.Tag_generic }
      in
      let single = Eval.eval ctx env fns.Expr.f_single in
      let union = Eval.eval ctx env fns.Expr.f_union in
      let interp_fold rows =
        List.fold_left
          (fun acc v -> Eval.apply2_rv ctx union acc (Eval.apply_rv ctx single v))
          (Eval.eval_value ctx env fns.Expr.f_empty)
          rows
      in
      let alg = Compile.fold_fns ctx env fns in
      let own = Compile.owned_fns ctx env fns in
      let interp = classify (fun () -> interp_fold rows) in
      let stepped = classify (fun () -> List.fold_left alg.step alg.empty rows) in
      let merged =
        classify (fun () ->
            match rows with
            | [] -> own.algebra.empty
            | v :: rest -> List.fold_left own.merge (own.algebra.step own.algebra.empty v) rest)
      in
      let absorbed =
        classify (fun () ->
            List.fold_left
              (fun acc v -> own.absorb acc (own.algebra.single v))
              (Value.tuple [ Value.Int 0 ]) rows)
      in
      plain && same_outcome interp stepped && same_outcome interp merged
      && same_outcome interp absorbed)
  |> QCheck_alcotest.to_alcotest

(* The first leaf an [Int] and a later one raising: the staged tree
   raises the interpreter's error, the later one's, not a type error of
   its own; and where the [Int]s meet, [Int] arithmetic and its
   division by zero come first. *)
let test_float_error_order () =
  let x = S.var "x" in
  let f = S.field x in
  let module Prim = Emma_lang.Prim in
  let line =
    Value.record
      [ ("i", Value.Int 3); ("z", Value.Int 0); ("f", Value.Float 2.5);
        ("s", Value.String "s") ]
  in
  let cases =
    [ ("missing field", S.(f "i" + (f "f" * f "nope")));
      ("string leaf", S.(f "i" * float_ 2.0 + (f "f" - f "s")));
      ("Int product, then string", S.(f "i" * f "i" + (f "f" - f "s")));
      ("Int / Int by zero", S.(f "f" + (f "i" / f "z")));
      ("Int under neg", S.(Expr.Prim (Prim.Neg, [ f "i" ]) * f "f"));
      ("Int under sqrt", S.(Expr.Prim (Prim.Sqrt, [ f "i" ]) * f "f")) ]
  in
  List.iter (fun (msg, body) -> check_udf_parity msg ~param:"x" body [ line ]) cases

(* Allocation guard: minor-heap words per call of staged functions,
   measured on the calling domain. The bounds are what the staged code
   allocates: 2 words for the field access (its one-slot frame) and 39
   for Q1's fused step (its two-slot frame, the scratch of two float
   paths, the boxed float results and the new accumulator), where
   [union acc (single v)] takes 69. A reintroduced per-access closure,
   consed environment, intermediate tuple or intermediate float box fails
   here, not only in the benchmark. *)
let minor_words_per_call f =
  let calls = 2000 in
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* Q1's fused aggBy algebra, as fold-group fusion emits it, and a line. *)
let q1 =
  let price x = S.field x "extendedPrice" and disc x = S.field x "discount" in
  { Expr.f_empty = S.tup (List.init 6 (fun _ -> S.int_ 0));
    f_single =
      S.lam "x" (fun x ->
          S.(
            tup
              [ price x * (float_ 1.0 - disc x);
                price x * (float_ 1.0 - disc x) * (float_ 1.0 + field x "tax");
                disc x;
                int_ 1;
                price x;
                field x "quantity" ]));
    f_union = S.lam2 "a" "b" (fun a b -> S.tup (List.init 6 (fun i -> S.(proj a i + proj b i))));
    f_tag = Expr.Tag_generic }

let q1_line =
  Value.record
    [ ("orderKey", Value.Int 7); ("quantity", Value.Float 17.0);
      ("extendedPrice", Value.Float 2104.5); ("discount", Value.Float 0.04);
      ("tax", Value.Float 0.02); ("returnFlag", Value.String "N");
      ("lineStatus", Value.String "O"); ("shipDate", Value.Int 9000) ]

let test_allocation_guard () =
  let ctx = ctx_with [] in
  let wide =
    Value.record
      (List.init 11 (fun i -> (Printf.sprintf "g%d" i, Value.Int i)) @ [ ("f", Value.Int 42) ])
  in
  let get_f = Compile.fn ctx Eval.empty_env ~param:"x" (S.field (S.var "x") "f") in
  check_value "x.f" (Value.Int 42) (get_f wide);
  let field_words = minor_words_per_call (fun () -> get_f wide) in
  let alg = Compile.fold_fns ctx Eval.empty_env q1 in
  let line = q1_line in
  let acc = alg.Compile.step alg.Compile.empty line in
  check_value "step = union acc (single v)"
    (alg.Compile.union acc (alg.Compile.single line))
    (alg.Compile.step acc line);
  let step_words = minor_words_per_call (fun () -> alg.Compile.step acc line) in
  Printf.printf "allocation guard: x.f %.1f words/call, Q1 step %.1f words/call\n"
    field_words step_words;
  Alcotest.(check bool)
    (Printf.sprintf "x.f allocates %.1f <= 2 words per call" field_words)
    true (field_words <= 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "Q1 step allocates %.1f <= 39 words per call" step_words)
    true (step_words <= 39.0)

(* aggBy's owned form of Q1's algebra. [merge] stores into the
   accumulator it is given and returns it: 30 words per call, its
   two-slot frame, the scratch of the two float paths that nest and the
   five boxed [Float] results, against the 39 of [step], which also
   builds the new tuple (a 7-word array and its 2-word box). Boxing the
   six intermediate floats too made it 49.
   [absorb] does the same for [union]. A merge whose second component
   raises leaves the accumulator untouched, and raises the interpreter's
   error. A union that holds its accumulator whole is not done in place. *)
let test_owned_merge () =
  let ctx = ctx_with [] in
  let own = Compile.owned_fns ctx Eval.empty_env q1 in
  let alg = own.Compile.algebra in
  let copy = function Value.Tuple a -> Value.Tuple (Array.copy a) | v -> v in
  let acc = alg.Compile.step alg.Compile.empty q1_line in
  let expected = alg.Compile.union (copy acc) (alg.Compile.single q1_line) in
  let merged = own.Compile.merge acc q1_line in
  Alcotest.(check bool) "merge returns its accumulator" true (merged == acc);
  check_value "merge = union acc (single v)" expected merged;
  let other = alg.Compile.step alg.Compile.empty q1_line in
  let expected = alg.Compile.union (copy acc) other in
  let absorbed = own.Compile.absorb acc other in
  Alcotest.(check bool) "absorb returns its first argument" true (absorbed == acc);
  check_value "absorb = union" expected absorbed;
  check_value "empty untouched"
    (Value.tuple (List.init 6 (fun _ -> Value.Int 0)))
    alg.Compile.empty;
  let merge_words = minor_words_per_call (fun () -> own.Compile.merge acc q1_line) in
  let absorb_words = minor_words_per_call (fun () -> own.Compile.absorb acc other) in
  Printf.printf "owned Q1: merge %.1f words/call, absorb %.1f words/call\n" merge_words
    absorb_words;
  Alcotest.(check bool)
    (Printf.sprintf "Q1 merge allocates %.1f <= 30 words per call" merge_words)
    true (merge_words <= 30.0);
  (* three components, the second raising on [b = 0] *)
  let fns =
    { Expr.f_empty = S.(tup [ int_ 0; int_ 0; int_ 0 ]);
      f_single =
        S.lam "x" (fun x -> S.tup [ S.field x "a"; S.(field x "a" / field x "b"); S.int_ 1 ]);
      f_union =
        S.lam2 "p" "q" (fun p q -> S.tup (List.init 3 (fun i -> S.(proj p i + proj q i))));
      f_tag = Expr.Tag_generic }
  in
  let own = Compile.owned_fns ctx Eval.empty_env fns in
  let acc = own.Compile.algebra.Compile.step own.Compile.algebra.Compile.empty (row 4 2) in
  let before = copy acc in
  let interp =
    classify (fun () ->
        let union = Eval.eval ctx Eval.empty_env fns.Expr.f_union in
        let single = Eval.eval ctx Eval.empty_env fns.Expr.f_single in
        Eval.apply2_rv ctx union acc (Eval.apply_rv ctx single (row 5 0)))
  in
  Alcotest.check outcome_testable "the interpreter's error"
    (Err "Type_error: div: integer division by zero") interp;
  Alcotest.check outcome_testable "merge raises it" interp
    (classify (fun () -> own.Compile.merge acc (row 5 0)));
  check_value "the accumulator is untouched" before acc;
  (* in place, the accumulator would contain itself *)
  let fns =
    { fns with
      Expr.f_empty = S.(tup [ int_ 0; bag_of [] ]);
      f_single = S.lam "x" (fun x -> S.tup [ S.field x "a"; S.bag_of [] ]);
      f_union = S.lam2 "p" "q" (fun p q -> S.tup [ S.(proj p 0 + proj q 0); S.bag_of [ p ] ]) }
  in
  let own = Compile.owned_fns ctx Eval.empty_env fns in
  let acc = own.Compile.algebra.Compile.step own.Compile.algebra.Compile.empty (row 4 2) in
  Alcotest.(check bool)
    "merge builds a new tuple" false
    (own.Compile.merge acc (row 5 1) == acc);
  Alcotest.(check bool) "absorb builds a new tuple" false (own.Compile.absorb acc acc == acc)

(* [a + b * (c - d)] over a row's fields, staged as one float path:
   beyond its one-slot frame (2 words) it allocates the root's boxed
   [Float] (4) and a one-slot scratch (2), so 8 words per call, with the
   [Int] beside a float converted in place. Boxing the two intermediate
   floats made it 14. *)
let test_float_tree_allocation () =
  let ctx = ctx_with [] in
  let f = S.field (S.var "x") in
  let body = S.(f "a" + (f "b" * (f "c" - f "d"))) in
  let tree = Compile.fn ctx Eval.empty_env ~param:"x" body in
  let row a =
    Value.record
      [ ("a", a); ("b", Value.Float 1.5); ("c", Value.Float 4.0); ("d", Value.Float 0.25) ]
  in
  List.iter
    (fun (what, a) ->
      let v = row a in
      check_value what (Eval.eval_value ctx (Eval.bind "x" (Eval.V v) Eval.empty_env) body) (tree v);
      let words = minor_words_per_call (fun () -> tree v) in
      Printf.printf "a + b * (c - d), %s: %.1f words/call\n" what words;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f <= 8 words per call" what words)
        true (words <= 8.0))
    [ ("float a", Value.Float 2.0); ("int a", Value.Int 2) ]

(* PageRank's message UDF, as the compiler emits it: the rank share
   [v._1.rank / to_float(count(v._2.neighbors))] does not depend on the
   neighbor [n], so it is computed once per vertex. Words per emitted
   message then stay bounded as the degree grows (26.9 at degree 8, 23.5
   at 64: the per-vertex count spreads over more messages); recounting
   the neighbors per message would make them grow with the degree. The
   count folds the neighbors' array without building a union tree, which
   took 35.9 and 31.6, and the share boxes only its quotient, not the
   count's [to_float] too (27.1 at degree 8). *)
let test_pagerank_message_allocation () =
  let ctx = ctx_with [] in
  let v = S.var "v" in
  let nbrs = S.field (S.proj v 1) "neighbors" in
  let count_fns =
    { Expr.f_empty = S.int_ 0;
      f_single = S.lam "x" (fun _ -> S.int_ 1);
      f_union = S.lam2 "a" "b" (fun a b -> S.(a + b));
      f_tag = Expr.Tag_count }
  in
  let body =
    comp
      (S.record
         [ ("vertex", S.var "n");
           ( "rank",
             S.(
               field (proj v 0) "rank"
               / to_float (comp ~alg:(Expr.Alg_fold count_fns) (var "x") [ qgen "x" nbrs ])) ) ])
      [ qgen "n" nbrs ]
  in
  let messages = Compile.fn ctx Eval.empty_env ~param:"v" body in
  let words_per_message deg =
    let vertex =
      Value.tuple
        [ Value.record [ ("id", Value.Int 0); ("rank", Value.Float 0.25) ];
          Value.record
            [ ("id", Value.Int 0); ("neighbors", Value.bag (List.init deg (fun i -> Value.Int i))) ] ]
    in
    let expected =
      Eval.eval_value ctx (Eval.bind "v" (Eval.V vertex) Eval.empty_env) body
    in
    check_value (Printf.sprintf "messages at degree %d" deg) expected (messages vertex);
    minor_words_per_call (fun () -> messages vertex) /. float_of_int deg
  in
  let w8 = words_per_message 8 and w64 = words_per_message 64 in
  Printf.printf "PageRank messages: %.2f words/message at degree 8, %.2f at 64\n" w8 w64;
  Alcotest.(check bool)
    (Printf.sprintf "degree 8: %.2f <= 28.5 words per message" w8)
    true (w8 <= 28.5);
  Alcotest.(check bool)
    (Printf.sprintf "degree 64: %.2f <= 28.5 words per message" w64)
    true (w64 <= 28.5)

(* k-means's cluster assignment, as the compiler stages it: the nearest of
   three 2-D centroids in the broadcast [ctrds], by a [minBy] fold of
   [vdist]. 71 words per point: the three-element array the fold reads,
   its options, the boxed distances and the output record. Building the
   union tree and [vdist]'s difference vector through [Array.mapi] made it
   159. *)
let test_kmeans_assign_allocation () =
  let ctx = ctx_with [] in
  let centroid cid x y =
    Value.record [ ("cid", Value.Int cid); ("pos", Value.Vector [| x; y |]) ]
  in
  let ctrds = Value.bag [ centroid 0 0.0 0.0; centroid 1 5.0 1.0; centroid 2 (-3.0) 4.0 ] in
  let base = Eval.bind "ctrds" (Eval.V ctrds) Eval.empty_env in
  let p = S.var "p" in
  let nearest =
    S.(
      field
        (opt_get (min_by (lam "c" (fun c -> vdist (field c "pos") (field p "pos"))) (var "ctrds")))
        "cid")
  in
  let body = S.record [ ("cid", nearest); ("p", p) ] in
  let assign = Compile.fn ctx base ~param:"p" body in
  let point = Value.record [ ("id", Value.Int 7); ("pos", Value.Vector [| 4.0; 2.0 |]) ] in
  check_value "nearest centroid"
    (Eval.eval_value ctx (Eval.bind "p" (Eval.V point) base) body)
    (assign point);
  let words = minor_words_per_call (fun () -> assign point) in
  Printf.printf "k-means assignment: %.1f words/point\n" words;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f <= 74 words per point" words)
    true (words <= 74.0)

let suite =
  [ ( "compile_differential",
      [ qcheck_value_parity;
        qcheck_engine_parity;
        Alcotest.test_case "1/2/4-domain invariance" `Quick test_domain_invariance;
        Alcotest.test_case "shared algebra across domains" `Quick test_shared_algebra_domains;
        Alcotest.test_case "driver closure" `Quick test_engine_driver_closure;
        Alcotest.test_case "broadcast bag" `Quick test_engine_broadcast_bag;
        Alcotest.test_case "aggBy algebra" `Quick test_engine_group_agg;
        Alcotest.test_case "stateful update" `Quick test_engine_stateful;
        Alcotest.test_case "comprehension shadowing" `Quick test_comp_shadowing;
        Alcotest.test_case "let-bound closure" `Quick test_let_bound_closure;
        Alcotest.test_case "dead branch" `Quick test_dead_branch_not_evaluated;
        Alcotest.test_case "folded errors" `Quick test_folded_error_still_raises;
        Alcotest.test_case "fn2 shadowing" `Quick test_fn2_shadowing;
        Alcotest.test_case "captured curried closure" `Quick test_captured_curried_closure;
        Alcotest.test_case "constructor errors" `Quick test_constructor_errors;
        qcheck_fold_algebras;
        qcheck_owned_algebras;
        Alcotest.test_case "mixed field order" `Quick test_mixed_field_order;
        Alcotest.test_case "invariant not evaluated" `Quick test_invariant_not_evaluated;
        Alcotest.test_case "invariant shadowed" `Quick test_invariant_shadowed;
        Alcotest.test_case "nested invariant" `Quick test_invariant_nested;
        Alcotest.test_case "closure captures generator" `Quick test_closure_captures_generator;
        Alcotest.test_case "let-bound lambda" `Quick test_let_bound_lambda;
        Alcotest.test_case "invariant raises on second call" `Quick
          test_invariant_raises_second_call;
        Alcotest.test_case "fold call order" `Quick test_fold_call_order;
        qcheck_comp_udfs;
        qcheck_float_trees;
        Alcotest.test_case "float error order" `Quick test_float_error_order;
        Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
        Alcotest.test_case "owned merge in place" `Quick test_owned_merge;
        Alcotest.test_case "float tree allocation" `Quick test_float_tree_allocation;
        Alcotest.test_case "PageRank message allocation" `Quick test_pagerank_message_allocation;
        Alcotest.test_case "k-means assignment allocation" `Quick test_kmeans_assign_allocation
      ] ) ]

