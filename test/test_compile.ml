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
module Engine = Emma_engine.Exec
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
open Helpers

(* ---------------------------------------------------------------- *)
(* Outcome classification: a compiled run must either produce the    *)
(* same value or raise the same classified error as the oracle.      *)
(* ---------------------------------------------------------------- *)

type outcome = Val of Value.t | Err of string

let classify f =
  match f () with
  | v -> Val v
  | exception Eval.Eval_error m -> Err ("Eval_error: " ^ m)
  | exception Value.Type_error m -> Err ("Type_error: " ^ m)
  | exception Invalid_argument m -> Err ("Invalid_argument: " ^ m)

let outcome_testable : outcome Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | Val v -> Format.fprintf fmt "Val %a" Value.pp v
      | Err m -> Format.fprintf fmt "Err %s" m)
    (fun a b ->
      match (a, b) with
      | Val x, Val y -> Value.equal x y
      | Err x, Err y -> String.equal x y
      | _ -> false)

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

(* every cost-model field (wall_time_s / par_* describe the host run) *)
let cost_sig (m : Metrics.t) =
  ( ( m.Metrics.sim_time_s,
      m.Metrics.shuffle_bytes,
      m.Metrics.broadcast_bytes,
      m.Metrics.dfs_read_bytes,
      m.Metrics.dfs_write_bytes,
      m.Metrics.collect_bytes,
      m.Metrics.parallelize_bytes ),
    ( m.Metrics.spilled_bytes,
      m.Metrics.jobs,
      m.Metrics.stages,
      m.Metrics.recomputes,
      m.Metrics.cache_hits,
      m.Metrics.cache_losses,
      m.Metrics.udf_invocations ) )

let run_mode ?pool mode prog tables =
  let config = Config.(default |> with_pool pool |> with_udf_mode mode) in
  let r = Emma.run_on_exn ~config (Emma.spark ()) (Emma.parallelize prog) ~tables in
  (r.Emma.value, cost_sig r.Emma.metrics)

let check_engine_parity ?pool msg prog tables =
  let vi, mi = run_mode ?pool Engine.Interp prog tables in
  let vc, mc = run_mode ?pool Engine.Compiled prog tables in
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
      let vi, mi = run_mode Engine.Interp prog (rows_tables rows) in
      let vc, mc = run_mode Engine.Compiled prog (rows_tables rows) in
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
            let vi, mi = run_mode ~pool Engine.Interp prog tables in
            let vc, mc = run_mode ~pool Engine.Compiled prog tables in
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

(* Allocation guard: minor-heap words per call of two staged functions,
   measured on the calling domain. The bounds sit a little above what the
   staged code allocates: 5 words for the field access (its one-slot
   environment) and 65 for Q1's fused step (its environment, the boxed
   float results and the new accumulator), where [union acc (single v)]
   takes 79. A reintroduced per-access closure or intermediate tuple fails
   here, not only in the benchmark. *)
let minor_words_per_call f =
  let calls = 2000 in
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_allocation_guard () =
  let ctx = ctx_with [] in
  let wide =
    Value.record
      (List.init 11 (fun i -> (Printf.sprintf "g%d" i, Value.Int i)) @ [ ("f", Value.Int 42) ])
  in
  let get_f = Compile.fn ctx Eval.empty_env ~param:"x" (S.field (S.var "x") "f") in
  check_value "x.f" (Value.Int 42) (get_f wide);
  let field_words = minor_words_per_call (fun () -> get_f wide) in
  (* Q1's fused aggBy algebra, as fold-group fusion emits it *)
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
      f_union =
        S.lam2 "a" "b" (fun a b -> S.tup (List.init 6 (fun i -> S.(proj a i + proj b i))));
      f_tag = Expr.Tag_generic }
  in
  let alg = Compile.fold_fns ctx Eval.empty_env q1 in
  let line =
    Value.record
      [ ("orderKey", Value.Int 7); ("quantity", Value.Float 17.0);
        ("extendedPrice", Value.Float 2104.5); ("discount", Value.Float 0.04);
        ("tax", Value.Float 0.02); ("returnFlag", Value.String "N");
        ("lineStatus", Value.String "O"); ("shipDate", Value.Int 9000) ]
  in
  let acc = alg.Compile.step alg.Compile.empty line in
  check_value "step = union acc (single v)"
    (alg.Compile.union acc (alg.Compile.single line))
    (alg.Compile.step acc line);
  let step_words = minor_words_per_call (fun () -> alg.Compile.step acc line) in
  Printf.printf "allocation guard: x.f %.1f words/call, Q1 step %.1f words/call\n"
    field_words step_words;
  Alcotest.(check bool)
    (Printf.sprintf "x.f allocates %.1f <= 6 words per call" field_words)
    true (field_words <= 6.0);
  Alcotest.(check bool)
    (Printf.sprintf "Q1 step allocates %.1f <= 70 words per call" step_words)
    true (step_words <= 70.0)

let suite =
  [ ( "compile_differential",
      [ qcheck_value_parity;
        qcheck_engine_parity;
        Alcotest.test_case "1/2/4-domain invariance" `Quick test_domain_invariance;
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
        Alcotest.test_case "mixed field order" `Quick test_mixed_field_order;
        Alcotest.test_case "allocation guard" `Quick test_allocation_guard
      ] ) ]
