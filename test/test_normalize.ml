module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module S = Emma_lang.Surface
module Resugar = Emma_comp.Resugar
module Normalize = Emma_comp.Normalize
open Helpers

(* --- resugaring shapes ------------------------------------------------ *)

let test_resugar_map () =
  let e = S.(map (lam "x" (fun x -> x + int_ 1)) (read "t")) in
  match Resugar.expr e with
  | Expr.Comp { head = _; quals = [ Expr.QGen ("x", Expr.Read _) ]; alg = Expr.Alg_bag } -> ()
  | e -> Alcotest.failf "map did not resugar: %s" (Emma_lang.Pretty.expr_to_string e)

let test_resugar_fold () =
  let e = S.(sum (read "t")) in
  match Resugar.expr e with
  | Expr.Comp { quals = [ Expr.QGen (_, Expr.Read _) ]; alg = Expr.Alg_fold fns; _ } ->
      Alcotest.(check bool) "sum tag" true (fns.Expr.f_tag = Expr.Tag_sum)
  | e -> Alcotest.failf "fold did not resugar: %s" (Emma_lang.Pretty.expr_to_string e)

let test_resugar_filter () =
  let e = S.(with_filter (lam "x" (fun x -> x > int_ 0)) (read "t")) in
  match Resugar.expr e with
  | Expr.Comp { head = Expr.Var x; quals = [ Expr.QGen (x', _); Expr.QGuard _ ]; _ }
    when x = x' ->
      ()
  | e -> Alcotest.failf "filter did not resugar: %s" (Emma_lang.Pretty.expr_to_string e)

(* --- the paper's running example -------------------------------------- *)

(* distances = ctrds.flatMap(x => newCtrds.withFilter(y => x.id == y.id)
                                          .map(y => dist(x, y)))
   must normalize to
   [[ dist(x,y) | x <- ctrds, y <- newCtrds, x.id == y.id ]] *)
let test_paper_distances_example () =
  let desugared =
    S.(
      flat_map
        (lam "x" (fun x ->
             map
               (lam "y" (fun y -> vdist (field x "pos") (field y "pos")))
               (with_filter (lam "y" (fun y -> field x "id" = field y "id")) (var "newCtrds"))))
        (var "ctrds"))
  in
  let normalized = Normalize.normalize desugared in
  (match normalized with
  | Expr.Comp
      { head = Expr.Prim (Emma_lang.Prim.Vdist, _);
        quals =
          [ Expr.QGen (_, Expr.Var "ctrds");
            Expr.QGen (_, Expr.Var "newCtrds");
            Expr.QGuard (Expr.Prim (Emma_lang.Prim.Eq, _)) ];
        alg = Expr.Alg_bag } ->
      ()
  | e ->
      Alcotest.failf "unexpected normal form:@.%s" (Emma_lang.Pretty.expr_to_string e));
  (* and the sum over it becomes a single fold comprehension *)
  let summed = Normalize.normalize (S.sum desugared) in
  match summed with
  | Expr.Comp { quals = [ _; _; _ ]; alg = Expr.Alg_fold fns; _ } ->
      Alcotest.(check bool) "sum algebra" true (fns.Expr.f_tag = Expr.Tag_sum)
  | e -> Alcotest.failf "sum did not fuse: %s" (Emma_lang.Pretty.expr_to_string e)

let test_exists_canonicalized () =
  (* blacklist example: the exists guard must survive normalization in
     canonical form (identity single), ready for semi-join extraction. *)
  let e =
    S.(
      for_
        [ gen "e" (read "emails");
          when_ (exists (lam "b" (fun b -> field b "ip" = field (var "e") "ip")) (read "bl")) ]
        ~yield:(var "e"))
  in
  match Normalize.normalize e with
  | Expr.Comp { quals = [ Expr.QGen (_, _); Expr.QGuard (Expr.Comp inner) ]; _ } -> begin
      match inner.Expr.alg with
      | Expr.Alg_fold fns ->
          Alcotest.(check bool) "exists tag" true (fns.Expr.f_tag = Expr.Tag_exists);
          (match fns.Expr.f_single with
          | Expr.Lam (x, Expr.Var y) when x = y -> ()
          | _ -> Alcotest.fail "exists single not canonicalized to identity");
          (* the head must now be the applied predicate *)
          (match inner.Expr.head with
          | Expr.Prim (Emma_lang.Prim.Eq, _) -> ()
          | e -> Alcotest.failf "head is not the predicate: %s" (Emma_lang.Pretty.expr_to_string e))
      | Expr.Alg_bag -> Alcotest.fail "inner algebra should be a fold"
    end
  | e -> Alcotest.failf "unexpected normal form: %s" (Emma_lang.Pretty.expr_to_string e)

let test_guard_splitting () =
  let e =
    S.(
      for_
        [ gen "x" (read "t"); when_ ((var "x" > int_ 0) && (var "x" < int_ 10)) ]
        ~yield:(var "x"))
  in
  match Normalize.normalize e with
  | Expr.Comp { quals = [ Expr.QGen _; Expr.QGuard g1; Expr.QGuard g2 ]; _ } ->
      (match (g1, g2) with
      | Expr.Prim (Emma_lang.Prim.Gt, _), Expr.Prim (Emma_lang.Prim.Lt, _) -> ()
      | _ -> Alcotest.fail "guards not split in order")
  | e -> Alcotest.failf "unexpected: %s" (Emma_lang.Pretty.expr_to_string e)

let test_inline_lets () =
  let e =
    Expr.Let ("tmp", S.(int_ 1 + int_ 2), S.(Expr.Var "tmp" * int_ 10))
  in
  (match Normalize.inline_lets e with
  | Expr.Let _ -> Alcotest.fail "single-use let not inlined"
  | _ -> ());
  (* multi-use expensive RHS is kept *)
  let e2 = Expr.Let ("t", S.(sum (read "x")), S.(Expr.Var "t" + Expr.Var "t")) in
  match Normalize.inline_lets e2 with
  | Expr.Let _ -> ()
  | _ -> Alcotest.fail "multi-use let should not be inlined"

(* Unnesting a generator must leave the outer fold algebra alone: it runs
   outside the comprehension, so its [x] is the lambda's, not the
   generator's.
   x => [[ x | x <- [[ y + 1 | y <- {1, 2} ]] ]]^fold(0, z => z + x, +)
   applied to 100 is (2 + 100) + (3 + 100). *)
let test_unnest_keeps_outer_algebra () =
  let inner =
    Expr.Comp
      { head = S.(var "y" + int_ 1);
        quals = [ Expr.QGen ("y", S.bag_of [ S.int_ 1; S.int_ 2 ]) ];
        alg = Expr.Alg_bag }
  in
  let fold =
    Expr.Comp
      { head = Expr.Var "x";
        quals = [ Expr.QGen ("x", inner) ];
        alg =
          Expr.Alg_fold
            { f_empty = S.int_ 0;
              f_single = S.lam "z" (fun z -> S.(z + var "x"));
              f_union = S.lam2 "a" "b" S.( + );
              f_tag = Expr.Tag_generic } }
  in
  let e = S.app (Expr.Lam ("x", fold)) (S.int_ 100) in
  let normalized = Normalize.normalize e in
  check_value "native" (Value.Int 205) (eval_expr e);
  check_value "normalized" (Value.Int 205) (eval_expr normalized);
  check_value "normalized and compiled" (Value.Int 205)
    (Emma_lang.Compile.value (ctx_with []) Emma_lang.Eval.empty_env normalized)

(* --- semantic preservation (the big property) -------------------------- *)

let tables_of rows = [ ("rows", rows) ]

let prop_normalize_preserves_semantics =
  Helpers.qcheck_case "normalize preserves semantics on random pipelines" ~count:150
    QCheck2.Gen.(pair Helpers.rows_gen Helpers.terminated_pipeline_gen)
    (fun (rows, e) ->
      let v1 = eval_expr ~tables:(tables_of rows) e in
      let v2 = eval_expr ~tables:(tables_of rows) (Normalize.normalize e) in
      Value.equal v1 v2)

let prop_inline_preserves_semantics =
  Helpers.qcheck_case "inline_lets preserves semantics" ~count:80
    QCheck2.Gen.(pair Helpers.rows_gen Helpers.pipeline_gen)
    (fun (rows, e) ->
      let wrapped = Expr.Let ("t", e, S.(count (Expr.Var "t"))) in
      Value.equal
        (eval_expr ~tables:(tables_of rows) wrapped)
        (eval_expr ~tables:(tables_of rows) (Normalize.inline_lets wrapped)))

(* Structural invariants of normal forms: after normalization no sugar
   survives — every map/flatMap/withFilter/fold chain has been absorbed
   into a comprehension and every flatten eliminated. *)
let normal_form_ok e =
  not
    (Expr.exists_expr
       (function
         | Expr.Map _ | Expr.FlatMap _ | Expr.Filter _ | Expr.Fold _ | Expr.Flatten _ -> true
         | _ -> false)
       e)

let prop_normal_form_is_comprehended =
  Helpers.qcheck_case "normal forms contain no uncomprehended operators" ~count:120
    Helpers.terminated_pipeline_gen
    (fun e -> normal_form_ok (Normalize.normalize e))

let test_paper_programs_normal_form () =
  List.iter
    (fun (name, prog) ->
      let normalized = Emma_compiler.Pipeline.normalized prog in
      Expr.iter_program_exprs
        (fun e ->
          if not (normal_form_ok e) then
            Alcotest.failf "%s: uncomprehended operator survives normalization" name)
        normalized)
    [ ("kmeans", Emma_programs.Kmeans.(program default_params));
      ("pagerank", Emma_programs.Pagerank.(program (default_params ~n_pages:10)));
      ("cc", Emma_programs.Connected_components.(program default_params));
      ("spam", Emma_programs.Spam_workflow.(program default_params));
      ("q1", Emma_programs.Tpch_q1.(program default_params));
      ("q3", Emma_programs.Tpch_q3.(program default_params));
      ("q4", Emma_programs.Tpch_q4.(program default_params)) ]

let prop_normalize_idempotent_semantics =
  Helpers.qcheck_case "normalize is semantically idempotent" ~count:60
    QCheck2.Gen.(pair Helpers.rows_gen Helpers.terminated_pipeline_gen)
    (fun (rows, e) ->
      let tables = [ ("rows", rows) ] in
      let n1 = Normalize.normalize e in
      let n2 = Normalize.normalize_expr n1 in
      Value.equal (eval_expr ~tables n1) (eval_expr ~tables n2))

let suite =
  [ ( "normalize",
      [ Alcotest.test_case "resugar map" `Quick test_resugar_map;
        Alcotest.test_case "resugar fold" `Quick test_resugar_fold;
        Alcotest.test_case "resugar filter" `Quick test_resugar_filter;
        Alcotest.test_case "paper distances example" `Quick test_paper_distances_example;
        Alcotest.test_case "exists canonicalization" `Quick test_exists_canonicalized;
        Alcotest.test_case "guard splitting" `Quick test_guard_splitting;
        Alcotest.test_case "let inlining" `Quick test_inline_lets;
        Alcotest.test_case "unnesting keeps the outer fold algebra" `Quick
          test_unnest_keeps_outer_algebra;
        prop_normalize_preserves_semantics;
        prop_inline_preserves_semantics;
        prop_normal_form_is_comprehended;
        Alcotest.test_case "paper programs normalize fully" `Quick
          test_paper_programs_normal_form;
        prop_normalize_idempotent_semantics ] ) ]
