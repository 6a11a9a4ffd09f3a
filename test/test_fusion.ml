module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module S = Emma_lang.Surface
module Normalize = Emma_comp.Normalize
module Fusion = Emma_compiler.Fusion
open Helpers

let has_agg_by e = Expr.exists_expr (function Expr.AggBy _ -> true | _ -> false) e
let has_group_by e = Expr.exists_expr (function Expr.GroupBy _ -> true | _ -> false) e

(* for (g <- rows.groupBy(_.b)) yield (g.key, g.values.count()) *)
let group_count_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:(tup [ field (var "g") "key"; count (field (var "g") "values") ]))

let test_count_fuses () =
  let stats = Fusion.fresh_stats () in
  let fused = Fusion.expr ~stats (Normalize.normalize group_count_query) in
  Alcotest.(check bool) "aggBy introduced" true (has_agg_by fused);
  Alcotest.(check bool) "groupBy eliminated" false (has_group_by fused);
  Alcotest.(check int) "one group fused" 1 stats.Fusion.fused_groups;
  Alcotest.(check int) "one fold fused" 1 stats.Fusion.fused_folds

let test_count_fusion_preserves_semantics () =
  let rows = [ Helpers.row 1 0; Helpers.row 2 0; Helpers.row 3 1 ] in
  let tables = [ ("rows", rows) ] in
  let normalized = Normalize.normalize group_count_query in
  assert_equiv ~tables "fused = unfused" normalized (Fusion.expr normalized)

(* the k-means new-centroids pattern: two folds over the same group *)
let kmeans_like_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:
        (let_ "s" (sum (map (lam "x" (fun x -> field x "a")) (field (var "g") "values")))
           (fun s ->
             let_ "c" (count (field (var "g") "values")) (fun c ->
                 record [ ("key", field (var "g") "key"); ("mean", s / c) ]))))

let test_banana_split () =
  let stats = Fusion.fresh_stats () in
  let fused = Fusion.expr ~stats (Normalize.normalize kmeans_like_query) in
  Alcotest.(check bool) "aggBy introduced" true (has_agg_by fused);
  Alcotest.(check int) "two folds fused into one aggBy" 2 stats.Fusion.fused_folds;
  Alcotest.(check int) "one group" 1 stats.Fusion.fused_groups

let test_banana_split_semantics () =
  let rows = [ Helpers.row 4 0; Helpers.row 6 0; Helpers.row 10 1 ] in
  let tables = [ ("rows", rows) ] in
  let normalized = Normalize.normalize kmeans_like_query in
  assert_equiv ~tables "banana-split semantics" normalized (Fusion.expr normalized)

(* guarded fold over group values also fuses *)
let guarded_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:
        (count
           (with_filter (lam "x" (fun x -> field x "a" > int_ 0)) (field (var "g") "values"))))

let test_guarded_fold_fuses () =
  let fused = Fusion.expr (Normalize.normalize guarded_query) in
  Alcotest.(check bool) "guarded fold fuses" true (has_agg_by fused)

let test_guarded_fold_semantics () =
  let rows = [ Helpers.row (-1) 0; Helpers.row 2 0; Helpers.row 3 1 ] in
  let tables = [ ("rows", rows) ] in
  let normalized = Normalize.normalize guarded_query in
  assert_equiv ~tables "guarded fusion semantics" normalized (Fusion.expr normalized)

(* when group values escape (returned whole), fusion must NOT fire *)
let escaping_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:(tup [ field (var "g") "key"; field (var "g") "values" ]))

let test_escaping_values_not_fused () =
  let fused = Fusion.expr (Normalize.normalize escaping_query) in
  Alcotest.(check bool) "no aggBy" false (has_agg_by fused);
  Alcotest.(check bool) "groupBy kept" true (has_group_by fused)

(* mixed: one fold plus a raw use -> not fused *)
let mixed_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:(tup [ count (field (var "g") "values"); distinct (field (var "g") "values") ]))

let test_mixed_not_fused () =
  let fused = Fusion.expr (Normalize.normalize mixed_query) in
  Alcotest.(check bool) "mixed use keeps groupBy" true (has_group_by fused)

(* duplicate folds are deduplicated by banana split *)
let dedup_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:
        (tup
           [ count (field (var "g") "values");
             count (field (var "g") "values") ]))

let test_dedup () =
  let stats = Fusion.fresh_stats () in
  let _ = Fusion.expr ~stats (Normalize.normalize dedup_query) in
  Alcotest.(check int) "identical folds share a slot" 1 stats.Fusion.fused_folds

(* A fold whose union is let-bound — a [let] choosing between two
   lambdas, not a literal curried lambda: the fused union would apply it
   one argument at a time, which evaluation cannot do, so the fold must
   stay unfused, and the engine must agree with native evaluation in
   both UDF modes. *)
let let_union_query =
  S.(
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
      ~yield:
        (tup
           [ field (var "g") "key";
             fold ~empty:(int_ 0)
               ~single:(lam "x" (fun x -> field x "a"))
               ~union:
                 (let_ "w" (var "one" * int_ 1) (fun w ->
                      if_ (w > int_ 0)
                        (lam2 "p" "q" (fun p q -> p + (q * w)))
                        (lam2 "p" "q" (fun p q -> p + q))))
               (field (var "g") "values") ]))

let test_let_union_not_fused () =
  let rows = List.init 40 (fun i -> Helpers.row i (i mod 3)) in
  let tables = [ ("rows", rows) ] in
  let prog =
    S.program ~ret:let_union_query
      [ S.s_let "one" S.(count (read "rows") / count (read "rows")) ]
  in
  let native = Helpers.run_program ~tables prog in
  List.iter
    (fun mode ->
      let config = Emma_engine.Config.(default |> with_udf_mode mode) in
      let r = Emma.run_on_exn ~config (Emma.spark ()) (Emma.parallelize prog) ~tables in
      check_value "engine = native" native r.Emma.value)
    [ Emma_engine.Exec.Interp; Emma_engine.Exec.Compiled ];
  let stats = Fusion.fresh_stats () in
  let _ = Fusion.expr ~stats (Normalize.normalize let_union_query) in
  Alcotest.(check int) "let-bound union not fused" 0 stats.Fusion.fused_folds

let prop_fusion_preserves_semantics =
  Helpers.qcheck_case "fusion preserves semantics on random groupings" ~count:100
    Helpers.rows_gen
    (fun rows ->
      let tables = [ ("rows", rows) ] in
      let q = Normalize.normalize kmeans_like_query in
      (* mean division can hit empty groups only if rows is empty; count>0 in groups *)
      Value.equal (eval_expr ~tables q) (eval_expr ~tables (Fusion.expr q)))

let suite =
  [ ( "fold_group_fusion",
      [ Alcotest.test_case "count fuses to aggBy" `Quick test_count_fuses;
        Alcotest.test_case "count fusion semantics" `Quick test_count_fusion_preserves_semantics;
        Alcotest.test_case "banana split (two folds)" `Quick test_banana_split;
        Alcotest.test_case "banana split semantics" `Quick test_banana_split_semantics;
        Alcotest.test_case "guarded fold fuses" `Quick test_guarded_fold_fuses;
        Alcotest.test_case "guarded fold semantics" `Quick test_guarded_fold_semantics;
        Alcotest.test_case "escaping values not fused" `Quick test_escaping_values_not_fused;
        Alcotest.test_case "mixed use not fused" `Quick test_mixed_not_fused;
        Alcotest.test_case "duplicate folds dedup" `Quick test_dedup;
        Alcotest.test_case "let-bound union stays unfused" `Quick test_let_union_not_fused;
        prop_fusion_preserves_semantics ] ) ]
