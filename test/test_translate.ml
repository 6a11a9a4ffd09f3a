module Expr = Emma_lang.Expr
module S = Emma_lang.Surface
module P = Emma_dataflow.Plan
module Normalize = Emma_comp.Normalize
module Translate = Emma_compiler.Translate
module Pipeline = Emma_compiler.Pipeline

let plan_has pred p = P.fold_plan (fun acc n -> acc || pred n) false p

let plans_have pred cprog =
  let found = ref false in
  Emma_dataflow.Cprog.iter_plans (fun p -> if plan_has pred p then found := true) cprog;
  !found

let to_plan ?unnest e = Translate.to_plan ?unnest (Normalize.normalize e)

let test_filter_pushdown () =
  let e =
    S.(for_ [ gen "x" (read "t"); when_ (field (var "x") "a" > int_ 0) ] ~yield:(var "x"))
  in
  match to_plan e with
  | P.Filter (_, P.Read "t") -> ()
  | p -> Alcotest.failf "expected filter over read, got:@.%s" (P.to_string p)

let test_map_over_filter () =
  let e =
    S.(
      for_
        [ gen "x" (read "t"); when_ (field (var "x") "a" > int_ 0) ]
        ~yield:(S.field (var "x") "a"))
  in
  match to_plan e with
  | P.Map (_, P.Filter (_, P.Read "t")) -> ()
  | p -> Alcotest.failf "expected map(filter(read)), got:@.%s" (P.to_string p)

let test_eq_join () =
  let e =
    S.(
      for_
        [ gen "x" (read "t1");
          gen "y" (read "t2");
          when_ (field (var "x") "k" = field (var "y") "k") ]
        ~yield:(tup [ var "x"; var "y" ]))
  in
  let p = to_plan e in
  Alcotest.(check bool) "has eq_join" true
    (plan_has (function P.Join { kind = P.Inner; _ } -> true | _ -> false) p);
  Alcotest.(check bool) "no cross" false (plan_has (function P.Cross _ -> true | _ -> false) p)

let test_cross () =
  let e =
    S.(for_ [ gen "x" (read "t1"); gen "y" (read "t2") ] ~yield:(tup [ var "x"; var "y" ]))
  in
  let p = to_plan e in
  Alcotest.(check bool) "has cross" true (plan_has (function P.Cross _ -> true | _ -> false) p)

let test_semi_join_from_exists () =
  (* the paper's blacklist example (§4.2.1) *)
  let e =
    S.(
      for_
        [ gen "e" (read "emails");
          when_
            (exists
               (lam "b" (fun b -> field b "ip" = field (var "e") "ip"))
               (read "blacklist")) ]
        ~yield:(var "e"))
  in
  (match to_plan e with
  | P.Join { kind = P.Semi; left = P.Read "emails"; right = P.Read "blacklist"; _ } -> ()
  | p -> Alcotest.failf "expected semi_join, got:@.%s" (P.to_string p));
  (* with unnesting disabled the exists stays a broadcast filter *)
  let stats = Translate.fresh_stats () in
  let p = Translate.to_plan ~unnest:false ~stats (Normalize.normalize e) in
  Alcotest.(check bool) "no semi_join without unnesting" false
    (plan_has (function P.Join { kind = P.Semi; _ } -> true | _ -> false) p);
  Alcotest.(check int) "counted as broadcast filter" 1 stats.Translate.broadcast_filters

let test_semi_join_with_extra_conjuncts () =
  (* TPC-H Q4 shape: exists with an equality and a y-only conjunct *)
  let e =
    S.(
      for_
        [ gen "o" (read "orders");
          when_
            (exists
               (lam "li" (fun li ->
                    (field li "orderKey" = field (var "o") "orderKey")
                    && (field li "commitDate" < field li "receiptDate")))
               (read "lineitem")) ]
        ~yield:(field (var "o") "orderPriority"))
  in
  let p = to_plan e in
  (* the y-only conjunct must be pushed as a filter under the semijoin's
     right input *)
  let ok =
    plan_has
      (function
        | P.Join { kind = P.Semi; right = P.Filter (_, P.Read "lineitem"); _ } -> true
        | _ -> false)
      p
  in
  Alcotest.(check bool) "semi_join with prefiltered right input" true ok

let test_dependent_generator_flatmap () =
  (* y ranges over a bag inside x: must become a flatMap UDF *)
  let e =
    S.(
      for_
        [ gen "x" (read "t"); gen "y" (field (var "x") "items") ]
        ~yield:(var "y"))
  in
  let p = to_plan e in
  Alcotest.(check bool) "has flat_map" true
    (plan_has (function P.Flat_map _ -> true | _ -> false) p)

let test_fold_plan () =
  let e = S.(sum (map (lam "x" (fun x -> field x "a")) (read "t"))) in
  match to_plan e with
  | P.Fold (_, P.Map (_, P.Read "t")) -> ()
  | P.Fold (_, P.Read "t") -> ()
  | p -> Alcotest.failf "expected fold plan, got:@.%s" (P.to_string p)

let test_broadcast_annotation () =
  (* a UDF referencing a driver variable gets a broadcast annotation *)
  let e = S.(map (lam "x" (fun x -> vdist x (var "c"))) (read "t")) in
  let p = P.annotate_broadcasts ~bound:Emma_util.Strset.empty (to_plan e) in
  let bcs = P.broadcast_vars p in
  Alcotest.(check (list string)) "captured driver var" [ "c" ] bcs

(* --- full pipeline on a program --------------------------------------- *)

let spamlike_program =
  (* simplified Listing 5 shape: loop over classifiers, exists filter *)
  S.program
    ~ret:(S.var "best")
    [ S.s_let "emails" S.(map (lam "e" (fun e -> e)) (read "emails_raw"));
      S.s_let "blacklist" (S.read "blacklist_raw");
      S.s_var "i" (S.int_ 0);
      S.s_var "best" (S.int_ (-1));
      S.while_
        S.(var "i" < int_ 3)
        [ S.s_let "bad"
            S.(
              for_
                [ gen "e" (var "emails");
                  when_ (field (var "e") "score" > var "i");
                  when_
                    (exists
                       (lam "b" (fun b -> field b "ip" = field (var "e") "ip"))
                       (var "blacklist")) ]
                ~yield:(var "e"));
          S.s_let "cnt" S.(count (var "bad"));
          S.s_if S.(var "cnt" > var "best") [ S.assign "best" (S.var "cnt") ] [];
          S.assign "i" S.(var "i" + int_ 1) ] ]

let test_pipeline_spamlike () =
  let cprog, report = Pipeline.compile spamlike_program in
  Alcotest.(check bool) "unnesting applied" true (Pipeline.applied_unnesting report);
  Alcotest.(check bool) "caching applied" true (Pipeline.applied_caching report);
  Alcotest.(check bool) "partition pulling applied" true
    (Pipeline.applied_partition_pulling report);
  Alcotest.(check bool) "no fusion (no groupBy)" false (Pipeline.applied_group_fusion report);
  (* emails and blacklist are loop-invariant and used in the loop: cached *)
  Alcotest.(check bool) "emails cached" true (List.mem "emails" report.Pipeline.cached_vars);
  Alcotest.(check bool) "blacklist cached" true
    (List.mem "blacklist" report.Pipeline.cached_vars);
  (* and the cached plans carry an enforced partitioning on ip *)
  Alcotest.(check bool) "partition enforced at producer" true
    (plans_have (function P.Partition_by _ -> true | _ -> false) cprog)

let test_pipeline_group_query () =
  let prog =
    S.program
      ~ret:S.unit_
      [ S.s_let "r"
          S.(
            for_
              [ gen "g" (group_by (lam "x" (fun x -> field x "key")) (read "data")) ]
              ~yield:
                (record
                   [ ("key", field (var "g") "key");
                     ("min",
                      min_by (lam "v" (fun v -> to_float v))
                        (map (lam "x" (fun x -> field x "value")) (field (var "g") "values")))
                   ]));
        S.write "out" (S.var "r") ]
  in
  let _, report = Pipeline.compile prog in
  Alcotest.(check bool) "fusion applied" true (Pipeline.applied_group_fusion report);
  Alcotest.(check bool) "no caching (no reuse)" false (Pipeline.applied_caching report)

(* --- the matmul and triangle shapes of the parallel corpus -------------- *)

let test_matmul_shape () =
  let cprog, _ =
    Pipeline.compile
      (S.program ~ret:S.unit_ [ S.s_let "r" Helpers.matmul_shape; S.write "out" (S.var "r") ])
  in
  Alcotest.(check bool) "matmul uses an eq-join" true
    (plans_have (function P.Join { kind = P.Inner; _ } -> true | _ -> false) cprog);
  Alcotest.(check bool) "matmul's sum is fused into aggBy" true
    (plans_have (function P.Agg_by _ -> true | _ -> false) cprog);
  Alcotest.(check bool) "no groupBy survives" false
    (plans_have (function P.Group_by _ -> true | _ -> false) cprog)

let test_triangle_shape () =
  (* the exists compares a field of each outer generator, so it can only
     unnest after join extraction, as a semi-join on a composite key *)
  let _, report = Pipeline.compile (S.program ~ret:(S.count Helpers.triangle_shape) []) in
  let stats = report.Pipeline.translation in
  Alcotest.(check int) "one eq-join" 1 stats.Translate.eq_joins;
  Alcotest.(check int) "one semi-join (composite key, post-join)" 1 stats.Translate.semi_joins;
  Alcotest.(check int) "no broadcast-filter fallback" 0 stats.Translate.broadcast_filters

let suite =
  [ ( "translate",
      [ Alcotest.test_case "filter pushdown" `Quick test_filter_pushdown;
        Alcotest.test_case "map over filter" `Quick test_map_over_filter;
        Alcotest.test_case "eq join" `Quick test_eq_join;
        Alcotest.test_case "cross" `Quick test_cross;
        Alcotest.test_case "semi join from exists" `Quick test_semi_join_from_exists;
        Alcotest.test_case "semi join with conjuncts" `Quick test_semi_join_with_extra_conjuncts;
        Alcotest.test_case "dependent generator flatmap" `Quick test_dependent_generator_flatmap;
        Alcotest.test_case "fold plan" `Quick test_fold_plan;
        Alcotest.test_case "broadcast annotation" `Quick test_broadcast_annotation;
        Alcotest.test_case "pipeline: spam-like program" `Quick test_pipeline_spamlike;
        Alcotest.test_case "pipeline: group query" `Quick test_pipeline_group_query;
        Alcotest.test_case "matmul: join + aggBy, no groupBy" `Quick test_matmul_shape;
        Alcotest.test_case "triangles: join + composite semi-join" `Quick test_triangle_shape
      ] ) ]
