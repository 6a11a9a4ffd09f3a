(* Anti-join extraction: negated exists (and forall via ¬∃¬) compile to
   anti-join combinators and preserve semantics under every execution
   strategy. *)

module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module S = Emma_lang.Surface
module P = Emma_dataflow.Plan
module Normalize = Emma_comp.Normalize
module Translate = Emma_compiler.Translate
module Pipeline = Emma_compiler.Pipeline
open Helpers

let plan_has pred p = P.fold_plan (fun acc n -> acc || pred n) false p
let to_plan ?unnest ?stats e = Translate.to_plan ?unnest ?stats (Normalize.normalize e)

let not_exists_query =
  (* orders with no matching lineitem: a classic NOT EXISTS *)
  S.(
    for_
      [ gen "o" (read "orders");
        when_
          (not_
             (exists
                (lam "l" (fun l -> field l "ok" = field (var "o") "ok"))
                (read "lineitem"))) ]
      ~yield:(var "o"))

let test_not_exists_becomes_anti_join () =
  let stats = Translate.fresh_stats () in
  let p = to_plan ~stats not_exists_query in
  Alcotest.(check bool) "anti_join present" true
    (plan_has (function P.Join { kind = P.Anti; _ } -> true | _ -> false) p);
  Alcotest.(check int) "counted" 1 stats.Translate.anti_joins;
  (* and with unnesting off it stays a broadcast filter *)
  let stats0 = Translate.fresh_stats () in
  let p0 = to_plan ~unnest:false ~stats:stats0 not_exists_query in
  Alcotest.(check bool) "no anti_join without unnesting" false
    (plan_has (function P.Join { kind = P.Anti; _ } -> true | _ -> false) p0);
  Alcotest.(check int) "fallback counted" 1 stats0.Translate.broadcast_filters

let forall_query =
  (* orders where every matching lineitem shipped on time — a forall whose
     inner predicate mixes an equality with a per-lineitem condition *)
  S.(
    for_
      [ gen "o" (read "orders");
        when_
          (forall
             (lam "l" (fun l ->
                  not_ (field l "ok" = field (var "o") "ok")
                  || (field l "ship" <= field l "due")))
             (read "lineitem")) ]
      ~yield:(var "o"))

let test_forall_normalizes_to_not_exists () =
  let n = Normalize.normalize forall_query in
  let has_forall =
    Expr.exists_expr
      (function
        | Expr.Comp { alg = Expr.Alg_fold { f_tag = Expr.Tag_forall; _ }; _ } -> true
        | _ -> false)
      n
  in
  Alcotest.(check bool) "forall eliminated" false has_forall;
  let has_not_exists =
    Expr.exists_expr
      (function
        | Expr.Prim
            (Emma_lang.Prim.Not, [ Expr.Comp { alg = Expr.Alg_fold { f_tag = Expr.Tag_exists; _ }; _ } ])
          ->
            true
        | _ -> false)
      n
  in
  Alcotest.(check bool) "rewritten to ¬∃" true has_not_exists

(* semantics: engine with anti-join = engine without = native *)
let order ok = Value.record [ ("ok", Value.Int ok) ]

let lineitem ok ship due =
  Value.record [ ("ok", Value.Int ok); ("ship", Value.Int ship); ("due", Value.Int due) ]

let run_all prog tables =
  let algo = Emma.parallelize prog in
  let native, _ = Emma.run_native algo ~tables in
  let engine opts =
    let rt =
      Emma.
        { cluster = Emma_engine.Cluster.laptop ();
          profile = Emma_engine.Cluster.spark_like;
          timeout_s = None }
    in
    match Emma.run_on rt (Emma.parallelize ~opts prog) ~tables with
    | Emma.Finished { value; _ } -> value
    | _ -> Alcotest.fail "engine run failed"
  in
  (native, engine Pipeline.default_opts, engine Pipeline.no_opts)

let test_not_exists_semantics () =
  let tables =
    [ ("orders", List.map order [ 1; 2; 3; 4 ]);
      ("lineitem", [ lineitem 1 5 9; lineitem 3 9 5; lineitem 3 1 2 ]) ]
  in
  let prog = S.program ~ret:(S.var "r") [ S.s_let "r" not_exists_query ] in
  let native, with_aj, without = run_all prog tables in
  check_value "anti-join = native" native with_aj;
  check_value "broadcast fallback = native" native without;
  (* orders 2 and 4 have no lineitems *)
  check_value "expected rows" (Value.bag [ order 2; order 4 ]) native

let test_forall_semantics () =
  let tables =
    [ ("orders", List.map order [ 1; 2; 3 ]);
      ("lineitem", [ lineitem 1 5 9; lineitem 3 9 5; lineitem 3 1 2 ]) ]
  in
  let prog = S.program ~ret:(S.var "r") [ S.s_let "r" forall_query ] in
  let native, with_opt, without = run_all prog tables in
  check_value "optimized = native" native with_opt;
  check_value "fallback = native" native without;
  (* order 1: lineitem on time; order 2: vacuous; order 3: one late *)
  check_value "expected rows" (Value.bag [ order 1; order 2 ]) native

let prop_anti_join_agrees =
  Helpers.qcheck_case "anti-join = broadcast filter = native on random tables" ~count:60
    QCheck2.Gen.(pair (list_size (int_bound 12) (int_range 0 6)) (list_size (int_bound 12) (int_range 0 6)))
    (fun (os, ls) ->
      let tables =
        [ ("orders", List.map order os);
          ("lineitem", List.map (fun k -> lineitem k 0 1) ls) ]
      in
      let prog = S.program ~ret:(S.var "r") [ S.s_let "r" not_exists_query ] in
      let native, with_aj, without = run_all prog tables in
      Value.equal native with_aj && Value.equal native without)

let test_repartition_anti_join () =
  (* force the repartition strategy with a tiny broadcast threshold *)
  let cluster =
    { (Emma_engine.Cluster.laptop ()) with
      join_strategy = Emma_engine.Cluster.Force_repartition }
  in
  let tables =
    [ ("orders", List.map order (List.init 30 Fun.id));
      ("lineitem", List.map (fun k -> lineitem (2 * k) 0 1) (List.init 10 Fun.id)) ]
  in
  let prog = S.program ~ret:(S.var "r") [ S.s_let "r" not_exists_query ] in
  let algo = Emma.parallelize prog in
  let native, _ = Emma.run_native algo ~tables in
  match
    Emma.run_on
      Emma.{ cluster; profile = Emma_engine.Cluster.spark_like; timeout_s = None }
      algo ~tables
  with
  | Emma.Finished { value; metrics; _ } ->
      check_value "repartition anti-join agrees" native value;
      Alcotest.(check bool) "shuffled" true (metrics.Emma.Metrics.shuffle_bytes > 0.0)
  | _ -> Alcotest.fail "engine run failed"

let suite =
  [ ( "anti_join",
      [ Alcotest.test_case "not-exists extraction" `Quick test_not_exists_becomes_anti_join;
        Alcotest.test_case "forall normalizes to ¬∃" `Quick test_forall_normalizes_to_not_exists;
        Alcotest.test_case "not-exists semantics" `Quick test_not_exists_semantics;
        Alcotest.test_case "forall semantics" `Quick test_forall_semantics;
        Alcotest.test_case "repartition strategy" `Quick test_repartition_anti_join;
        prop_anti_join_agrees ] ) ]
