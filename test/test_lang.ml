module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module Eval = Emma_lang.Eval
module S = Emma_lang.Surface
open Helpers

let iv = Value.int
let ibag xs = Value.bag (List.map iv xs)

let test_arith () =
  check_value "int arith" (iv 7) (eval_expr S.(int_ 1 + (int_ 2 * int_ 3)));
  check_value "mixed promotes" (Value.float 2.5) (eval_expr S.(float_ 2.0 + (int_ 1 / float_ 2.0)));
  check_value "float div" (Value.float 0.5) (eval_expr S.(float_ 1.0 / float_ 2.0));
  check_value "comparison" (Value.bool true) (eval_expr S.(int_ 1 < int_ 2));
  check_value "if" (iv 10) (eval_expr S.(if_ (bool_ true) (int_ 10) (int_ 20)))

let test_lambda_let () =
  check_value "beta" (iv 9) (eval_expr S.(app (lam "x" (fun x -> x * x)) (int_ 3)));
  check_value "let" (iv 5) (eval_expr S.(let_ "x" (int_ 2) (fun x -> x + int_ 3)));
  (* closures capture their environment *)
  check_value "closure"
    (iv 42)
    (eval_expr
       S.(
         let_ "k" (int_ 40) (fun k ->
             app (lam "x" (fun x -> x + k)) (int_ 2))))

let test_bag_ops () =
  check_value "map" (ibag [ 2; 4; 6 ])
    (eval_expr S.(map (lam "x" (fun x -> x * int_ 2)) (bag_of [ int_ 1; int_ 2; int_ 3 ])));
  check_value "filter" (ibag [ 2; 3 ])
    (eval_expr S.(with_filter (lam "x" (fun x -> x > int_ 1)) (bag_of [ int_ 1; int_ 2; int_ 3 ])));
  check_value "range" (ibag [ 1; 2; 3 ]) (eval_expr S.(range (int_ 1) (int_ 3)));
  check_value "sum" (iv 6) (eval_expr S.(sum (range (int_ 1) (int_ 3))));
  check_value "count" (iv 3) (eval_expr S.(count (range (int_ 1) (int_ 3))));
  check_value "exists" (Value.bool true)
    (eval_expr S.(exists (lam "x" (fun x -> x = int_ 2)) (range (int_ 1) (int_ 3))));
  check_value "min_by" (Value.some (iv 1))
    (eval_expr S.(min_by (lam "x" (fun x -> to_float x)) (range (int_ 1) (int_ 3))));
  check_value "distinct" (ibag [ 1; 2 ])
    (eval_expr S.(distinct (bag_of [ int_ 1; int_ 1; int_ 2 ])));
  check_value "minus" (ibag [ 1 ])
    (eval_expr S.(minus (bag_of [ int_ 1; int_ 1 ]) (bag_of [ int_ 1 ])))

let test_group_by () =
  let groups =
    eval_expr
      S.(group_by (lam "x" (fun x -> x mod int_ 2)) (range (int_ 1) (int_ 4)))
  in
  let gs = Value.to_bag groups in
  Alcotest.(check int) "two groups" 2 (List.length gs);
  let even = List.find (fun g -> Value.equal (Value.field g "key") (iv 0)) gs in
  check_value "group values" (ibag [ 2; 4 ]) (Value.field even "values")

let test_for_desugaring () =
  (* for (x <- xs) yield x*x  ==  xs.map(x => x*x) *)
  let e1 = S.(for_ [ gen "x" (range (int_ 1) (int_ 3)) ] ~yield:(var "x" * var "x")) in
  (match e1 with
  | Expr.Map (Expr.Lam ("x", _), Expr.Range _) -> ()
  | _ -> Alcotest.fail "single-generator for_ should desugar to Map");
  check_value "map result" (ibag [ 1; 4; 9 ]) (eval_expr e1);
  (* two generators + guard: flatMap over withFilter *)
  let e2 =
    S.(
      for_
        [ gen "x" (range (int_ 1) (int_ 3));
          gen "y" (range (int_ 1) (int_ 3));
          when_ (var "x" < var "y") ]
        ~yield:(tup [ var "x"; var "y" ]))
  in
  (match e2 with
  | Expr.FlatMap (Expr.Lam ("x", Expr.Map (_, Expr.Filter _)), _) -> ()
  | _ -> Alcotest.fail "for_ with guard should desugar to flatMap/withFilter/map");
  check_value "join result"
    (Value.bag
       [ Value.tuple [ iv 1; iv 2 ]; Value.tuple [ iv 1; iv 3 ]; Value.tuple [ iv 2; iv 3 ] ])
    (eval_expr e2)

let test_comp_eval () =
  (* Comprehension views evaluate like their desugared counterparts. *)
  let c =
    Expr.Comp
      { head = S.(var "x" + var "y");
        quals =
          [ Expr.QGen ("x", S.(range (int_ 1) (int_ 2)));
            Expr.QGen ("y", S.(range (int_ 10) (int_ 11)));
            Expr.QGuard S.(var "x" = int_ 1) ];
        alg = Expr.Alg_bag }
  in
  check_value "comp" (ibag [ 11; 12 ]) (eval_expr c)

let test_subst_capture () =
  (* subst y := x inside λx.y must rename the binder. *)
  let body = Expr.Lam ("x", Expr.Var "y") in
  let substituted = Expr.subst "y" (Expr.Var "x") body in
  match substituted with
  | Expr.Lam (x', Expr.Var "x") when x' <> "x" -> ()
  | e -> Alcotest.failf "capture! got %s" (Emma_lang.Pretty.expr_to_string e)

(* [[ y | y <- {1, 2} ]]^fold(0, z => z + y, +) — the algebra's [y] is
   the one outside the comprehension, not the generator. *)
let fold_over_gen_y =
  Expr.Comp
    { head = S.var "y";
      quals = [ Expr.QGen ("y", S.(bag_of [ int_ 1; int_ 2 ])) ];
      alg =
        Expr.Alg_fold
          { f_empty = S.int_ 0;
            f_single = S.(lam "z" (fun z -> z + var "y"));
            f_union = S.(lam2 "p" "q" (fun p q -> p + q));
            f_tag = Expr.Tag_generic } }

let test_free_vars_fold_algebra () =
  Alcotest.(check (list string)) "the algebra's y is free" [ "y" ]
    (Emma_util.Strset.elements (Expr.free_vars fold_over_gen_y));
  Alcotest.(check int) "and occurs" 1 (Emma_comp.Normalize.occurrences "y" fold_over_gen_y)

let test_subst_fold_algebra () =
  (* under λy, x := the fold must rename the binder: y = 100 outside
     gives singles 101 and 102; capture would give 2 and 3 *)
  let f = Expr.subst "x" fold_over_gen_y (Expr.Lam ("y", S.var "x")) in
  check_value "no capture by the lambda" (iv 203)
    (eval_expr S.(let_ "y" (int_ 100) (fun _ -> app f (int_ 1))));
  (* a generator rebinding x does not shadow the algebra's x *)
  let rebinds =
    Expr.Comp
      { head = S.var "x";
        quals = [ Expr.QGen ("x", S.(bag_of [ int_ 1; int_ 2 ])) ];
        alg =
          Expr.Alg_fold
            { f_empty = S.int_ 0;
              f_single = S.(lam "z" (fun z -> z + var "x"));
              f_union = S.(lam2 "p" "q" (fun p q -> p + q));
              f_tag = Expr.Tag_generic } }
  in
  check_value "algebra substituted" (iv 17) (eval_expr (Expr.subst "x" (S.int_ 7) rebinds))

let test_beta_reduce () =
  let e = Expr.App (Expr.Lam ("x", S.(var "x" + var "x")), S.int_ 5) in
  check_value "beta_reduce preserves semantics" (eval_expr e) (eval_expr (Expr.beta_reduce e));
  match Expr.beta_reduce e with
  | Expr.Prim _ -> ()
  | e -> Alcotest.failf "expected reduced prim, got %s" (Emma_lang.Pretty.expr_to_string e)

let test_program_driver () =
  (* var/assign/while: sum of 1..5 computed driver-side. *)
  let p =
    S.program
      ~ret:S.(var "acc")
      [ S.s_var "i" (S.int_ 1);
        S.s_var "acc" (S.int_ 0);
        S.while_
          S.(var "i" <= int_ 5)
          [ S.assign "acc" S.(var "acc" + var "i"); S.assign "i" S.(var "i" + int_ 1) ] ]
  in
  check_value "while loop" (iv 15) (run_program p)

let test_program_tables () =
  let p =
    S.program
      ~ret:S.(sum (read "out"))
      [ S.s_let "xs" (S.read "input");
        S.write "out" S.(map (lam "x" (fun x -> x * int_ 10)) (var "xs")) ]
  in
  check_value "read+write" (iv 60) (run_program ~tables:[ ("input", [ iv 1; iv 2; iv 3 ]) ] p)

let test_stateful_in_program () =
  let p =
    S.program
      ~ret:S.(state_bag (var "st"))
      [ S.s_let "st"
          (S.stateful
             ~key:(S.lam "x" (fun x -> S.field x "id"))
             (S.bag_of
                [ S.record [ ("id", S.int_ 1); ("v", S.int_ 0) ];
                  S.record [ ("id", S.int_ 2); ("v", S.int_ 0) ] ]));
        S.s_let "delta"
          (S.update_msgs (S.var "st")
             ~msg_key:(S.lam "m" (fun m -> S.proj m 0))
             ~messages:(S.bag_of [ S.tup [ S.int_ 1; S.int_ 7 ] ])
             (S.lam2 "s" "m" (fun s m ->
                  S.some_ (S.record [ ("id", S.field s "id"); ("v", S.proj m 1) ])))) ]
  in
  let result = run_program p in
  check_value "stateful update visible in state"
    (Value.bag
       [ Value.record [ ("id", iv 1); ("v", iv 7) ];
         Value.record [ ("id", iv 2); ("v", iv 0) ] ])
    result

let prop_for_matches_reference =
  Helpers.qcheck_case "for_ comprehension = nested-loop reference" ~count:60
    QCheck2.Gen.(pair (list_size (int_bound 6) (int_range 0 9)) (list_size (int_bound 6) (int_range 0 9)))
    (fun (xs, ys) ->
      let exp =
        S.(
          for_
            [ gen "x" (bag_of (List.map int_ xs));
              gen "y" (bag_of (List.map int_ ys));
              when_ (var "x" = var "y") ]
            ~yield:(var "x" + var "y"))
      in
      let expected =
        List.concat_map (fun x -> List.filter_map (fun y -> if x = y then Some (x + y) else None) ys) xs
      in
      Value.equal (eval_expr exp) (ibag expected))

let prop_occurrences_free_vars =
  Helpers.qcheck_case "occurrences agrees with free_vars" ~count:60 Helpers.pipeline_gen
    (fun e ->
      let fv = Expr.free_vars e in
      Emma_util.Strset.for_all (fun x -> Emma_comp.Normalize.occurrences x e > 0) fv
      && Emma_comp.Normalize.occurrences "___absent" e = 0)

let suite =
  [ ( "lang",
      [ Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "lambda/let" `Quick test_lambda_let;
        Alcotest.test_case "bag operators" `Quick test_bag_ops;
        Alcotest.test_case "group_by" `Quick test_group_by;
        Alcotest.test_case "for_ desugaring" `Quick test_for_desugaring;
        Alcotest.test_case "comprehension eval" `Quick test_comp_eval;
        Alcotest.test_case "capture-avoiding subst" `Quick test_subst_capture;
        Alcotest.test_case "free_vars of a fold algebra" `Quick test_free_vars_fold_algebra;
        Alcotest.test_case "subst into a fold algebra" `Quick test_subst_fold_algebra;
        Alcotest.test_case "beta_reduce" `Quick test_beta_reduce;
        Alcotest.test_case "driver while-loop" `Quick test_program_driver;
        Alcotest.test_case "driver tables" `Quick test_program_tables;
        Alcotest.test_case "stateful bag in program" `Quick test_stateful_in_program;
        prop_for_matches_reference;
        prop_occurrences_free_vars ] ) ]
