module Value = Emma_value.Value
module Prim = Emma_lang.Prim

let i = Value.int
let f = Value.float
let b = Value.bool
let s = Value.string
let apply = Prim.apply

let check = Helpers.check_value

let test_arith () =
  check "add int" (i 5) (apply Prim.Add [ i 2; i 3 ]);
  check "add mixed" (f 5.5) (apply Prim.Add [ i 2; f 3.5 ]);
  check "sub" (i (-1)) (apply Prim.Sub [ i 2; i 3 ]);
  check "mul" (i 6) (apply Prim.Mul [ i 2; i 3 ]);
  check "div int" (i 2) (apply Prim.Div [ i 7; i 3 ]);
  check "div float" (f 3.5) (apply Prim.Div [ f 7.0; f 2.0 ]);
  check "mod" (i 1) (apply Prim.Mod [ i 7; i 3 ]);
  check "neg int" (i (-2)) (apply Prim.Neg [ i 2 ]);
  check "neg float" (f (-2.5)) (apply Prim.Neg [ f 2.5 ]);
  check "abs" (i 4) (apply Prim.Abs [ i (-4) ]);
  check "sqrt" (f 3.0) (apply Prim.Sqrt [ f 9.0 ]);
  check "floor" (f 2.0) (apply Prim.Floor [ f 2.9 ]);
  check "to_float" (f 2.0) (apply Prim.To_float [ i 2 ]);
  check "to_int truncates" (i 2) (apply Prim.To_int [ f 2.9 ]);
  check "min2" (i 1) (apply Prim.Min2 [ i 1; i 2 ]);
  check "max2" (i 2) (apply Prim.Max2 [ i 1; i 2 ])

let test_arith_errors () =
  let expect_error name fn =
    match fn () with
    | exception Value.Type_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Type_error" name
  in
  expect_error "div by zero" (fun () -> apply Prim.Div [ i 1; i 0 ]);
  expect_error "mod by zero" (fun () -> apply Prim.Mod [ i 1; i 0 ]);
  expect_error "add strings" (fun () -> apply Prim.Add [ s "a"; s "b" ]);
  expect_error "neg bool" (fun () -> apply Prim.Neg [ b true ])

let test_comparisons () =
  check "eq" (b true) (apply Prim.Eq [ i 1; i 1 ]);
  check "eq across shapes" (b false) (apply Prim.Eq [ i 1; f 1.0 ]);
  check "ne" (b true) (apply Prim.Ne [ i 1; i 2 ]);
  check "lt" (b true) (apply Prim.Lt [ i 1; i 2 ]);
  check "le" (b true) (apply Prim.Le [ i 2; i 2 ]);
  check "gt strings" (b true) (apply Prim.Gt [ s "b"; s "a" ]);
  check "ge" (b false) (apply Prim.Ge [ i 1; i 2 ])

let test_bool () =
  check "and" (b false) (apply Prim.And [ b true; b false ]);
  check "or" (b true) (apply Prim.Or [ b true; b false ]);
  check "not" (b false) (apply Prim.Not [ b true ])

let test_strings () =
  check "concat" (s "ab") (apply Prim.Str_concat [ s "a"; s "b" ]);
  check "len" (i 3) (apply Prim.Str_len [ s "abc" ]);
  check "contains yes" (b true) (apply Prim.Str_contains [ s "hello"; s "ell" ]);
  check "contains no" (b false) (apply Prim.Str_contains [ s "hello"; s "xyz" ]);
  check "contains empty" (b true) (apply Prim.Str_contains [ s "hello"; s "" ])

(* [str_contains] through the interpreter and the staged compiler, the
   haystack bound at run time so neither folds it at compile time. *)
let test_str_contains_modes () =
  let module Expr = Emma_lang.Expr in
  let module Eval = Emma_lang.Eval in
  let contains hay needle =
    Expr.App
      ( Expr.Lam ("h", Expr.Prim (Prim.Str_contains, [ Expr.Var "h"; Expr.Const (s needle) ])),
        Expr.Const (s hay) )
  in
  let ctx = Eval.create_ctx () in
  let big = String.init 4096 (fun k -> Char.chr (97 + (k * 7 mod 23))) in
  List.iter
    (fun (name, hay, needle, expected) ->
      let e = contains hay needle in
      check (name ^ " (interp)") (b expected) (Eval.eval_value ctx Eval.empty_env e);
      check (name ^ " (compiled)") (b expected) (Emma_lang.Compile.value ctx Eval.empty_env e))
    [ ("needle longer than haystack", "abc", "abcd", false);
      ("match at the last offset", "hello world", "world", true);
      ("last offset, last char differs", "hello world", "worle", false);
      ("4 KB haystack, match at the end", big ^ "needle", "needle", true);
      ("4 KB haystack, match in the middle", big, String.sub big 2000 17, true);
      ("4 KB haystack, no match", big, "zzz", false);
      ("empty needle in empty haystack", "", "", true) ]

let test_vectors () =
  let v a = Value.vector a in
  check "vadd" (v [| 4.0; 6.0 |]) (apply Prim.Vadd [ v [| 1.0; 2.0 |]; v [| 3.0; 4.0 |] ]);
  check "vsub" (v [| 2.0; 2.0 |]) (apply Prim.Vsub [ v [| 3.0; 4.0 |]; v [| 1.0; 2.0 |] ]);
  check "vscale" (v [| 2.0; 4.0 |]) (apply Prim.Vscale [ f 2.0; v [| 1.0; 2.0 |] ]);
  check "vdiv" (v [| 1.0; 2.0 |]) (apply Prim.Vdiv_scalar [ v [| 2.0; 4.0 |]; f 2.0 ]);
  check "vdot" (f 11.0) (apply Prim.Vdot [ v [| 1.0; 2.0 |]; v [| 3.0; 4.0 |] ]);
  check "vdist" (f 5.0) (apply Prim.Vdist [ v [| 0.0; 0.0 |]; v [| 3.0; 4.0 |] ]);
  check "vzeros" (v [| 0.0; 0.0; 0.0 |]) (apply Prim.Vzeros [ i 3 ])

let test_options () =
  check "some" (Value.some (i 1)) (apply Prim.Mk_some [ i 1 ]);
  check "none" Value.none (apply Prim.Mk_none []);
  check "is_some" (b true) (apply Prim.Is_some [ Value.some (i 1) ]);
  check "is_some none" (b false) (apply Prim.Is_some [ Value.none ]);
  check "opt_get" (i 1) (apply Prim.Opt_get [ Value.some (i 1) ]);
  check "get_or default" (i 9) (apply Prim.Opt_get_or [ Value.none; i 9 ]);
  check "get_or present" (i 1) (apply Prim.Opt_get_or [ Value.some (i 1); i 9 ]);
  match apply Prim.Opt_get [ Value.none ] with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "opt_get None should raise"

let test_blobs () =
  check "mk_blob" (Value.blob ~bytes:100 ~tag:7) (apply Prim.Mk_blob [ i 100; i 7 ]);
  check "blob_bytes" (i 100) (apply Prim.Blob_bytes [ Value.blob ~bytes:100 ~tag:7 ])

let test_arity_checked () =
  match apply Prim.Add [ i 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch should raise"

let test_name_roundtrip () =
  List.iter
    (fun p ->
      match Prim.of_name (Prim.name p) with
      | Some p' when p = p' -> ()
      | _ -> Alcotest.failf "of_name (name %s) failed" (Prim.name p))
    [ Prim.Add; Prim.Vdist; Prim.Mk_blob; Prim.Str_contains; Prim.Hash_value; Prim.Opt_get ]

let prop_min2_commutative =
  Helpers.qcheck_case "min2/max2 commutative and idempotent" ~count:100
    QCheck2.Gen.(pair small_int small_int)
    (fun (x, y) ->
      Value.equal (apply Prim.Min2 [ i x; i y ]) (apply Prim.Min2 [ i y; i x ])
      && Value.equal (apply Prim.Max2 [ i x; i y ]) (apply Prim.Max2 [ i y; i x ])
      && Value.equal (apply Prim.Min2 [ i x; i x ]) (i x))

let prop_hash_stable =
  Helpers.qcheck_case "hash prim = Value.hash" ~count:50 QCheck2.Gen.small_int (fun x ->
      Value.equal (apply Prim.Hash_value [ i x ]) (i (Value.hash (i x))))

let suite =
  [ ( "prim",
      [ Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "arithmetic errors" `Quick test_arith_errors;
        Alcotest.test_case "comparisons" `Quick test_comparisons;
        Alcotest.test_case "booleans" `Quick test_bool;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "str_contains in both UDF modes" `Quick test_str_contains_modes;
        Alcotest.test_case "vectors" `Quick test_vectors;
        Alcotest.test_case "options" `Quick test_options;
        Alcotest.test_case "blobs" `Quick test_blobs;
        Alcotest.test_case "arity checked" `Quick test_arity_checked;
        Alcotest.test_case "name round trip" `Quick test_name_roundtrip;
        prop_min2_commutative;
        prop_hash_stable ] ) ]
