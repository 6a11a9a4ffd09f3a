module Value = Emma_value.Value
module M = Emma_matrix.Matrix
module S = Emma_lang.Surface
open Helpers

(* dense oracles *)
let dense_mul a b =
  let n = Array.length a and m = Array.length b.(0) and k = Array.length b in
  Array.init n (fun i ->
      Array.init m (fun j ->
          let acc = ref 0.0 in
          for l = 0 to k - 1 do
            acc := !acc +. (a.(i).(l) *. b.(l).(j))
          done;
          !acc))

let dense_close a b =
  Array.for_all2 (fun ra rb -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) ra rb) a b

let rand_dense rng n m =
  Array.init n (fun _ ->
      Array.init m (fun _ ->
          if Emma_util.Prng.bool rng then 0.0 else Emma_util.Prng.float rng 10.0 -. 5.0))

let eval_cells ~tables e = Value.to_bag (eval_expr ~tables e)

let test_roundtrip () =
  let a = [| [| 1.0; 0.0 |]; [| 2.5; -3.0 |] |] in
  let back = M.dense_of_cells ~rows:2 ~cols:2 (M.cells_of_dense a) in
  Alcotest.(check bool) "dense round trip" true (dense_close a back)

let test_scale_transpose () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let tables = [ ("a", M.cells_of_dense a) ] in
  let scaled = M.dense_of_cells ~rows:2 ~cols:2 (eval_cells ~tables (M.scale 2.0 (S.read "a"))) in
  Alcotest.(check bool) "scale" true
    (dense_close scaled [| [| 2.0; 4.0 |]; [| 6.0; 8.0 |] |]);
  let t = M.dense_of_cells ~rows:2 ~cols:2 (eval_cells ~tables (M.transpose (S.read "a"))) in
  Alcotest.(check bool) "transpose" true (dense_close t [| [| 1.0; 3.0 |]; [| 2.0; 4.0 |] |])

let test_add () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let b = [| [| 0.5; 1.0 |]; [| 0.0; -2.0 |] |] in
  let tables = [ ("a", M.cells_of_dense a); ("b", M.cells_of_dense b) ] in
  let s =
    M.dense_of_cells ~rows:2 ~cols:2 (eval_cells ~tables (M.add (S.read "a") (S.read "b")))
  in
  Alcotest.(check bool) "add" true (dense_close s [| [| 1.5; 1.0 |]; [| 0.0; 0.0 |] |])

let test_multiply_small () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let tables = [ ("a", M.cells_of_dense a); ("b", M.cells_of_dense b) ] in
  let p =
    M.dense_of_cells ~rows:2 ~cols:2
      (eval_cells ~tables (M.multiply (S.read "a") (S.read "b")))
  in
  Alcotest.(check bool) "2x2 product" true (dense_close p (dense_mul a b))

let test_matvec () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let x = [| 1.0; -1.0 |] in
  let tables = [ ("a", M.cells_of_dense a); ("x", M.vector_cells x) ] in
  let y =
    M.dense_of_vector_cells ~dim:2 (eval_cells ~tables (M.matvec (S.read "a") (S.read "x")))
  in
  Alcotest.(check (float 1e-9)) "y0" (-1.0) y.(0);
  Alcotest.(check (float 1e-9)) "y1" (-1.0) y.(1)

let test_scalars () =
  let a = [| [| 3.0; 0.0 |]; [| 4.0; 2.0 |] |] in
  let tables = [ ("a", M.cells_of_dense a) ] in
  check_value "frobenius²" (Value.float 29.0) (eval_expr ~tables (M.frobenius_norm2 (S.read "a")));
  check_value "trace" (Value.float 5.0) (eval_expr ~tables (M.trace (S.read "a")))

let test_multiply_compiles_to_join_and_aggby () =
  let prog = S.program ~ret:S.unit_ [ S.s_let "r" (M.multiply (S.read "a") (S.read "b")); S.write "out" (S.var "r") ] in
  let algo = Emma.parallelize prog in
  let module P = Emma_dataflow.Plan in
  let has pred =
    let found = ref false in
    Emma.Cprog.iter_plans
      (fun p -> P.fold_plan (fun () n -> if pred n then found := true) () p)
      algo.Emma.compiled;
    !found
  in
  Alcotest.(check bool) "matmul uses an eq-join" true
    (has (function P.Join { kind = P.Inner; _ } -> true | _ -> false));
  Alcotest.(check bool) "matmul's sum is fused into aggBy" true
    (has (function P.Agg_by _ -> true | _ -> false));
  Alcotest.(check bool) "no groupBy survives" false
    (has (function P.Group_by _ -> true | _ -> false))

let prop_multiply_matches_dense =
  Helpers.qcheck_case "matrix product = dense oracle (native and engine)" ~count:25
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 4) (int_range 1 4))
    (fun (n, k, m) ->
      let rng = Emma_util.Prng.create ((n * 100) + (k * 10) + m) in
      let a = rand_dense rng n k and b = rand_dense rng k m in
      let tables = [ ("a", M.cells_of_dense a); ("b", M.cells_of_dense b) ] in
      let prog =
        S.program ~ret:(S.var "r") [ S.s_let "r" (M.multiply (S.read "a") (S.read "b")) ]
      in
      let algo = Emma.parallelize prog in
      let native, _ = Emma.run_native algo ~tables in
      let oracle = dense_mul a b in
      let native_ok =
        dense_close (M.dense_of_cells ~rows:n ~cols:m (Value.to_bag native)) oracle
      in
      let engine_ok =
        match
          Emma.run_on
            Emma.
              { cluster = Emma_engine.Cluster.laptop ();
                profile = Emma_engine.Cluster.spark_like;
                timeout_s = None }
            algo ~tables
        with
        | Emma.Finished { value; _ } ->
            dense_close (M.dense_of_cells ~rows:n ~cols:m (Value.to_bag value)) oracle
        | _ -> false
      in
      native_ok && engine_ok)

let prop_transpose_involution =
  Helpers.qcheck_case "transpose is an involution" ~count:30
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 5))
    (fun (n, m) ->
      let rng = Emma_util.Prng.create ((n * 10) + m) in
      let a = rand_dense rng n m in
      let tables = [ ("a", M.cells_of_dense a) ] in
      let tt = eval_cells ~tables (M.transpose (M.transpose (S.read "a"))) in
      dense_close (M.dense_of_cells ~rows:n ~cols:m tt) a)

let suite =
  [ ( "matrix",
      [ Alcotest.test_case "dense round trip" `Quick test_roundtrip;
        Alcotest.test_case "scale + transpose" `Quick test_scale_transpose;
        Alcotest.test_case "add" `Quick test_add;
        Alcotest.test_case "multiply 2x2" `Quick test_multiply_small;
        Alcotest.test_case "matvec" `Quick test_matvec;
        Alcotest.test_case "scalar folds" `Quick test_scalars;
        Alcotest.test_case "matmul compiles to join+aggBy" `Quick
          test_multiply_compiles_to_join_and_aggby;
        prop_multiply_matches_dense;
        prop_transpose_involution ] ) ]
