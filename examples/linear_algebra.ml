(* Linear algebra as a library of comprehensions (the paper's §7 direction):
   a sparse matrix is a DataBag of coordinate cells, and matrix product is
   an equi-join followed by a grouped sum — which the Emma compiler turns
   into a repartition join plus a map-side-combining aggBy, with no
   linear-algebra-specific operator anywhere in the stack.

     dune exec examples/linear_algebra.exe *)

module M = Emma_matrix.Matrix
module S = Emma.Surface
module Value = Emma.Value

let dense_mul a b =
  let n = Array.length a and m = Array.length b.(0) and k = Array.length b in
  Array.init n (fun i ->
      Array.init m (fun j ->
          let acc = ref 0.0 in
          for l = 0 to k - 1 do
            acc := !acc +. (a.(i).(l) *. b.(l).(j))
          done;
          !acc))

let () =
  let rng = Emma_util.Prng.create 2024 in
  let n = 12 in
  let rand_dense () =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            if Emma_util.Prng.unit_float rng < 0.6 then 0.0
            else Emma_util.Prng.float rng 4.0 -. 2.0))
  in
  let a = rand_dense () and b = rand_dense () in
  let tables = [ ("a", M.cells_of_dense a); ("b", M.cells_of_dense b) ] in

  (* (A·B + Bᵀ) and its squared Frobenius norm, all as one Emma program *)
  let prog =
    S.program
      ~ret:S.(tup [ var "norm2"; count (var "m") ])
      [ S.s_let "m" (M.add (M.multiply (S.read "a") (S.read "b")) (M.transpose (S.read "b")));
        S.s_let "norm2" (M.frobenius_norm2 (S.var "m"));
        S.write "result" (S.var "m") ]
  in
  let algo = Emma.parallelize prog in

  (* what did the compiler do? *)
  let module P = Emma.Plan in
  let joins = ref 0 and aggs = ref 0 and groups = ref 0 in
  Emma.Cprog.iter_plans
    (fun p ->
      P.fold_plan
        (fun () -> function
          | P.Join { kind = P.Inner; _ } -> incr joins
          | P.Agg_by _ -> incr aggs
          | P.Group_by _ -> incr groups
          | _ -> ())
        () p)
    algo.Emma.compiled;
  Printf.printf "compiled plan: %d equi-join(s), %d fused aggBy(s), %d raw groupBy(s)\n"
    !joins !aggs !groups;

  let native, native_ctx = Emma.run_native algo ~tables in
  Format.printf "‖A·B + Bᵀ‖² (native) = %a@." Value.pp (Value.proj native 0);

  (* dense oracle *)
  let expected =
    let p = dense_mul a b in
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let v = p.(i).(j) +. b.(j).(i) in
        s := !s +. (v *. v)
      done
    done;
    !s
  in
  Printf.printf "‖A·B + Bᵀ‖² (oracle) = %g\n" expected;
  let got = Value.to_float (Value.proj native 0) in
  assert (Float.abs (got -. expected) < 1e-6 *. (1.0 +. expected));

  (* cells written to the sink agree with the dense computation *)
  let cells = Emma.Eval.read_table native_ctx "result" in
  let dense = M.dense_of_cells ~rows:n ~cols:n cells in
  let p = dense_mul a b in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      assert (Float.abs (dense.(i).(j) -. (p.(i).(j) +. b.(j).(i))) < 1e-9)
    done
  done;
  print_endline "sink cells match the dense oracle.";

  (* and on the simulated engine *)
  match
    Emma.run_on (Emma.spark ~cluster:(Emma.Cluster.paper_cluster ()) ()) algo ~tables
  with
  | Emma.Finished { value; metrics; _ } ->
      let engine_norm = Value.to_float (Value.proj value 0) in
      assert (Float.abs (engine_norm -. expected) < 1e-6 *. (1.0 +. expected));
      Printf.printf "engine agrees; %.1f simulated s, %d jobs\n"
        metrics.Emma.Metrics.sim_time_s metrics.Emma.Metrics.jobs
  | _ -> print_endline "engine run failed"
