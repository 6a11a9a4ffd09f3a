(* Engine edge cases: empty inputs, empty groups, degenerate programs,
   scoping corners, error reporting. *)

module Value = Emma_value.Value
module S = Emma_lang.Surface
module Pipeline = Emma_compiler.Pipeline
open Helpers

let run ?(opts = Pipeline.default_opts) prog tables =
  let algo = Emma.parallelize ~opts prog in
  let rt =
    Emma.
      { cluster = Emma_engine.Cluster.laptop ();
        profile = Emma_engine.Cluster.spark_like;
        timeout_s = None }
  in
  Emma.run_on rt algo ~tables

let run_value ?opts prog tables =
  match run ?opts prog tables with
  | Emma.Finished { value; _ } -> value
  | Emma.Failed { reason; _ } -> Alcotest.failf "engine failed: %s" reason
  | Emma.Timed_out _ -> Alcotest.fail "timed out"
  | Emma.Cancelled _ -> Alcotest.fail "cancelled"

let test_empty_table () =
  let prog =
    S.program
      ~ret:
        S.(
          tup
            [ count (read "t");
              sum (map (lam "x" (fun x -> field x "a")) (read "t"));
              count (group_by (lam "x" (fun x -> field x "b")) (read "t"));
              count (distinct (read "t"))
            ])
      []
  in
  check_value "all folds on empty input"
    (Value.tuple [ Value.int 0; Value.int 0; Value.int 0; Value.int 0 ])
    (run_value prog [ ("t", []) ])

let test_empty_join_sides () =
  let join a b =
    S.(
      count
        (for_
           [ gen "x" (read a);
             gen "y" (read b);
             when_ (field (var "x") "a" = field (var "y") "a") ]
           ~yield:(var "x")))
  in
  let prog = S.program ~ret:S.(tup [ join "t" "e"; join "e" "t"; join "e" "e" ]) [] in
  check_value "joins with empty sides"
    (Value.tuple [ Value.int 0; Value.int 0; Value.int 0 ])
    (run_value prog [ ("t", [ Helpers.row 1 1 ]); ("e", []) ])

let test_zero_iteration_loop () =
  let prog =
    S.program ~ret:(S.var "acc")
      [ S.s_var "acc" (S.int_ 7);
        S.s_var "i" (S.int_ 5);
        S.while_
          S.(var "i" < int_ 3)
          [ S.assign "acc" S.(var "acc" + count (read "t")) ] ]
  in
  check_value "loop body never runs" (Value.int 7) (run_value prog [ ("t", [ Value.int 1 ]) ])

let test_unknown_table_is_failure () =
  let prog = S.program ~ret:S.(count (read "nope")) [] in
  match run prog [] with
  | Emma.Failed { reason; _ } ->
      Alcotest.(check bool) "mentions the table" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "expected a clean engine failure"

let test_shadowing_in_branches () =
  (* a val re-defined inside a branch must not leak out *)
  let prog =
    S.program ~ret:(S.var "x")
      [ S.s_var "x" (S.int_ 1);
        S.s_if (S.bool_ true)
          [ S.s_let "x" (S.int_ 99); S.s_var "unused" (S.var "x") ]
          [];
        S.assign "x" S.(var "x" + int_ 1) ]
  in
  check_value "branch scope" (Value.int 2) (run_value prog [])

let test_distinct_of_records () =
  let rows = [ Helpers.row 1 2; Helpers.row 1 2; Helpers.row 3 4 ] in
  check_value "distinct over records"
    (Value.int 2)
    (run_value (S.program ~ret:S.(count (distinct (read "t"))) []) [ ("t", rows) ])

let test_minus_on_engine () =
  let prog = S.program ~ret:S.(minus (read "a") (read "b")) [] in
  let a = [ Value.int 1; Value.int 1; Value.int 2 ] and b = [ Value.int 1 ] in
  check_value "multiset minus"
    (Value.bag [ Value.int 1; Value.int 2 ])
    (run_value prog [ ("a", a); ("b", b) ])

let test_group_of_single_key () =
  (* all rows in one group: one output record with all values nested *)
  let rows = List.init 9 (fun i -> Helpers.row i 0) in
  let prog =
    S.program
      ~ret:
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "t")) ]
            ~yield:(count (field (var "g") "values")))
      []
  in
  check_value "single group" (Value.bag [ Value.int 9 ]) (run_value prog [ ("t", rows) ])

let test_nested_loops () =
  let prog =
    S.program ~ret:(S.var "acc")
      [ S.s_var "acc" (S.int_ 0);
        S.s_var "i" (S.int_ 0);
        S.while_
          S.(var "i" < int_ 3)
          [ S.s_var "j" (S.int_ 0);
            S.while_
              S.(var "j" < int_ 2)
              [ S.assign "acc" S.(var "acc" + count (read "t"));
                S.assign "j" S.(var "j" + int_ 1) ];
            S.assign "i" S.(var "i" + int_ 1) ] ]
  in
  check_value "nested loops" (Value.int 18) (run_value prog [ ("t", [ Value.int 0; Value.int 1; Value.int 2 ]) ])

let test_write_overwrites () =
  let prog =
    S.program
      [ S.write "out" (S.read "t");
        S.write "out" S.(map (lam "x" (fun x -> x + int_ 1)) (read "t")) ]
  in
  let algo = Emma.parallelize prog in
  let rt =
    Emma.
      { cluster = Emma_engine.Cluster.laptop ();
        profile = Emma_engine.Cluster.spark_like;
        timeout_s = None }
  in
  match Emma.run_on rt algo ~tables:[ ("t", [ Value.int 1 ]) ] with
  | Emma.Finished { ctx; _ } ->
      check_bag "last write wins" [ Value.int 2 ] (Emma.Eval.read_table ctx "out")
  | _ -> Alcotest.fail "run failed"

let test_pagerank_epsilon_variant () =
  let cfg = Emma_workloads.Graph_gen.default ~n_vertices:25 in
  let vertices = Emma_workloads.Graph_gen.undirected_adjacency ~seed:4 cfg in
  let params = Emma_programs.Pagerank.default_params ~n_pages:25 in
  let prog = Emma_programs.Pagerank.program_with_epsilon ~epsilon:1e-8 params in
  let algo = Emma.parallelize prog in
  let native, _ = Emma.run_native algo ~tables:[ ("vertices", vertices) ] in
  (* converged ranks ≈ fixed-iteration oracle run long enough *)
  let oracle =
    Emma_programs.Pagerank.reference ~params:{ params with iterations = 80 } ~vertices
  in
  let table rows =
    rows
    |> List.map (fun r ->
           (Value.to_int (Value.field r "id"), Value.to_float (Value.field r "rank")))
    |> List.sort compare
  in
  let a = table (Value.to_bag native) and b = table oracle in
  List.iter2
    (fun (i, r1) (j, r2) ->
      Alcotest.(check int) "id" i j;
      Alcotest.(check bool) "converged rank close" true (Float.abs (r1 -. r2) < 1e-5))
    a b;
  (* and the engine agrees with native *)
  let v = run_value prog [ ("vertices", vertices) ] in
  let c = table (Value.to_bag v) in
  List.iter2
    (fun (i, r1) (j, r2) ->
      Alcotest.(check int) "id" i j;
      Alcotest.(check bool) "engine close" true (Float.abs (r1 -. r2) < 1e-9))
    a c

let test_stateful_read_snapshot () =
  (* binding bag() then mutating the state: the binding must keep the
     snapshot, exactly as the native evaluator binds eagerly *)
  let prog =
    S.program
      ~ret:S.(tup [ count (with_filter (lam "c" (fun c -> field c "v" > int_ 0)) (var "before"));
                    count (with_filter (lam "c" (fun c -> field c "v" > int_ 0))
                             (state_bag (var "st"))) ])
      [ S.s_let "st"
          (S.stateful ~key:(S.lam "x" (fun x -> S.field x "id")) (S.read "cells"));
        S.s_let "before" (S.state_bag (S.var "st"));
        S.s_let "_d"
          (S.update (S.var "st")
             (S.lam "c" (fun c ->
                  S.some_ (S.record [ ("id", S.field c "id"); ("v", S.int_ 1) ])))) ]
  in
  let cells =
    [ Value.record [ ("id", Value.int 1); ("v", Value.int 0) ];
      Value.record [ ("id", Value.int 2); ("v", Value.int 0) ] ]
  in
  let tables = [ ("cells", cells) ] in
  let algo = Emma.parallelize prog in
  let native, _ = Emma.run_native algo ~tables in
  check_value "native snapshot semantics" (Value.tuple [ Value.int 0; Value.int 2 ]) native;
  check_value "engine matches native snapshot" native (run_value prog tables)

let test_execution_trace () =
  let module T = Emma.Trace in
  let prog =
    S.program
      ~ret:S.(count (with_filter (lam "x" (fun x -> field x "a" > int_ 0)) (read "t")))
      []
  in
  let tracer = T.create () in
  let config = Emma.Config.with_trace (Some tracer) Emma.Config.default in
  let tables = [ ("t", List.init 10 (fun i -> Helpers.row (i - 5) 0)) ] in
  ignore (Emma.run_on_exn ~config (Emma.spark ()) (Emma.parallelize prog) ~tables);
  let stages ph =
    List.filter
      (fun e -> e.T.ev_cat = "stage" && e.T.ev_name <> "barrier" && e.T.ev_ph = ph)
      (T.events tracer)
  in
  let float_arg k e =
    match List.assoc_opt k e.T.ev_args with Some (T.A_float f) -> f | _ -> nan
  in
  Alcotest.(check (list string)) "operator order (span start)"
    [ "fold"; "filter"; "read" ]
    (List.map (fun e -> e.T.ev_name) (stages T.B));
  let clocks = List.map (float_arg "sim_s") (stages T.B) in
  Alcotest.(check bool) "sim_s never decreases" true
    (clocks = List.sort Float.compare clocks);
  (* ends come innermost first: read, then filter *)
  Alcotest.(check (list (float 1e-9))) "read and filter outputs" [ 10.0; 4.0 ]
    (List.map (float_arg "out_records")
       (List.filter (fun e -> e.T.ev_name <> "fold") (stages T.E)))

let suite =
  [ ( "engine_edge",
      [ Alcotest.test_case "empty table folds" `Quick test_empty_table;
        Alcotest.test_case "empty join sides" `Quick test_empty_join_sides;
        Alcotest.test_case "zero-iteration loop" `Quick test_zero_iteration_loop;
        Alcotest.test_case "unknown table" `Quick test_unknown_table_is_failure;
        Alcotest.test_case "branch scoping" `Quick test_shadowing_in_branches;
        Alcotest.test_case "distinct of records" `Quick test_distinct_of_records;
        Alcotest.test_case "multiset minus" `Quick test_minus_on_engine;
        Alcotest.test_case "single-key group" `Quick test_group_of_single_key;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "write overwrites" `Quick test_write_overwrites;
        Alcotest.test_case "pagerank epsilon variant" `Quick test_pagerank_epsilon_variant;
        Alcotest.test_case "execution trace" `Quick test_execution_trace;
        Alcotest.test_case "stateful read snapshot" `Quick test_stateful_read_snapshot ] )
  ]
