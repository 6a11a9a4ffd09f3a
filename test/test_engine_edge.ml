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

(* Allocation guards for the keyed operators, read from the stage spans'
   host-only [minor_words] on a one-domain pool over the paper cluster's
   320 partitions. An operator's own words are its span's minus those of
   the stage spans nested directly in it (its inputs); neither counts
   what the tracer allocates. The second of two runs is measured, after
   the first has filled every lazily built structure. *)
let own_words ~op prog tables =
  let module T = Emma.Trace in
  let pool = Emma_util.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Emma_util.Pool.shutdown pool)
    (fun () ->
      let rt = Emma.spark ~cluster:(Emma_engine.Cluster.paper_cluster ()) () in
      let algo = Emma.parallelize prog in
      let run trace =
        let config = Emma.Config.(default |> with_pool (Some pool) |> with_trace (Some trace)) in
        ignore (Emma.run_on_exn ~config rt algo ~tables)
      in
      run (T.create ());
      let tracer = T.create () in
      run tracer;
      let words e =
        match List.assoc_opt "minor_words" e.T.ev_args with
        | Some (T.A_float w) -> w
        | _ -> Alcotest.failf "%s: stage span without minor_words" e.T.ev_name
      in
      (* a stack of (name, words of the inputs ended so far) *)
      let own = ref [] and stack = ref [] in
      List.iter
        (fun e ->
          if e.T.ev_cat = "stage" && e.T.ev_name <> "barrier" then
            match (e.T.ev_ph, !stack) with
            | T.B, _ -> stack := (e.T.ev_name, ref 0.0) :: !stack
            | T.E, (name, inputs) :: rest ->
                let w = words e in
                if name = op then own := (w -. !inputs) :: !own;
                (match rest with (_, up) :: _ -> up := !up +. w | [] -> ());
                stack := rest
            | _ -> ())
        (T.events tracer);
      match !own with
      | [] -> Alcotest.failf "no %s stage" op
      | ws -> List.fold_left ( +. ) 0.0 ws)

(* A fused aggBy of 300 rows over 3 keys: the combine side folds each of
   the ~300 partitions that hold a row, the reduce side only the 3 that
   receive a key; 14.6k words in all, bounded here with a 5% margin. Each
   task folds its partitions in one reused table, an accumulator is
   updated in place, and the shuffle conses each pair once. A table and
   a closure per partition, a new accumulator tuple per row and a second
   cons-and-reverse pass in the shuffle took 42.6k; a 64-bucket table
   (70 words) in every partition on both sides, with a [ref] and a
   [Some] per hit, took 72.8k. *)
let test_agg_by_allocation () =
  let prog =
    S.program
      ~ret:
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "t")) ]
            ~yield:
              (tup
                 [ field (var "g") "key";
                   sum (map (lam "x" (fun x -> field x "a")) (field (var "g") "values")) ]))
      []
  in
  let w = own_words ~op:"aggBy" prog [ ("t", List.init 300 (fun i -> Helpers.row i (i mod 3))) ] in
  Printf.printf "aggBy over 320 partitions, 300 rows, 3 keys: %.0f words\n" w;
  Alcotest.(check bool) (Printf.sprintf "aggBy allocates %.0f <= 15300 words" w) true (w <= 15300.0)

(* Words per row of a fused three-component aggBy (an int sum, a count
   and a float sum), at the margin: the aggBy's own words over 6400 rows
   less those over 3200, per added row. Each partition of the 320 holds
   rows of one key, so every added row is a combine [merge] into an
   accumulator that its table cell owns: 17 words, the key UDF's frame
   (2), the step's (3) and the boxed results (12). Building a new
   accumulator tuple per row took 23. *)
let test_agg_by_words_per_row () =
  let prog =
    S.program
      ~ret:
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "t")) ]
            ~yield:
              (let values = field (var "g") "values" in
               tup
                 [ field (var "g") "key";
                   sum (map (lam "x" (fun x -> field x "a")) values);
                   count values;
                   sum (map (lam "x" (fun x -> to_float (field x "a"))) values) ]))
      []
  in
  let words n =
    own_words ~op:"aggBy" prog [ ("t", List.init n (fun i -> Helpers.row i (i mod 4))) ]
  in
  let per_row = (words 6400 -. words 3200) /. 3200.0 in
  Printf.printf "fused three-component aggBy: %.2f words per added row\n" per_row;
  Alcotest.(check bool)
    (Printf.sprintf "aggBy allocates %.2f <= 17 words per added row" per_row)
    true (per_row <= 17.0)

(* Point updates whose messages are all filtered away: every one of the
   320 message partitions is empty, so no partition builds a changed-key
   table. What is left (1.4k words, 4.4 per partition) is a word per
   partition in each array of the barrier and of the routing of the empty
   bag; even an empty table's 4-word header per partition would add 1.3k.
   A 16-bucket changed set per partition and the closure probing it took
   12.3k. *)
let test_empty_changed_sets () =
  let prog =
    S.program
      ~ret:S.(count (var "delta"))
      [ S.s_let "st" (S.stateful ~key:(S.lam "x" (fun x -> S.field x "a")) (S.read "t"));
        S.s_let "delta"
          (S.update_msgs (S.var "st")
             ~msg_key:(S.lam "m" (fun m -> S.proj m 0))
             ~messages:
               S.(
                 for_
                   [ gen "c" (state_bag (var "st")); when_ (field (var "c") "b" < int_ 0) ]
                   ~yield:(tup [ field (var "c") "a"; field (var "c") "b" ]))
             (S.lam2 "s" "m" (fun s _ -> S.some_ s))) ]
  in
  let w =
    own_words ~op:"statefulUpdateMsgs" prog
      [ ("t", List.init 300 (fun i -> Helpers.row i (i mod 3))) ]
  in
  Printf.printf "statefulUpdateMsgs over 320 empty message partitions: %.0f words\n" w;
  Alcotest.(check bool)
    (Printf.sprintf "statefulUpdateMsgs allocates %.0f <= 2000 words" w)
    true (w <= 2000.0)

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
        Alcotest.test_case "stateful read snapshot" `Quick test_stateful_read_snapshot;
        Alcotest.test_case "aggBy allocation over 320 partitions" `Quick test_agg_by_allocation;
        Alcotest.test_case "aggBy words per row" `Quick test_agg_by_words_per_row;
        Alcotest.test_case "no changed set on empty message partitions" `Quick
          test_empty_changed_sets ] )
  ]
