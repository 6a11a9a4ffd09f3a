(* Golden-file tests for `emma explain`.

   The explain text is a deterministic function of (program, opts): the
   compile runs under Expr.with_fresh_reset, so generated names do not
   depend on whatever else the process compiled first. These tests pin the
   rendering for four registry programs against committed golden files.

   Regenerate after an intentional compiler/renderer change with

     EMMA_UPDATE_GOLDEN=1 dune runtest

   which rewrites the files in test/golden/ (in the source tree) and
   fails nothing (see [Helpers.check_golden]). *)

module Explain = Emma_compiler.Explain
module Pipeline = Emma_compiler.Pipeline
module Pr = Emma_programs

let cases =
  [ ("q1", Pr.Tpch_q1.program Pr.Tpch_q1.default_params);
    ("q3", Pr.Tpch_q3.program Pr.Tpch_q3.default_params);
    ("kmeans", Pr.Kmeans.program Pr.Kmeans.default_params);
    ("spam", Pr.Spam_workflow.program Pr.Spam_workflow.default_params) ]

let golden_test name prog () =
  Helpers.check_golden ~what:("explain " ^ name)
    (Printf.sprintf "explain_%s.txt" name)
    (Explain.to_string (Explain.run prog))

(* The rendering must not depend on process history: compiling other
   programs in between (which advances the global fresh-name counter)
   must not change the text. *)
let test_explain_stable () =
  let prog = Pr.Kmeans.program Pr.Kmeans.default_params in
  let first = Explain.to_string (Explain.run prog) in
  List.iter (fun (_, p) -> ignore (Emma.parallelize p)) cases;
  let second = Explain.to_string (Explain.run prog) in
  Alcotest.(check string) "explain is history-independent" first second

(* Every explain carries the udf-compile analysis phase: always enabled,
   never changing the plans (no-op), and reporting the staged-UDF counts
   the engine will compile at run time. *)
let test_explain_udf_compile_phase () =
  let prog = Pr.Tpch_q1.program Pr.Tpch_q1.default_params in
  let t = Explain.run prog in
  let ph =
    match
      List.find_opt (fun o -> o.Pipeline.ph_name = "udf-compile") t.Explain.phases
    with
    | Some ph -> ph
    | None -> Alcotest.fail "explain has no udf-compile phase"
  in
  Alcotest.(check bool) "udf-compile enabled" true ph.Pipeline.ph_enabled;
  Alcotest.(check bool) "udf-compile is analysis-only" false ph.Pipeline.ph_changed;
  Alcotest.(check int) "udf-compile preserves node count" ph.Pipeline.ph_before
    ph.Pipeline.ph_after;
  let has k = List.mem_assoc k ph.Pipeline.ph_detail in
  Alcotest.(check bool) "reports udf count" true (has "udfs");
  Alcotest.(check bool) "reports fold algebras" true (has "fold algebras");
  Alcotest.(check bool) "reports closed udfs" true (has "closed");
  (* Q1 is a map/filter/aggBy pipeline: it must stage at least one UDF and
     one fold algebra. *)
  let n k = int_of_string (List.assoc k ph.Pipeline.ph_detail) in
  Alcotest.(check bool) "q1 stages udfs" true (n "udfs" > 0);
  Alcotest.(check bool) "q1 stages a fold algebra" true (n "fold algebras" > 0)

(* Disabled optimizations show up as "off" phases and "not applied". *)
let test_explain_opts () =
  let prog = Pr.Tpch_q1.program Pr.Tpch_q1.default_params in
  let opts = { Pipeline.default_opts with Pipeline.fuse = false } in
  let t = Explain.run ~opts prog in
  let fusion =
    List.find (fun o -> o.Pipeline.ph_name = "fusion") t.Explain.phases
  in
  Alcotest.(check bool) "fusion phase disabled" false fusion.Pipeline.ph_enabled;
  let s = Explain.to_string t in
  Alcotest.(check bool) "report says fusion not applied" true
    (Helpers.contains s "fold-group fusion   not applied")

let suite =
  [ ( "explain_golden",
      List.map
        (fun (name, prog) ->
          Alcotest.test_case ("golden: " ^ name) `Quick (golden_test name prog))
        cases
      @ [ Alcotest.test_case "history-independent" `Quick test_explain_stable;
          Alcotest.test_case "udf-compile phase" `Quick test_explain_udf_compile_phase;
          Alcotest.test_case "disabled opts rendered" `Quick test_explain_opts ] ) ]
