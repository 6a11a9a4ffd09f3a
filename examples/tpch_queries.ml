(* TPC-H Q1 and Q4 written declaratively in Emma (Listings 8 and 9),
   validated against hand-written reference implementations, with the
   optimizer's work (fold-group fusion for Q1, exists-unnesting into a
   semi-join for Q4) made visible.

     dune exec examples/tpch_queries.exe *)

module W = Emma_workloads
module Pr = Emma_programs
module Value = Emma.Value

let () =
  let cfg = W.Tpch_gen.of_scale_factor 0.001 in
  let lineitem = W.Tpch_gen.lineitem ~seed:31 cfg in
  let orders = W.Tpch_gen.orders ~seed:31 cfg in
  Format.printf "generated %d lineitems, %d orders@.@." (List.length lineitem)
    (List.length orders);

  (* ---- Q1 ---- *)
  let q1 = Emma.parallelize (Pr.Tpch_q1.program Pr.Tpch_q1.default_params) in
  Format.printf "Q1: fold-group fusion collapsed %d folds into %d aggBy@."
    q1.Emma.report.Emma.Pipeline.fusion.Emma_compiler.Fusion.fused_folds
    q1.Emma.report.Emma.Pipeline.fusion.Emma_compiler.Fusion.fused_groups;
  let native, _ = Emma.run_native q1 ~tables:[ ("lineitem", lineitem) ] in
  List.iter
    (fun row ->
      Format.printf "  %s/%s: qty=%.0f price=%.0f count=%d@."
        (Value.to_string_exn (Value.field row "returnFlag"))
        (Value.to_string_exn (Value.field row "lineStatus"))
        (Value.to_float (Value.field row "sumQty"))
        (Value.to_float (Value.field row "sumBasePrice"))
        (Value.to_int (Value.field row "countOrder")))
    (List.sort Value.compare (Value.to_bag native));
  let reference = Emma_tpch.Reference.q1 lineitem in
  Format.printf "  reference groups: %d (match: %b)@.@." (List.length reference)
    (List.length reference = List.length (Value.to_bag native));

  (* ---- Q4 ---- *)
  let q4 = Emma.parallelize (Pr.Tpch_q4.program Pr.Tpch_q4.default_params) in
  Format.printf "Q4: exists unnested into %d semi-join(s)@."
    q4.Emma.report.Emma.Pipeline.translation.Emma_compiler.Translate.semi_joins;
  let native4, _ =
    Emma.run_native q4 ~tables:[ ("lineitem", lineitem); ("orders", orders) ]
  in
  let reference4 = Emma_tpch.Reference.q4 ~orders ~lineitem in
  List.iter
    (fun row ->
      Format.printf "  %-16s %d orders@."
        (Value.to_string_exn (Value.field row "orderPriority"))
        (Value.to_int (Value.field row "orderCount")))
    (List.sort Value.compare (Value.to_bag native4));
  assert (Value.equal (Value.bag (Value.to_bag native4)) (Value.bag reference4));
  print_endline "  reference implementation agrees.";

  (* ---- engine run at logical SF 10 ---- *)
  let rt =
    Emma.spark ~cluster:(Emma.Cluster.paper_cluster ~data_scale:10_000.0 ()) ~timeout_s:3600.0 ()
  in
  match Emma.run_on rt q4 ~tables:[ ("lineitem", lineitem); ("orders", orders) ] with
  | Emma.Finished { metrics; _ } ->
      Format.printf "Q4 on simulated cluster (logical SF 10): %.0f s, %s shuffled@."
        metrics.Emma.Metrics.sim_time_s
        (Printf.sprintf "%.1f GB" (metrics.Emma.Metrics.shuffle_bytes /. 1e9))
  | _ -> failwith "engine run failed"
