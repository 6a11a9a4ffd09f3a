(* E11 (extension): memory governance under shrinking budgets.

   Three sweeps over Emma_engine.Memman:

   - spill sweep: TPC-H Q3 (a three-way join whose repartitioned build
     sides dominate the memory peak) with spilling enabled, at budgets
     from unbounded down to a fraction of the peak. Results must be
     bit-identical at every budget — shrinking the budget may only add
     spill I/O, so sim time is monotone non-decreasing as the budget
     shrinks (the --report JSON carries the sweep in this order).

   - degradation without spilling: the same query OOM-kills overflowing
     attempts and retries at halved parallelism while the node can still
     hold the state, and fails cleanly once it cannot — the graceful
     end of the degradation ladder.

   - cache + admission pressure: iterative k-means with the cached
     points bag squeezed out of the cache budget and job admissions
     gated to one in flight: recomputes and queue-wait climb, results
     stay identical. *)

open Exp_common
module W = Emma_workloads
module Pr = Emma_programs

let q3_tables () =
  let cfg = W.Tpch_gen.of_scale_factor 0.001 in
  ( [ ("lineitem", W.Tpch_gen.lineitem ~seed:3 cfg);
      ("orders", W.Tpch_gen.orders ~seed:3 cfg);
      ("customer", W.Tpch_gen.customer ~seed:3 cfg) ],
    1.0e5 )

let kmeans_tables () =
  let cfg = W.Points_gen.default ~n_points:4_000 ~k:3 in
  ( [ ("points", W.Points_gen.points ~seed:2 cfg);
      ("centroids0", W.Points_gen.initial_centroids ~seed:2 cfg) ],
    1.0e5 )

let opts = Pipeline.default_opts

let budget_label = function
  | None -> "unbounded"
  | Some b when b < 1e6 -> Printf.sprintf "%.0f KB" (b /. 1e3)
  | Some b -> Printf.sprintf "%.0f MB" (b /. 1e6)

let governed ~spill mem_budget = Config.(default |> with_mem_budget mem_budget |> with_spill spill)

let spill_sweep prog tables data_scale =
  let baseline = ref None in
  List.map
    (fun mem_budget ->
      match
        run_config ~config:(governed ~spill:true mem_budget)
          ~rt:(rt ~profile:spark ~data_scale ()) ~opts prog tables
      with
      | Time (s, m) ->
          let base_s =
            match !baseline with
            | Some b -> b
            | None ->
                baseline := Some s;
                s
          in
          [ budget_label mem_budget;
            Printf.sprintf "%.0f s" s;
            Printf.sprintf "+%.1f%%" ((s -. base_s) /. base_s *. 100.0);
            Printf.sprintf "%.1f MB" (m.Metrics.mem_peak_bytes /. 1e6);
            string_of_int m.Metrics.mem_spills;
            Printf.sprintf "%.2f GB" (m.Metrics.mem_spill_bytes /. 1e9) ]
      | Fail reason -> [ budget_label mem_budget; "FAIL: " ^ reason ]
      | Timeout _ -> [ budget_label mem_budget; "timeout" ])
    [ None; Some 128e6; Some 64e6; Some 32e6; Some 8e6; Some 1e6 ]

let oom_sweep prog tables data_scale =
  List.map
    (fun mem_budget ->
      match
        run_config ~config:(governed ~spill:false mem_budget)
          ~rt:(rt ~profile:spark ~data_scale ()) ~opts prog tables
      with
      | Time (s, m) ->
          [ budget_label mem_budget;
            Printf.sprintf "%.0f s" s;
            string_of_int m.Metrics.oom_kills;
            "finished" ]
      | Fail reason -> [ budget_label mem_budget; "-"; "-"; "FAIL: " ^ reason ]
      | Timeout _ -> [ budget_label mem_budget; "-"; "-"; "timeout" ])
    [ None; Some 64e6; Some 32e6; Some 4e6 ]

let cache_sweep prog tables data_scale table_scales =
  List.map
    (fun (mem_budget, max_inflight) ->
      match
        run_config
          ~config:(Config.with_max_inflight max_inflight (governed ~spill:true mem_budget))
          ~rt:(rt ~profile:spark ~data_scale ~table_scales ())
          ~opts prog tables
      with
      | Time (s, m) ->
          [ budget_label mem_budget;
            (match max_inflight with None -> "unbounded" | Some k -> string_of_int k);
            Printf.sprintf "%.0f s" s;
            string_of_int m.Metrics.recomputes;
            string_of_int m.Metrics.cache_evictions;
            string_of_int m.Metrics.jobs_queued;
            Printf.sprintf "%.1f s" m.Metrics.queue_wait_s ]
      | Fail reason -> [ budget_label mem_budget; "-"; "FAIL: " ^ reason ]
      | Timeout _ -> [ budget_label mem_budget; "-"; "timeout" ])
    [ (None, None); (Some 64e6, None); (Some 1e5, None); (Some 1e5, Some 1) ]

let run () =
  section "E11: memory governance — budgets, spill, OOM, eviction (extension)";
  let q3_tbls, q3_scale = q3_tables () in
  let q3 = Pr.Tpch_q3.program Pr.Tpch_q3.default_params in
  Emma_util.Tbl.print
    ~title:
      "spill-to-disk vs per-slot budget (TPC-H Q3, spilling on; results identical \
       at every budget)"
    ~header:[ "budget"; "sim time"; "overhead"; "mem peak"; "spills"; "spill bytes" ]
    (spill_sweep q3 q3_tbls q3_scale);
  Emma_util.Tbl.print
    ~title:
      "degradation without spilling (TPC-H Q3: OOM-kill + retry at halved \
       parallelism, clean failure past node memory)"
    ~header:[ "budget"; "sim time"; "oom kills"; "outcome" ]
    (oom_sweep q3 q3_tbls q3_scale);
  let km_tbls, km_scale = kmeans_tables () in
  let km_prog =
    Pr.Kmeans.program { Pr.Kmeans.default_params with epsilon = 1e-9; max_iters = 10 }
  in
  Emma_util.Tbl.print
    ~title:"cache + admission pressure (k-means, 10 iterations, spilling on)"
    ~header:
      [ "budget"; "max inflight"; "sim time"; "recomputes"; "evictions";
        "jobs queued"; "queue wait" ]
    (cache_sweep km_prog km_tbls km_scale [ ("centroids0", 1.0) ]);
  print_endline
    "(the budget is per slot in logical bytes; for any budget above the\n\
    \ documented minimum the results are bit-identical to the unbounded run —\n\
    \ only sim time and the memory counters move)"
