(* E10 (extension): chaos & recovery overhead. Two sweeps over the
   deterministic fault-injection subsystem (Emma_engine.Faults):

   - fault-rate sweep: the same two programs (shuffle-heavy word count,
     iterative k-means) run under seeded fault plans of increasing
     intensity. Results must be bit-identical to the fault-free run at
     every intensity — injected failures may only cost simulated time,
     reported here as recovery overhead next to the recovery counters.

   - checkpoint-interval sweep: k-means under a loop-loss-heavy plan with
     checkpointing off / every 5 / 2 / 1 iterations. Denser checkpoints
     pay more checkpoint I/O but replay fewer lost iterations on each
     restore.

   Every run is recorded in the --report DIR machine-readable report, so
   the new recovery counters land in faults.json. *)

open Exp_common
module W = Emma_workloads
module Pr = Emma_programs
module Faults = Emma_engine.Faults

let wordcount_tables () =
  (* deterministic synthetic corpus: enough distinct words to make the
     aggBy shuffle non-trivial *)
  let words =
    [| "implicit"; "parallel"; "emma"; "bag"; "fold"; "join"; "group"; "scale";
       "lineage"; "shuffle"; "barrier"; "retry" |]
  in
  let g = Emma_util.Prng.create 7 in
  let texts =
    List.init 200 (fun _ ->
        String.concat " "
          (List.init 12 (fun _ ->
               words.(Emma_util.Prng.int_in g 0 (Array.length words - 1)))))
  in
  ([ ("docs", Pr.Wordcount.docs_of_strings texts) ], 1.0e5)

let kmeans_tables () =
  let cfg = W.Points_gen.default ~n_points:4_000 ~k:3 in
  ( [ ("points", W.Points_gen.points ~seed:2 cfg);
      ("centroids0", W.Points_gen.initial_centroids ~seed:2 cfg) ],
    1.0e5 )

(* fixed 10 iterations over a StatefulBag: the loop never converges early,
   so the checkpoint-interval tradeoff is visible *)
let pagerank_tables () =
  let cfg = W.Graph_gen.default ~n_vertices:1_000 in
  ([ ("vertices", W.Graph_gen.adjacency ~seed:2 cfg) ], 1.0e4)

let scale_rates f =
  { Faults.task_fail = 0.05 *. f;
    executor_loss = 0.04 *. f;
    fetch_fail = 0.05 *. f;
    straggler = 0.05 *. f;
    straggler_slowdown = 4.0;
    loop_loss = 0.01 *. f;
    oom_kill = 0.0 }

let opts = Pipeline.default_opts

let recovery_cells (m : Metrics.t) =
  [ string_of_int m.Metrics.retries;
    string_of_int m.Metrics.fetch_failures;
    string_of_int m.Metrics.executor_losses;
    string_of_int m.Metrics.recomputed_partitions;
    string_of_int m.Metrics.speculative_wins ]

let rate_sweep name prog tables data_scale table_scales =
  let base =
    match run_config ~rt:(rt ~profile:spark ~data_scale ~table_scales ()) ~opts prog tables with
    | Time (s, m) -> (s, m)
    | _ -> failwith (name ^ ": fault-free run did not finish")
  in
  let base_s, _ = base in
  List.map
    (fun factor ->
      let faults = Faults.seeded ~rates:(scale_rates factor) 42 in
      match
        run_config ~config:(Config.with_faults faults Config.default)
          ~rt:(rt ~profile:spark ~data_scale ~table_scales ())
          ~opts prog tables
      with
      | Time (s, m) ->
          [ name;
            Printf.sprintf "%.1fx" factor;
            Printf.sprintf "%.0f s" s;
            Printf.sprintf "+%.1f%%" ((s -. base_s) /. base_s *. 100.0) ]
          @ recovery_cells m
      | Fail reason -> [ name; Printf.sprintf "%.1fx" factor; "FAIL: " ^ reason ]
      | Timeout _ -> [ name; Printf.sprintf "%.1fx" factor; "timeout" ])
    [ 0.0; 0.5; 1.0; 2.0 ]

let checkpoint_sweep prog tables data_scale table_scales =
  (* loop losses only: isolates the checkpointing tradeoff *)
  let rates = { Faults.zero_rates with Faults.loop_loss = 0.35 } in
  let faults = Faults.seeded ~rates 7 in
  List.map
    (fun every ->
      let checkpoint_every = match every with 0 -> None | k -> Some k in
      match
        run_config
          ~config:Config.(default |> with_faults faults |> with_checkpoint_every checkpoint_every)
          ~rt:(rt ~profile:spark ~data_scale ~table_scales ())
          ~opts prog tables
      with
      | Time (s, m) ->
          [ (if every = 0 then "off" else Printf.sprintf "every %d" every);
            Printf.sprintf "%.0f s" s;
            string_of_int m.Metrics.loop_restores;
            string_of_int m.Metrics.checkpoints;
            Printf.sprintf "%.1f MB" (m.Metrics.checkpoint_bytes /. 1e6) ]
      | Fail reason -> [ Printf.sprintf "every %d" every; "FAIL: " ^ reason ]
      | Timeout _ -> [ Printf.sprintf "every %d" every; "timeout" ])
    [ 0; 5; 2; 1 ]

let run () =
  section "E10: chaos & recovery — overhead of seeded fault plans (extension)";
  let wc_tables, wc_scale = wordcount_tables () in
  let wc_prog = Pr.Wordcount.program Pr.Wordcount.default_params in
  let km_tables, km_scale = kmeans_tables () in
  let km_scales = [ ("centroids0", 1.0) ] in
  let km_prog =
    Pr.Kmeans.program { Pr.Kmeans.default_params with epsilon = 1e-9; max_iters = 10 }
  in
  Emma_util.Tbl.print
    ~title:"recovery overhead vs fault intensity (seed 42; results identical to 0.0x)"
    ~header:
      [ "program"; "rates"; "sim time"; "overhead"; "retries"; "fetch"; "exec loss";
        "recomp parts"; "spec wins" ]
    (rate_sweep "wordcount" wc_prog wc_tables wc_scale []
    @ rate_sweep "k-means" km_prog km_tables km_scale km_scales);
  let pr_tables, pr_scale = pagerank_tables () in
  let pr_prog = Pr.Pagerank.program (Pr.Pagerank.default_params ~n_pages:1_000) in
  Emma_util.Tbl.print
    ~title:"checkpoint interval vs loop-loss recovery (PageRank, loop_loss=0.35, seed 7)"
    ~header:[ "checkpoint"; "sim time"; "loop restores"; "checkpoints"; "ckpt bytes" ]
    (checkpoint_sweep pr_prog pr_tables pr_scale []);
  print_endline
    "(fault plans are pure functions of the seed: every row is reproducible, and\n\
    \ results stay bit-identical to the fault-free run at any intensity)"
