(* The paper's motivating workflow (§5.1, Listing 5): pick the spam
   classifier minimizing non-spam mail from blacklisted servers. This
   example shows the optimizer's decisions end-to-end: the [exists]
   predicate written at SQL-level declarativity becomes a repartition
   semi-join, loop-invariant data is cached, and partitionings are pulled
   out of the loop — then compares engine costs across the optimization
   configurations of Figure 4.

     dune exec examples/spam_filter.exe *)

module W = Emma_workloads
module Pr = Emma_programs
module Pipeline = Emma_compiler.Pipeline
module Value = Emma.Value

let () =
  let cfg =
    { (W.Email_gen.paper_config ~physical_emails:400) with
      body_bytes_avg = 10_000;
      server_info_bytes = 2_000 }
  in
  let emails = W.Email_gen.emails ~seed:12 cfg in
  let blacklist = W.Email_gen.blacklist ~seed:12 cfg in
  let tables = [ ("emails_raw", emails); ("blacklist_raw", blacklist) ] in
  let params = { Pr.Spam_workflow.default_params with n_classifiers = 6 } in
  let prog = Pr.Spam_workflow.program params in

  (* native run + oracle *)
  let algo = Emma.parallelize prog in
  let native, _ = Emma.run_native algo ~tables in
  let best, hits = Pr.Spam_workflow.reference ~params ~emails ~blacklist in
  Format.printf "selected classifier (native): %a@." Value.pp native;
  Format.printf "selected classifier (oracle): (%d, %d)@.@." best hits;
  assert (Value.equal native (Value.tuple [ Value.int best; Value.int hits ]));

  Format.printf "cached bindings: %s@." (String.concat ", " algo.Emma.report.Emma.Pipeline.cached_vars);
  Format.printf "partition-pulled: %s@.@."
    (String.concat ", " algo.Emma.report.Emma.Pipeline.partitioned_vars);

  (* Figure-4 style comparison on the simulated cluster *)
  let configs =
    [ ("baseline ", Pipeline.with_ ~unnest:false ~cache:false ~partition:false ());
      ("U        ", Pipeline.with_ ~unnest:true ~cache:false ~partition:false ());
      ("U+C      ", Pipeline.with_ ~unnest:true ~cache:true ~partition:false ());
      ("U+P+C    ", Pipeline.default_opts) ]
  in
  let rt = Emma.spark ~cluster:(Emma.Cluster.paper_cluster ~data_scale:2500.0 ()) () in
  Format.printf "spark-like engine, 1 M emails logical:@.";
  List.iter
    (fun (name, opts) ->
      let a = Emma.parallelize ~opts prog in
      match Emma.run_on rt a ~tables with
      | Emma.Finished { metrics; value; _ } ->
          assert (Value.equal value native);
          Format.printf "  %s %7.0f simulated s   (%.1f GB shuffled, %.1f GB broadcast)@."
            name metrics.Emma.Metrics.sim_time_s
            (metrics.Emma.Metrics.shuffle_bytes /. 1e9)
            (metrics.Emma.Metrics.broadcast_bytes /. 1e9)
      | Emma.Failed { reason; _ } -> Printf.ksprintf failwith "%s failed: %s" name reason
      | Emma.Timed_out { at_s; _ } ->
          Printf.ksprintf failwith "%s timed out at %.0f s" name at_s
      | Emma.Cancelled { at_s; reason; _ } ->
          Printf.ksprintf failwith "%s cancelled at %.0f s: %s" name at_s reason)
    configs
