(* Golden-file tests for the cost model's absolute output.

   Every other cost test compares runs with each other (across domain
   counts, UDF modes, fused against unfused), so a change that moved every
   run the same way would pass them all. These goldens pin the absolute
   values: for each registry program on its fixed default inputs, on both
   engine profiles, the simulated time and every byte channel printed
   exactly (%h, so a one-ulp drift fails), plus the stage, job and
   recompute counts. The cluster is the one `emma run` uses by default
   (the paper cluster at dop 320, scale 1, the entry's table scales).

   Regenerate after an intentional cost-model change with

     EMMA_UPDATE_GOLDEN=1 dune runtest --force

   (see [Helpers.check_golden]). *)

module Cluster = Emma.Cluster
module Metrics = Emma.Metrics

let profiles = [ ("spark", Cluster.spark_like); ("flink", Cluster.flink_like) ]

let render name profile_name outcome =
  let m = Emma.metrics_of_outcome outcome in
  let status =
    match outcome with
    | Emma.Finished _ -> "finished"
    | Emma.Failed { reason; _ } -> "failed: " ^ reason
    | Emma.Timed_out _ -> "timed out"
    | Emma.Cancelled { reason; _ } -> "cancelled: " ^ reason
  in
  let floats =
    [ ("sim_time_s", m.Metrics.sim_time_s);
      ("shuffle_bytes", m.Metrics.shuffle_bytes);
      ("broadcast_bytes", m.Metrics.broadcast_bytes);
      ("dfs_read_bytes", m.Metrics.dfs_read_bytes);
      ("dfs_write_bytes", m.Metrics.dfs_write_bytes);
      ("collect_bytes", m.Metrics.collect_bytes);
      ("parallelize_bytes", m.Metrics.parallelize_bytes);
      ("spilled_bytes", m.Metrics.spilled_bytes);
      ("mem_peak_bytes", m.Metrics.mem_peak_bytes) ]
  in
  let ints =
    [ ("stages", m.Metrics.stages);
      ("jobs", m.Metrics.jobs);
      ("recomputes", m.Metrics.recomputes) ]
  in
  String.concat ""
    ([ Printf.sprintf "program %s\nprofile %s\noutcome %s\n" name profile_name status ]
    @ List.map (fun (k, v) -> Printf.sprintf "%s %h\n" k v) floats
    @ List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) ints)

let cost_test (e : Registry.entry) (profile_name, profile) () =
  let cluster = Cluster.paper_cluster ~table_scales:e.Registry.table_scales () in
  let outcome =
    Emma.run_on
      { Emma.cluster; profile; timeout_s = None }
      (Emma.parallelize e.Registry.program)
      ~tables:(e.Registry.tables ())
  in
  Helpers.check_golden
    ~what:(Printf.sprintf "cost of %s on %s" e.Registry.name profile_name)
    (Printf.sprintf "cost_%s_%s.txt" e.Registry.name profile_name)
    (render e.Registry.name profile_name outcome)

let suite =
  [ ( "cost_golden",
      List.concat_map
        (fun (e : Registry.entry) ->
          List.map
            (fun ((pname, _) as p) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s" e.Registry.name pname)
                `Quick (cost_test e p))
            profiles)
        Registry.all ) ]
