(* k-means clustering (the paper's Listing 4) end to end:

   - generate clustered points,
   - run Lloyd's algorithm written in Emma (no parallelism primitives in the
     program text),
   - compare the centroids against a plain-OCaml oracle,
   - show the compiled plan and what the optimizer did,
   - run on both engine profiles and report simulated costs.

     dune exec examples/kmeans_clustering.exe *)

module W = Emma_workloads
module Pr = Emma_programs
module Value = Emma.Value

let () =
  let params = { Pr.Kmeans.default_params with max_iters = 15 } in
  let cfg = W.Points_gen.default ~n_points:2_000 ~k:4 in
  let points = W.Points_gen.points ~seed:7 cfg in
  let centroids0 = W.Points_gen.initial_centroids ~seed:7 cfg in
  let tables = [ ("points", points); ("centroids0", centroids0) ] in

  let algo = Emma.parallelize (Pr.Kmeans.program { params with dim = cfg.W.Points_gen.dim }) in

  Format.printf "=== compiled driver program ===@.%s@.@."
    (Emma.Cprog.to_string algo.Emma.compiled);

  let native, _ = Emma.run_native algo ~tables in
  Format.printf "centroids (native): %a@." Value.pp native;

  let oracle = Pr.Kmeans.reference ~params:{ params with dim = cfg.W.Points_gen.dim } ~points ~centroids0 in
  Format.printf "centroids (oracle): %a@." Value.pp (Value.bag oracle);
  let by_cid cs =
    List.sort (fun a b -> Value.compare (Value.field a "cid") (Value.field b "cid")) cs
    |> List.map (fun c -> Value.to_vector (Value.field c "pos"))
  in
  assert (
    List.for_all2
      (fun a b -> Emma_util.Vec.dist a b < 1e-6)
      (by_cid (Value.to_bag native)) (by_cid oracle));

  List.iter
    (fun (name, rt) ->
      match Emma.run_on rt algo ~tables with
      | Emma.Finished { metrics; _ } ->
          Format.printf "@.--- %s profile ---@.%a@." name Emma.Metrics.pp metrics
      | Emma.Failed { reason; _ } -> Printf.ksprintf failwith "%s failed: %s" name reason
      | Emma.Timed_out { at_s; _ } ->
          Printf.ksprintf failwith "%s timed out at %.0f s" name at_s
      | Emma.Cancelled { at_s; reason; _ } ->
          Printf.ksprintf failwith "%s cancelled at %.0f s: %s" name at_s reason)
    [ ("spark-like", Emma.spark ~cluster:(Emma.Cluster.paper_cluster ()) ());
      ("flink-like", Emma.flink ~cluster:(Emma.Cluster.paper_cluster ()) ()) ]
