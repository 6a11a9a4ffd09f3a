(* Graph analytics: PageRank (Listing 6) and Connected Components
   (Listing 7) over StatefulBags on a generated power-law graph, both
   with oracle checks (plain-OCaml PageRank, union-find).

     dune exec examples/graph_analytics.exe *)

module W = Emma_workloads
module Pr = Emma_programs
module Value = Emma.Value

let top_k k rows ~score =
  rows
  |> List.sort (fun a b -> compare (score b) (score a))
  |> List.filteri (fun i _ -> i < k)

let () =
  let n_vertices = 300 in
  let cfg = { (W.Graph_gen.default ~n_vertices) with avg_degree = 6 } in
  let directed = W.Graph_gen.adjacency ~seed:99 cfg in
  let undirected = W.Graph_gen.undirected_adjacency ~seed:99 cfg in

  (* ---- PageRank ---- *)
  let params = { (Pr.Pagerank.default_params ~n_pages:n_vertices) with iterations = 15 } in
  let algo = Emma.parallelize (Pr.Pagerank.program params) in
  let native, _ = Emma.run_native algo ~tables:[ ("vertices", directed) ] in
  let ranks = Value.to_bag native in
  Format.printf "PageRank: %d vertices, %d edges@." n_vertices (W.Graph_gen.edge_count directed);
  List.iter
    (fun r ->
      Format.printf "  vertex %2d  rank %.5f@."
        (Value.to_int (Value.field r "id"))
        (Value.to_float (Value.field r "rank")))
    (top_k 5 ranks ~score:(fun r -> Value.to_float (Value.field r "rank")));
  let oracle = Pr.Pagerank.reference ~params ~vertices:directed in
  let rank_of rows id =
    List.find (fun r -> Value.to_int (Value.field r "id") = id) rows
    |> fun r -> Value.to_float (Value.field r "rank")
  in
  let max_err =
    List.fold_left
      (fun acc r ->
        let id = Value.to_int (Value.field r "id") in
        max acc (Float.abs (Value.to_float (Value.field r "rank") -. rank_of oracle id)))
      0.0 ranks
  in
  Format.printf "  max deviation from oracle: %.2e@.@." max_err;
  assert (max_err < 1e-9);

  (* ---- Connected Components ---- *)
  let cc = Emma.parallelize (Pr.Connected_components.program Pr.Connected_components.default_params) in
  let native_cc, _ = Emma.run_native cc ~tables:[ ("vertices", undirected) ] in
  let components = Value.to_bag native_cc in
  let distinct_components =
    components
    |> List.map (fun s -> Value.to_int (Value.field s "component"))
    |> List.sort_uniq compare
  in
  Format.printf "Connected Components: %d vertices form %d component(s)@."
    (List.length components) (List.length distinct_components);
  let oracle_cc = Pr.Connected_components.reference ~vertices:undirected in
  let oracle_count =
    oracle_cc
    |> List.map (fun r -> Value.to_int (Value.field r "component"))
    |> List.sort_uniq compare |> List.length
  in
  assert (List.length distinct_components = oracle_count);
  Format.printf "  union-find oracle agrees (%d components)@.@." oracle_count;

  (* ---- and on the simulated engine ---- *)
  match
    Emma.run_on (Emma.spark ~cluster:(Emma.Cluster.paper_cluster ()) ()) cc
      ~tables:[ ("vertices", undirected) ]
  with
  | Emma.Finished { metrics; _ } ->
      Format.printf "engine run: %.1f simulated s, %d jobs, %d shuffle MB@."
        metrics.Emma.Metrics.sim_time_s metrics.Emma.Metrics.jobs
        (int_of_float (metrics.Emma.Metrics.shuffle_bytes /. 1e6))
  | _ -> failwith "engine run failed"
