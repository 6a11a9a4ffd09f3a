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

(* Join cases: each join kind under each strategy setting, plus, per kind,
   a Jit case whose left input is already partitioned by the join key (a
   groupBy output joined on its key). On the laptop cluster with these
   table scales both inputs are above the broadcast threshold, so the
   Jit estimate decides: every plain case broadcasts, while with the
   co-partitioned left the inner join and the semi-join repartition (the
   left side's shuffle is discounted) and the anti-join, whose estimate
   charges both sides, still broadcasts. Each value is checked against
   native evaluation too. *)
module S = Emma_lang.Surface
module Value = Emma_value.Value

let join_tables () =
  [ ("a", List.init 500 (fun i -> Value.record [ ("k", Value.Int (i mod 64)); ("v", Value.Int i) ]));
    ("b", List.init 40 (fun i -> Value.record [ ("k", Value.Int (3 * i)); ("w", Value.Int i) ])) ]

let join_query kind left x key =
  let open S in
  let matches = exists (lam "y" (fun y -> field y "k" = key)) (read "b") in
  match kind with
  | `Inner ->
      for_
        [ gen x left; gen "y" (read "b"); when_ (key = field (var "y") "k") ]
        ~yield:(tup [ key; field (var "y") "w" ])
  | `Semi -> for_ [ gen x left; when_ matches ] ~yield:key
  | `Anti -> for_ [ gen x left; when_ (not_ matches) ] ~yield:key

let join_program kind ~co_partitioned =
  let query =
    if co_partitioned then
      join_query kind
        S.(group_by (lam "r" (fun r -> field r "k")) (read "a"))
        "g"
        S.(field (var "g") "key")
    else join_query kind (S.read "a") "x" S.(field (var "x") "k")
  in
  S.program ~ret:(S.var "r") [ S.s_let "r" query ]

let join_cases =
  let kinds = [ ("inner", `Inner); ("semi", `Semi); ("anti", `Anti) ] in
  let strategies =
    [ ("jit", Cluster.Jit);
      ("broadcast", Cluster.Force_broadcast);
      ("repartition", Cluster.Force_repartition) ]
  in
  List.concat_map
    (fun (kname, kind) ->
      List.map
        (fun (sname, strategy) -> (Printf.sprintf "%s_%s" kname sname, kind, strategy, false))
        strategies
      @ [ (kname ^ "_copartitioned", kind, Cluster.Jit, true) ])
    kinds

let join_test (name, kind, join_strategy, co_partitioned) () =
  let cluster =
    { (Cluster.laptop ()) with table_scales = [ ("a", 1000.0); ("b", 1250.0) ]; join_strategy }
  in
  let algo = Emma.parallelize (join_program kind ~co_partitioned) in
  let tables = join_tables () in
  let outcome =
    Emma.run_on { Emma.cluster; profile = Cluster.spark_like; timeout_s = None } algo ~tables
  in
  (match outcome with
  | Emma.Finished { value; _ } ->
      Helpers.check_value ("join " ^ name ^ " = native") (fst (Emma.run_native algo ~tables)) value
  | _ -> Alcotest.failf "join %s did not finish" name);
  Helpers.check_golden
    ~what:(Printf.sprintf "cost of join %s" name)
    (Printf.sprintf "cost_join_%s.txt" name)
    (render ("join_" ^ name) "spark" outcome)

(* The label each join kind and strategy reserves its state under, as the
   fatal out-of-memory message names it (trace instants carry the same
   label). *)
let test_join_memory_labels () =
  List.iter
    (fun (kname, kind, strategy, label) ->
      let cluster = { (Cluster.laptop ()) with join_strategy = strategy } in
      let config = Emma.Config.(default |> with_mem_budget (Some 1.0)) in
      let outcome =
        Emma.run_on ~config
          { Emma.cluster; profile = Cluster.spark_like; timeout_s = None }
          (Emma.parallelize (join_program kind ~co_partitioned:false))
          ~tables:(join_tables ())
      in
      let expected = Printf.sprintf "out of memory: %s state" label in
      match outcome with
      | Emma.Failed { reason; _ }
        when String.length reason >= String.length expected
             && String.sub reason 0 (String.length expected) = expected ->
          ()
      | Emma.Failed { reason; _ } -> Alcotest.failf "%s: unexpected failure %S" kname reason
      | _ -> Alcotest.failf "%s: expected an out-of-memory failure" kname)
    [ ("inner broadcast", `Inner, Cluster.Force_broadcast, "join");
      ("inner repartition", `Inner, Cluster.Force_repartition, "join");
      ("semi broadcast", `Semi, Cluster.Force_broadcast, "semijoin");
      ("semi repartition", `Semi, Cluster.Force_repartition, "semijoin");
      ("anti broadcast", `Anti, Cluster.Force_broadcast, "antijoin");
      ("anti repartition", `Anti, Cluster.Force_repartition, "antijoin") ]

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
        Registry.all
      @ List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case ("join " ^ name) `Quick (join_test case))
          join_cases
      @ [ Alcotest.test_case "join memory labels" `Quick test_join_memory_labels ] ) ]
