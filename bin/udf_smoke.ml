(* udf-smoke: the staged-UDF-compilation gate of `make check`.

   Runs TPC-H Q1 and Q3 from the registry twice each — once with the
   interpreter (`--udf-mode interp`, the differential oracle) and once
   with the staged compiler (`--udf-mode compiled`, the default) — and
   asserts the compilation contract: bit-identical results and
   bit-identical cost-model metrics (simulated time, shuffle/broadcast
   bytes, stages, jobs, UDF invocations). Only wall clock may differ.
   Any violation exits non-zero and fails the alias. *)

module Value = Emma.Value
module Metrics = Emma.Metrics
module Engine = Emma.Engine

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("udf-smoke: " ^ m); exit 1) fmt

(* the cost-model metrics a UDF-mode switch could plausibly disturb;
   wall clock deliberately excluded *)
let cost_sig (m : Metrics.t) =
  ( ( m.Metrics.sim_time_s,
      m.Metrics.shuffle_bytes,
      m.Metrics.broadcast_bytes,
      m.Metrics.dfs_read_bytes,
      m.Metrics.dfs_write_bytes,
      m.Metrics.collect_bytes,
      m.Metrics.parallelize_bytes,
      m.Metrics.spilled_bytes ),
    ( m.Metrics.stages,
      m.Metrics.jobs,
      m.Metrics.par_stages,
      m.Metrics.par_tasks,
      m.Metrics.udf_invocations,
      m.Metrics.cache_hits ) )

let check name =
  match Registry.find name with
  | None -> fail "unknown registry program %S" name
  | Some e ->
      let algo = Emma.parallelize e.Registry.program in
      let tables = e.Registry.tables () in
      let rt =
        Emma.spark
          ~cluster:
            (Emma.Cluster.paper_cluster ~table_scales:e.Registry.table_scales ())
          ~timeout_s:3600.0 ()
      in
      let run mode =
        Emma.run_on_exn ~config:(Emma.Config.with_udf_mode mode Emma.Config.default) rt algo ~tables
      in
      let interp = run Engine.Interp in
      let compiled = run Engine.Compiled in
      if not (Value.equal interp.Emma.value compiled.Emma.value) then
        fail "%s: compiled result differs from the interpreter oracle" name;
      if cost_sig interp.Emma.metrics <> cost_sig compiled.Emma.metrics then
        fail "%s: cost-model metrics differ between UDF modes" name;
      Printf.printf
        "udf-smoke %-4s ok: values equal, cost metrics bit-identical (%d UDF \
         invocations, %d stages)\n"
        name compiled.Emma.metrics.Metrics.udf_invocations
        compiled.Emma.metrics.Metrics.stages

let () = List.iter check [ "q1"; "q3" ]
