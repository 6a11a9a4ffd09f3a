(* udf-smoke: the staged-UDF-compilation gate of `make check`.

   Runs every registry program twice — once with the
   interpreter (`--udf-mode interp`, the differential oracle) and once
   with the staged compiler (`--udf-mode compiled`, the default) — and
   asserts the compilation contract: bit-identical results and
   bit-identical cost-model metrics ([Metrics.cost]), plus equal pool
   barrier and task counts; only wall clock may differ. Any violation
   exits non-zero and fails the alias. *)

module Value = Emma.Value
module Metrics = Emma.Metrics

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("udf-smoke: " ^ m); exit 1) fmt

(* the cost view, plus the host's barrier and task counts: both modes run
   on the same pool, so these must agree as well *)
let cost_sig (m : Metrics.t) = (Metrics.cost m, m.Metrics.par_stages, m.Metrics.par_tasks)

let check (e : Registry.entry) =
  let name = e.Registry.name in
  let algo = Emma.parallelize e.Registry.program in
  let tables = e.Registry.tables () in
  let rt =
    Emma.spark
      ~cluster:(Emma.Cluster.paper_cluster ~table_scales:e.Registry.table_scales ())
      ~timeout_s:3600.0 ()
  in
  let run mode =
    Emma.run_on_exn ~config:(Emma.Config.with_udf_mode mode Emma.Config.default) rt algo ~tables
  in
  let interp = run Emma.Config.Interp in
  let compiled = run Emma.Config.Compiled in
  if not (Value.equal interp.Emma.value compiled.Emma.value) then
    fail "%s: compiled result differs from the interpreter oracle" name;
  if cost_sig interp.Emma.metrics <> cost_sig compiled.Emma.metrics then
    fail "%s: cost-model metrics differ between UDF modes" name;
  Printf.printf
    "udf-smoke %-4s ok: values equal, cost metrics bit-identical (%d UDF \
     invocations, %d stages)\n"
    name compiled.Emma.metrics.Metrics.udf_invocations
    compiled.Emma.metrics.Metrics.stages

let () = List.iter check Registry.all
