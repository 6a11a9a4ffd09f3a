(* mem-smoke: the memory-governance gate of `make check`.

   Runs TPC-H Q1 and k-means from the registry twice each — unbounded,
   then under a comically tiny per-slot budget with spilling on — and
   asserts the governance contract: the governed run actually spills
   (spill counters > 0), pays for it in simulated time, and still
   produces a bit-identical result. Any violation exits non-zero and
   fails the alias. *)

module Value = Emma.Value
module Metrics = Emma.Metrics

let tiny_budget = 64.0 (* logical bytes per slot *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("mem-smoke: " ^ m); exit 1) fmt

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
      let unbounded = Emma.run_on_exn rt algo ~tables in
      let config = Emma.Config.(default |> with_mem_budget (Some tiny_budget) |> with_spill true) in
      let governed = Emma.run_on_exn ~config rt algo ~tables in
      if not (Value.equal unbounded.Emma.value governed.Emma.value) then
        fail "%s: governed result differs from the unbounded run" name;
      let m = governed.Emma.metrics in
      if m.Metrics.mem_spills = 0 then
        fail "%s: no spills under a %.0f-byte budget (peak %.0f B)" name tiny_budget
          m.Metrics.mem_peak_bytes;
      if m.Metrics.sim_time_s < unbounded.Emma.metrics.Metrics.sim_time_s then
        fail "%s: spilling made the run cheaper" name;
      Printf.printf
        "mem-smoke %-8s ok: %d spills, %.0f B spilled, %.1f s vs %.1f s unbounded\n"
        name m.Metrics.mem_spills m.Metrics.mem_spill_bytes m.Metrics.sim_time_s
        unbounded.Emma.metrics.Metrics.sim_time_s

let () = List.iter check [ "q1"; "kmeans" ]
