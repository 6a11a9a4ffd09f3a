(* emma — command-line driver for the Emma reproduction.

     emma list                          enumerate built-in programs
     emma show kmeans                   print a program's Emma source
     emma compile q4 [--no-unnest ...]  compile and print plans + report
     emma run spam --engine flink       execute on the simulated engine
     emma native q1                     execute on the native DataBag

   Programs come with generated default workloads (see Registry). *)

open Cmdliner
module Pipeline = Emma_compiler.Pipeline

let program_arg =
  let doc = "Built-in program name (see $(b,emma list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let opts_term =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let mk no_unnest no_fuse no_cache no_partition no_inline =
    {
      Pipeline.inline = not no_inline;
      fuse = not no_fuse;
      unnest = not no_unnest;
      cache = not no_cache;
      partition = not no_partition;
    }
  in
  Term.(
    const mk
    $ flag "no-unnest" "Disable exists-unnesting (semi-join extraction)."
    $ flag "no-fusion" "Disable fold-group fusion."
    $ flag "no-cache" "Disable the caching heuristic."
    $ flag "no-partition" "Disable partition pulling."
    $ flag "no-inline" "Disable statement inlining.")

let engine_term =
  let doc = "Engine profile: $(b,spark) or $(b,flink)." in
  Arg.(value & opt (enum [ ("spark", `Spark); ("flink", `Flink) ]) `Spark & info [ "engine" ] ~doc)

let scale_term =
  let doc = "Logical data scale (logical bytes per physical byte)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc)

let dop_term =
  let doc = "Degree of parallelism of the simulated cluster." in
  Arg.(value & opt int 320 & info [ "dop" ] ~doc)

let domains_term =
  let doc =
    "Number of OCaml domains (OS-level cores) the engine runs partition work on. \
     1 executes sequentially; results and every cost-model metric are identical \
     for any value — only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let tables_dir_term =
  let doc = "Load input tables from CSV files in $(docv) instead of generating them." in
  Arg.(value & opt (some dir) None & info [ "tables" ] ~docv:"DIR" ~doc)

let load_tables (e : Registry.entry) = function
  | None -> e.Registry.tables ()
  | Some dir -> Emma_io.Csv.read_tables ~dir

let with_entry name f =
  match Registry.find name with
  | Some e -> f e
  | None ->
      Printf.eprintf "unknown program %S; try `emma list`\n" name;
      exit 1

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) -> Printf.printf "%-10s %s\n" e.Registry.name e.Registry.describe)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in programs") Term.(const run $ const ())

(* ---- show ---- *)

let show_cmd =
  let run name =
    with_entry name (fun e ->
        print_endline (Emma.Pretty.program_to_string e.Registry.program))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a program's Emma source") Term.(const run $ program_arg)

(* ---- compile ---- *)

let compile_cmd =
  let run name opts dot =
    with_entry name (fun e ->
        let algo = Emma.parallelize ~opts e.Registry.program in
        if dot then
          Emma.Cprog.iter_plans
            (fun p -> print_endline (Emma.Plan.to_dot ~name:e.Registry.name p))
            algo.Emma.compiled
        else print_endline (Emma.Cprog.to_string algo.Emma.compiled);
        let r = algo.Emma.report in
        Printf.printf
          "\n\
           report: unnesting=%b fusion=%b (groups=%d folds=%d) caching=%b [%s] partition \
           pulling=%b [%s]\n"
          (Pipeline.applied_unnesting r)
          (Pipeline.applied_group_fusion r)
          r.Pipeline.fusion.Emma_compiler.Fusion.fused_groups
          r.Pipeline.fusion.Emma_compiler.Fusion.fused_folds
          (Pipeline.applied_caching r)
          (String.concat ", " r.Pipeline.cached_vars)
          (Pipeline.applied_partition_pulling r)
          (String.concat ", " r.Pipeline.partitioned_vars))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a program and print its dataflows")
    Term.(
      const run $ program_arg $ opts_term
      $ Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz instead of plain text."))

(* ---- run ---- *)

let chaos_seed_term =
  let doc =
    "Inject deterministic faults drawn from this seed (task failures, executor \
     losses, shuffle-fetch failures, stragglers, driver-loop losses). The engine \
     recovers transparently: results are identical to the fault-free run, only \
     the simulated clock and the recovery counters change."
  in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let chaos_rates_term =
  let doc =
    "Per-channel injection rates for $(b,--chaos-seed), e.g. \
     $(b,task=0.1,exec=0.02,fetch=0.05,straggle=0.1,slow=4,loop=0.02,oom=0.02). \
     Unlisted keys stay 0; without this flag a moderate default mix is used. \
     Probabilities outside [0, 1] (or $(b,slow) < 1) are rejected."
  in
  Arg.(value & opt (some string) None & info [ "chaos-rates" ] ~docv:"RATES" ~doc)

let checkpoint_term =
  let doc =
    "Checkpoint driver-loop state (loop variables and stateful bags) every \
     $(docv) iterations, so injected loop losses restart from the last \
     checkpoint instead of the loop entry. Each checkpoint record carries a \
     CRC32; corrupted records are detected and skipped on restore."
  in
  Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let mem_per_slot_term =
  let doc =
    "Per-slot memory budget in logical bytes (e.g. $(b,64e6)). Overrides the \
     cluster's default and turns on memory governance: state-building operators \
     past the budget spill to disk (with $(b,--spill)) or are OOM-killed and \
     retried at halved parallelism; cached bags past budget×DOP are LRU-evicted. \
     Results are identical for any sufficient budget — only simulated time and \
     the memory counters move."
  in
  Arg.(value & opt (some float) None & info [ "mem-per-slot" ] ~docv:"BYTES" ~doc)

let spill_term =
  let doc =
    "With $(b,--mem-per-slot): spill overflowing operator state to disk \
     (priced as DFS I/O) instead of OOM-killing the attempt."
  in
  Arg.(value & flag & info [ "spill" ] ~doc)

let max_inflight_term =
  let doc =
    "Admission control: at most $(docv) jobs in flight; further submissions \
     queue for the earliest slot release (counted in jobs_queued/queue_wait_s)."
  in
  Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc)

let chunk_term =
  let doc =
    "Adaptive-chunking policy for partition tasks on the domain pool: \
     $(b,auto) (the default) sizes chunks from the cost model's per-row \
     estimate with a granularity floor; an integer $(docv) pins that many \
     physical rows per chunk. Chunking lets the work-stealing pool steal a \
     skewed partition's tail mid-partition; results and every cost-model \
     metric are identical for any policy — only wall-clock time and the \
     par_* counters move."
  in
  Arg.(value & opt string "auto" & info [ "chunk" ] ~docv:"auto|N" ~doc)

let udf_mode_term =
  let doc =
    "How per-tuple UDF bodies execute: $(b,compiled) stages each fused UDF \
     once into a host closure (the default); $(b,interp) tree-walks it with \
     the reference interpreter (the differential-testing oracle). Results \
     and all cost-model metrics are bit-identical between modes — only \
     wall-clock time moves."
  in
  Arg.(value & opt (some string) None & info [ "udf-mode" ] ~docv:"MODE" ~doc)

let timeout_term =
  let doc =
    "Operator limit on the simulated clock (default 3600): a run past \
     $(docv) seconds is aborted with a classified TIMEOUT. Distinct from \
     $(b,--deadline), which is a per-query service budget. Repeating the \
     flag with a different value is a usage error."
  in
  Arg.(value & opt_all float [] & info [ "timeout" ] ~docv:"S" ~doc)

let deadline_term =
  let doc =
    "Per-query latency budget in seconds on the simulated clock. A query \
     past its budget is cancelled cooperatively at the next engine safepoint \
     with a classified CANCELLED outcome; under $(b,emma serve) queries whose \
     queue wait already exceeds the budget are shed before dispatch (counted, \
     never silently dropped) and the degradation ladder engages under \
     backlog."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)

let max_queue_term =
  let doc =
    "Bound each tenant's queue at $(docv) queries; arrivals past the bound \
     shed either themselves or the oldest queued query, picked \
     seed-deterministically so sim-mode replays stay bit-identical."
  in
  Arg.(value & opt (some int) None & info [ "max-queue" ] ~docv:"N" ~doc)

let breaker_term =
  let doc =
    "Per-tenant circuit breaker: $(b,K[:COOLDOWN_S]) opens a tenant's \
     circuit after K consecutive failed/timed-out/cancelled outcomes \
     (fast-failing its queue), half-opens after COOLDOWN_S simulated seconds \
     (default 30) and probes with a single query; $(b,off) disables."
  in
  Arg.(value & opt (some string) None & info [ "breaker" ] ~docv:"K[:CD]" ~doc)

let drain_after_term =
  let doc =
    "Graceful drain: stop admitting queries after $(docv) seconds (simulated \
     in sim mode, wall clock in real mode), shed later arrivals, and finish \
     or cancel in-flight work; the final report still accounts for every \
     submission."
  in
  Arg.(value & opt (some float) None & info [ "drain-after" ] ~docv:"S" ~doc)

(* Flag validation errors: one actionable line on stderr, exit 2 (the
   engine's own job-failure exit is also 2; both mean "this invocation
   cannot succeed as given"). *)
let usage_fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "emma: %s\n" m;
      exit 2)
    fmt

(* Every run/serve knob parses through Config.of_cli, the one shared
   flag-validation path, which holds the one-line exit-2 messages. *)
let config_or_exit = function Ok c -> c | Error m -> usage_fail "%s" m

(* [--timeout] values, 3600 s when absent; a repeat must agree, the same
   rule Session.create applies between the runtime and Config *)
let timeout_or_exit = function
  | [] -> 3600.0
  | t :: rest -> (
      match List.find_opt (fun t' -> t' <> t) rest with
      | Some t' ->
          usage_fail
            "conflicting timeouts: --timeout %g vs --timeout %g (give it once)"
            t t'
      | None -> t)

(* --ops-trace: one line per operator stage span, barrier spans skipped,
   in start order. Stage spans nest on the coordinator domain, so a stack
   pairs each end event (output size) with its begin event (clock). *)
let print_ops_trace tracer =
  let module T = Emma_util.Trace in
  let rows = ref [] and open_spans = ref [] in
  List.iter
    (fun (ev : T.event) ->
      if ev.T.ev_cat = "stage" && ev.T.ev_name <> "barrier" then
        match (ev.T.ev_ph, !open_spans) with
        | T.B, _ ->
            let row = (ev, ref []) in
            rows := row :: !rows;
            open_spans := row :: !open_spans
        | T.E, (_, out) :: rest ->
            out := ev.T.ev_args;
            open_spans := rest
        | _ -> ())
    (T.events tracer);
  print_endline "\ntrace (stage spans in start order: clock, operator, output):";
  List.iter
    (fun ((b : T.event), out) ->
      let arg k = List.assoc_opt k !out in
      let output =
        match (arg "out_records", arg "out_bytes", arg "out") with
        | Some (T.A_float n), Some (T.A_float bytes), _ ->
            Printf.sprintf "%12.0f recs %14.0f B" n bytes
        | _, _, Some (T.A_str kind) -> kind
        | _ -> "-"
      in
      let clock =
        match List.assoc_opt "sim_s" b.T.ev_args with Some (T.A_float s) -> s | _ -> Float.nan
      in
      Printf.printf "  %8.1fs  %-10s %s\n" clock b.T.ev_name output)
    (List.rev !rows)

let run_cmd =
  let run name opts engine scale dop domains tables_dir trace_file ops_trace chaos_seed
      chaos_rates checkpoint_every mem_per_slot spill max_inflight udf_mode chunk
      timeout deadline =
    with_entry name (fun e ->
        (* --ops-trace renders the same spans --trace writes *)
        let tracer =
          if trace_file = None && not ops_trace then Emma_util.Trace.disabled
          else Emma_util.Trace.create ()
        in
        let config =
          Emma.Config.of_cli ?udf_mode ~chunk ?chaos_seed ?chaos_rates
            ?checkpoint_every ?mem_per_slot ~spill ?max_inflight ~domains
            ~timeout:(timeout_or_exit timeout) ?deadline ()
          |> config_or_exit |> Emma.Config.with_trace (Some tracer)
        in
        (* Install the tracer before compiling so the compile-phase spans
           land in the same file as the execution spans. *)
        Emma_util.Trace.set_global tracer;
        let algo = Emma.parallelize ~opts e.Registry.program in
        let cluster =
          let c =
            Emma.Cluster.paper_cluster ~dop ~data_scale:scale
              ~table_scales:e.Registry.table_scales ()
          in
          match config.Emma.Config.mem_budget with
          | Some b -> Emma.Cluster.with_mem_per_slot c b
          | None -> c
        in
        let profile =
          match engine with
          | `Spark -> Emma_engine.Cluster.spark_like
          | `Flink -> Emma_engine.Cluster.flink_like
        in
        let session =
          Emma.Session.create ~config { Emma.cluster; profile; timeout_s = None }
        in
        let outcome =
          Emma.Session.run session algo ~tables:(load_tables e tables_dir)
        in
        Emma.Session.close session;
        let code =
          match outcome with
          | Emma.Finished { value; _ } ->
              Format.printf "result: %a@." Emma.Value.pp value;
              0
          | Emma.Failed { reason; _ } ->
              Format.printf "FAILED: %s@." reason;
              2
          | Emma.Timed_out { at_s; _ } ->
              Format.printf "TIMEOUT at %.0f simulated s@." at_s;
              3
          | Emma.Cancelled { at_s; reason; _ } ->
              Format.printf "CANCELLED at %.0f simulated s (%s)@." at_s reason;
              3
        in
        Format.printf "@.%a@." Emma.Metrics.pp (Emma.metrics_of_outcome outcome);
        if ops_trace then print_ops_trace tracer;
        (* [exit] does not unwind, so the trace file is written first *)
        (match trace_file with
        | Some path ->
            Emma_util.Trace.write_chrome_json tracer path;
            Printf.eprintf "trace written to %s (load in chrome://tracing)\n" path
        | None -> ());
        if code <> 0 then exit code)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a program on the simulated distributed engine")
    Term.(
      const run $ program_arg $ opts_term $ engine_term $ scale_term $ dop_term
      $ domains_term $ tables_dir_term
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE.json"
              ~doc:
                "Write a Chrome trace_event JSON file with compile-phase, job, stage \
                 and partition-task spans (open in chrome://tracing or ui.perfetto.dev).")
      $ Arg.(
          value & flag
          & info [ "ops-trace" ]
              ~doc:
                "Print one line per executed operator, rendered from the \
                 engine's stage spans: simulated clock at operator start, \
                 kind, output records and bytes.")
      $ chaos_seed_term $ chaos_rates_term $ checkpoint_term $ mem_per_slot_term
      $ spill_term $ max_inflight_term $ udf_mode_term $ chunk_term
      $ timeout_term $ deadline_term)

(* ---- explain ---- *)

let explain_cmd =
  let run name opts =
    with_entry name (fun e ->
        print_string (Emma.Explain.to_string (Emma.Explain.run ~opts e.Registry.program)))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show what the optimizer did: phase-by-phase plan diff, node counts, and which \
          optimizations fired. Deterministic — suitable for golden files.")
    Term.(const run $ program_arg $ opts_term)

(* ---- typecheck ---- *)

let typecheck_cmd =
  let run name =
    with_entry name (fun e ->
        let schemas =
          List.map
            (fun (t, rows) -> (t, Emma_types.Infer.schema_of_rows rows))
            (e.Registry.tables ())
        in
        match Emma_types.Infer.check_program ~schemas e.Registry.program with
        | Ok t -> Printf.printf "well-typed; result: %s\n" (Emma_types.Infer.ty_to_string t)
        | Error m ->
            Printf.printf "type error: %s\n" m;
            exit 1)
  in
  Cmd.v
    (Cmd.info "typecheck" ~doc:"Infer the program's types against its default schemas")
    Term.(const run $ program_arg)

(* ---- gen ---- *)

let gen_cmd =
  let run name dir =
    with_entry name (fun e ->
        let tables = e.Registry.tables () in
        Emma_io.Csv.write_tables ~dir tables;
        List.iter
          (fun (t, rows) -> Printf.printf "wrote %s/%s.csv (%d rows)\n" dir t (List.length rows))
          tables)
  in
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a program's default workload as CSV files")
    Term.(const run $ program_arg $ dir_arg)

(* ---- serve ---- *)

module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival

(* "acme:2,beta" -> [tenant acme (weight 2); tenant beta (weight 1)] *)
let parse_tenants s =
  String.split_on_char ',' s
  |> List.filter (fun w -> String.trim w <> "")
  |> List.map (fun spec ->
         match String.split_on_char ':' (String.trim spec) with
         | [ name ] -> Serve.tenant name
         | [ name; w ] -> (
             match int_of_string_opt w with
             | Some weight when weight >= 1 -> Serve.tenant ~weight name
             | _ ->
                 usage_fail
                   "--tenants: %S is invalid: expected `name' or `name:weight' \
                    with weight >= 1"
                   spec)
         | _ ->
             usage_fail
               "--tenants: %S is invalid: expected `name' or `name:weight'" spec)

let serve_cmd =
  let run tenants_s queries_s n_events seed rate alpha arrivals_file mode engine
      scale dop domains plan_cache udf_mode chunk chaos_seed chaos_rates
      checkpoint_every mem_per_slot spill max_inflight timeout deadline
      max_queue breaker drain_after counters_json wal recover wal_sync
      snapshot_every wal_crash fingerprint_file =
    let tenants = parse_tenants tenants_s in
    if tenants = [] then usage_fail "--tenants: at least one tenant is required";
    let queries =
      String.split_on_char ',' queries_s
      |> List.map String.trim
      |> List.filter (fun w -> w <> "")
    in
    if queries = [] then usage_fail "--queries: at least one query is required";
    let entries =
      List.map
        (fun q ->
          match Registry.find q with
          | Some e -> e
          | None -> usage_fail "--queries: unknown program %S; try `emma list'" q)
        queries
    in
    if n_events < 1 then
      usage_fail "--events %d is invalid: need at least 1 arrival" n_events;
    if not (rate > 0.0) then
      usage_fail "--rate %g is invalid: the arrival rate must be > 0" rate;
    if not (alpha > 0.0) then
      usage_fail "--zipf %g is invalid: the Zipf exponent must be > 0" alpha;
    (match (wal, recover) with
    | Some _, Some _ ->
        usage_fail
          "--recover DIR already names the journal directory; drop --wal"
    | _ -> ());
    let recovering = recover <> None in
    let wal = match recover with Some _ as r -> r | None -> wal in
    let config =
      Emma.Config.of_cli ?udf_mode ~chunk ?chaos_seed ?chaos_rates
        ?checkpoint_every ?mem_per_slot ~spill ?max_inflight ~domains
        ~plan_cache ~timeout:(timeout_or_exit timeout) ?deadline
        ?max_queue ?breaker ?drain_after ?wal ?wal_sync ?snapshot_every ()
      |> config_or_exit
    in
    if config.Emma.Config.wal_dir <> None && mode = `Real then
      usage_fail
        "--wal/--recover requires --mode sim: the journal records the \
         deterministic simulation, which real mode cannot replay";
    let wal_crash =
      match wal_crash with
      | None -> None
      | Some _ when config.Emma.Config.wal_dir = None ->
          usage_fail "--wal-crash has no effect without --wal DIR"
      | Some s -> (
          match Emma_util.Wal.crash_spec_of_string s with
          | Ok spec -> Some spec
          | Error m -> usage_fail "--wal-crash: %s" m)
    in
    let events =
      match arrivals_file with
      | Some path -> (
          let contents =
            try In_channel.with_open_text path In_channel.input_all
            with Sys_error m -> usage_fail "--arrivals: %s" m
          in
          match Arrival.of_string contents with
          | Ok evs -> evs
          | Error m -> usage_fail "--arrivals: %s" m)
      | None ->
          Arrival.generate ~seed ~rate ~alpha
            ~tenants:(List.map (fun t -> t.Serve.tn_name) tenants)
            ~queries ~n:n_events
    in
    let workload =
      List.map
        (fun (e : Registry.entry) ->
          (e.Registry.name, (e.Registry.program, e.Registry.tables ())))
        entries
    in
    let table_scales =
      List.concat_map (fun (e : Registry.entry) -> e.Registry.table_scales)
        entries
      |> List.sort_uniq compare
    in
    let cluster =
      Emma.Cluster.paper_cluster ~dop ~data_scale:scale ~table_scales ()
    in
    let profile =
      match engine with
      | `Spark -> Emma_engine.Cluster.spark_like
      | `Flink -> Emma_engine.Cluster.flink_like
    in
    let session =
      Emma.Session.create ~config { Emma.cluster; profile; timeout_s = None }
    in
    let counters =
      Fun.protect
        ~finally:(fun () -> Emma.Session.close session)
        (fun () ->
          try
            match mode with
            | `Sim -> (
                match config.Emma.Config.wal_dir with
                | None -> Serve.run_sim session tenants workload events
                | Some dir ->
                    let journal =
                      Emma_util.Wal.create ~sync:config.Emma.Config.wal_sync
                        ~dir ()
                    in
                    Option.iter (Emma_util.Wal.set_crash journal) wal_crash;
                    let durability =
                      {
                        Serve.du_wal = journal;
                        du_snapshot_every = config.Emma.Config.snapshot_every;
                      }
                    in
                    Fun.protect
                      ~finally:(fun () -> Emma_util.Wal.close journal)
                      (fun () ->
                        if recovering then
                          Serve.recover_sim ~durability session tenants
                            workload events
                        else
                          Serve.run_sim ~durability session tenants workload
                            events))
            | `Real ->
                (* real mode: --drain-after is wall clock — a timer domain
                   pulls the plug, shedding un-admitted queries and
                   cancelling in-flight ones at their next safepoint. The
                   timer polls a stop flag so a run that finishes early
                   never waits out the full drain interval. *)
                let dctl = Serve.drain_controller () in
                let stop = Atomic.make false in
                let timer =
                  Option.map
                    (fun s ->
                      Domain.spawn (fun () ->
                          let rec wait remaining =
                            if (not (Atomic.get stop)) && remaining > 0.0
                            then begin
                              let step = Float.min 0.05 remaining in
                              Unix.sleepf step;
                              wait (remaining -. step)
                            end
                          in
                          wait s;
                          if not (Atomic.get stop) then Serve.drain dctl))
                    config.Emma.Config.drain_after_s
                in
                Fun.protect
                  ~finally:(fun () ->
                    Atomic.set stop true;
                    Option.iter Domain.join timer)
                  (fun () ->
                    Serve.run_concurrent ~drain:dctl session tenants workload
                      events)
          with
          | Invalid_argument m -> usage_fail "%s" m
          | Serve.Recovery_error m -> usage_fail "%s" m
          | Sys_error m -> usage_fail "%s" m)
    in
    (match fingerprint_file with
    | Some path ->
        Emma_util.Wal.write_atomic path (Serve.fingerprint counters ^ "\n")
    | None -> ());
    let lat = Serve.latencies counters in
    let n = List.length counters.Serve.sv_results in
    Printf.printf "served %d queries over %d tenants (%s mode, %d lanes)\n" n
      (List.length tenants)
      (match mode with `Sim -> "sim" | `Real -> "real")
      counters.Serve.sv_lanes;
    (match counters.Serve.sv_cache with
    | Some s ->
        Printf.printf "plan cache: %d hits, %d misses, %d evictions (%d live)\n"
          s.Emma.Plan_cache.hits s.Emma.Plan_cache.misses
          s.Emma.Plan_cache.evictions s.Emma.Plan_cache.entries
    | None -> Printf.printf "plan cache: off\n");
    Printf.printf "latency p50 %.6f s, p99 %.6f s, makespan %.6f s\n"
      (Serve.percentile lat 0.50) (Serve.percentile lat 0.99)
      counters.Serve.sv_makespan_s;
    (if counters.Serve.sv_makespan_s > 0.0 then
       Printf.printf "sustained %.2f queries/s (%s)\n"
         (float_of_int n
         /.
         match mode with
         | `Sim -> counters.Serve.sv_makespan_s
         | `Real -> counters.Serve.sv_wall_s)
         (match mode with `Sim -> "simulated" | `Real -> "wall clock"));
    List.iter
      (fun tc ->
        Printf.printf
          "  tenant %-10s weight %d: %d admitted, %d shed, max queue %d, \
           breaker opens %d, wait %.6f s\n"
          tc.Serve.tc_name tc.Serve.tc_weight tc.Serve.tc_admissions
          tc.Serve.tc_shed tc.Serve.tc_max_queue tc.Serve.tc_breaker_opens
          tc.Serve.tc_queue_wait_s)
      counters.Serve.sv_tenants;
    (let nshed = List.length counters.Serve.sv_shed in
     if nshed > 0 then begin
       let by reason =
         List.length
           (List.filter
              (fun s -> s.Serve.sh_reason = reason)
              counters.Serve.sv_shed)
       in
       Printf.printf
         "shed %d queries (deadline %d, queue_full %d, breaker %d, drain %d, \
          degraded %d)\n"
         nshed (by Serve.Shed_deadline) (by Serve.Shed_queue_full)
         (by Serve.Shed_breaker) (by Serve.Shed_drain) (by Serve.Shed_degraded)
     end);
    if counters.Serve.sv_degraded > 0 then
      Printf.printf "%d queries ran degraded\n" counters.Serve.sv_degraded;
    if counters.Serve.sv_breaker_opens > 0 then
      Printf.printf "breaker: %d opens, %d half-opens, %d closes\n"
        counters.Serve.sv_breaker_opens counters.Serve.sv_breaker_half_opens
        counters.Serve.sv_breaker_closes;
    if
      counters.Serve.sv_failed > 0
      || counters.Serve.sv_timed_out > 0
      || counters.Serve.sv_cancelled > 0
    then
      Printf.printf "%d failed, %d timed out, %d cancelled\n"
        counters.Serve.sv_failed counters.Serve.sv_timed_out
        counters.Serve.sv_cancelled;
    (match counters_json with
    | Some path ->
        (* temp-then-rename: a crash mid-write never leaves a torn report *)
        Emma_util.Wal.write_atomic path
          (Emma.Json.to_string (Serve.counters_to_json counters));
        Printf.eprintf "counters written to %s\n" path
    | None -> ());
    if counters.Serve.sv_failed > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a multi-tenant arrival trace of built-in programs on one \
          shared session: fair-share (deficit round-robin) admission across \
          tenants, per-tenant memory budgets, and a plan cache keyed on the \
          normalized plan + schema. $(b,--mode sim) replays deterministically \
          on the simulated clock; $(b,--mode real) runs one domain per tenant \
          lane over the shared work-stealing pool.")
    Term.(
      const run
      $ Arg.(
          value & opt string "acme:2,beta"
          & info [ "tenants" ] ~docv:"NAME[:W],..."
              ~doc:"Comma-separated tenants with optional fair-share weights.")
      $ Arg.(
          value & opt string "q1,q3,wordcount,group-min"
          & info [ "queries" ] ~docv:"NAMES"
              ~doc:"Comma-separated built-in programs the trace draws from.")
      $ Arg.(
          value & opt int 60
          & info [ "events" ] ~docv:"N" ~doc:"Arrivals to generate.")
      $ Arg.(
          value & opt int 7
          & info [ "seed" ] ~docv:"SEED" ~doc:"Trace-generation seed.")
      $ Arg.(
          value & opt float 2.0
          & info [ "rate" ] ~docv:"QPS"
              ~doc:"Mean arrival rate (exponential inter-arrival gaps).")
      $ Arg.(
          value & opt float 1.1
          & info [ "zipf" ] ~docv:"ALPHA"
              ~doc:
                "Zipf exponent of tenant and query popularity (bigger = more \
                 repeat-heavy).")
      $ Arg.(
          value & opt (some string) None
          & info [ "arrivals" ] ~docv:"FILE"
              ~doc:
                "Replay a scripted arrival trace (`<at_s> <tenant> <query>' \
                 per line) instead of generating one.")
      $ Arg.(
          value
          & opt (enum [ ("sim", `Sim); ("real", `Real) ]) `Sim
          & info [ "mode" ] ~docv:"sim|real"
              ~doc:
                "$(b,sim): deterministic discrete-event replay (bit-identical \
                 counters); $(b,real): one domain per tenant lane, wall-clock \
                 throughput.")
      $ engine_term $ scale_term $ dop_term $ domains_term
      $ Arg.(
          value & opt string "64"
          & info [ "plan-cache" ] ~docv:"N|off"
              ~doc:
                "Plan-cache capacity (LRU over normalized-plan+schema keys); \
                 $(b,off) disables caching.")
      $ udf_mode_term $ chunk_term $ chaos_seed_term $ chaos_rates_term
      $ checkpoint_term $ mem_per_slot_term $ spill_term $ max_inflight_term
      $ timeout_term $ deadline_term $ max_queue_term $ breaker_term
      $ drain_after_term
      $ Arg.(
          value & opt (some string) None
          & info [ "counters-json" ] ~docv:"FILE"
              ~doc:"Write the machine-readable serve counters to $(docv).")
      $ Arg.(
          value & opt (some string) None
          & info [ "wal" ] ~docv:"DIR"
              ~doc:
                "Journal every scheduling decision to a durable write-ahead \
                 log in $(docv) (sim mode only). A killed run restarts with \
                 $(b,--recover) $(docv).")
      $ Arg.(
          value & opt (some string) None
          & info [ "recover" ] ~docv:"DIR"
              ~doc:
                "Recover a journaled run from $(docv): journaled outcomes \
                 are replayed without re-execution, admitted-but-unfinished \
                 queries are re-submitted idempotently, and the counters are \
                 bit-identical to an uninterrupted run. Implies $(b,--wal) \
                 $(docv); pass the original run's flags and trace.")
      $ Arg.(
          value & opt (some string) None
          & info [ "wal-sync" ] ~docv:"none|batch:N|always"
              ~doc:
                "Journal fsync policy (default $(b,none)): $(b,none) flushes \
                 to the OS per append, $(b,batch:N) fsyncs every N appends, \
                 $(b,always) fsyncs per append.")
      $ Arg.(
          value & opt (some int) None
          & info [ "snapshot-every" ] ~docv:"K"
              ~doc:
                "Write a compacting state snapshot every $(docv) outcomes, \
                 bounding recovery replay time; old segments fully covered \
                 by the snapshot are deleted.")
      $ Arg.(
          value & opt (some string) None
          & info [ "wal-crash" ] ~docv:"N[:K]"
              ~doc:
                "Deterministic crash injection (testing): SIGKILL this \
                 process after the $(docv)th journal append — or, with \
                 $(b,:K), write only the first K bytes of that append's \
                 frame first (a torn write).")
      $ Arg.(
          value & opt (some string) None
          & info [ "fingerprint" ] ~docv:"FILE"
              ~doc:
                "Write the replay fingerprint of the run to $(docv) \
                 (atomically), for crash-recovery comparison.") )

(* ---- native ---- *)

let native_cmd =
  let run name tables_dir =
    with_entry name (fun e ->
        let algo = Emma.parallelize e.Registry.program in
        let value, _ = Emma.run_native algo ~tables:(load_tables e tables_dir) in
        Format.printf "result: %a@." Emma.Value.pp value)
  in
  Cmd.v
    (Cmd.info "native" ~doc:"Run a program natively on the host-language DataBag")
    Term.(const run $ program_arg $ tables_dir_term)

let () =
  let info = Cmd.info "emma" ~doc:"Emma: implicit parallelism through deep language embedding" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; compile_cmd; explain_cmd; run_cmd; serve_cmd; native_cmd;
            gen_cmd; typecheck_cmd ]))
