(* The benchmark's entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --smoke

   With [--trace 0] it sets the workload up several times (reporting the
   median set-up time), then runs ops in a closed loop for S seconds (and
   at least [min_ops] ops) and prints the end-to-end metrics. With
   [--trace 1] it prints the per-layer metrics instead: half the time runs
   untraced, half with the engine's spans on, and the difference is the
   tracing overhead. The last line of standard output is always the JSON
   result. [--smoke] runs every workload for a few ops and fails unless
   every op passes its checks and a one-domain workload's allocation
   repeats exactly between two passes over its ops. *)

module W = Workloads
module Stats = Perfbench.Stats
module Alloc = Perfbench.Alloc
module Trace = Emma_util.Trace
module Json = Emma_util.Json
module Metrics = Emma.Metrics

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let setup_reps = 5
let min_ops = 100
let max_ops = 20_000

type sample = {
  kind : int;
  heap_words : int;  (** major heap size when the op has ended *)
  lat : float;
  cpu_s : float;
  alloc : Alloc.t;
  ok : bool;
  summary : W.summary;
  layers : (string * float) list * (string * float) list;
      (** traced ops: self time per bucket, on every domain and on the
          calling domain *)
}

let report_failure =
  let reported = ref false in
  fun name e ->
    if not !reported then begin
      reported := true;
      Printf.eprintf "%s: op raised %s\n%!" name (Printexc.to_string e)
    end

let run_op (w : W.t) (inst : W.instance) ?tracer i =
  let op = inst.W.next i in
  (* every op starts from a finished major cycle, so the collector work
     that lands inside an op depends on the op, not on what ran before *)
  Gc.major ();
  let call =
    match tracer with
    | None -> op.W.run
    | Some tr ->
        Trace.clear tr;
        fun () -> Trace.span tr ~cat:"bench" "op" op.W.run
  in
  let (ran, lat, cpu_s), alloc =
    Alloc.measure ~all_domains:(w.W.domains > 1) (fun () ->
        let c0 = cpu () in
        let t0 = now () in
        let ran = match call () with () -> true | exception e -> report_failure w.W.name e; false in
        let t1 = now () in
        (ran, t1 -. t0, cpu () -. c0))
  in
  (* checked even when the call raised: the check also releases the op's
     session and journal *)
  let checked = try op.W.check () with e -> report_failure w.W.name e; false in
  let ok = ran && checked in
  let layers =
    match tracer with
    | None -> ([], [])
    | Some tr -> Layers.self_times ~main_tid:(Domain.self () :> int) (Trace.events tr)
  in
  { kind = op.W.kind; heap_words = (Gc.quick_stat ()).Gc.heap_words; lat; cpu_s; alloc; ok; summary = op.W.summary (); layers }

(* closed loop: at least [seconds] of ops and at least [min_ops] ops.
   [between elapsed] runs before each op, outside the op phase's clock. *)
let run_loop w inst ?tracer ?(between = fun _ -> ()) ~seconds ~min_ops () =
  let t_start = now () and paused = ref 0.0 in
  let elapsed () = now () -. t_start -. !paused in
  let rec go i acc =
    if (elapsed () < seconds || i < min_ops) && i < max_ops then begin
      let t0 = now () in
      between (elapsed ());
      paused := !paused +. (now () -. t0);
      go (i + 1) (run_op w inst ?tracer i :: acc)
    end
    else List.rev acc
  in
  go 0 []

let time_set_up prepare =
  let t0 = now () in
  let inst = prepare () in
  (now () -. t0, inst)

let ok_count samples = List.length (List.filter (fun s -> s.ok) samples)
let sum f samples = List.fold_left (fun acc s -> acc +. f s) 0.0 samples

let throughput samples = float (ok_count samples) /. sum (fun s -> s.lat) samples

(* the mean over op kinds of each kind's median: exact and independent of
   how many ops of each kind a run happened to make *)
let per_kind_median f samples =
  let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) samples) in
  let medians =
    List.map
      (fun k ->
        Stats.median (Stats.sorted (List.filter_map (fun s -> if s.kind = k then Some (f s) else None) samples)))
      kinds
  in
  List.fold_left ( +. ) 0.0 medians /. float (List.length medians)

let get = function Some v -> v | None -> nan

(* ------------------------------------------------------------------ *)
(* Result line                                                          *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~samples metrics =
  let attempted = List.length samples in
  let failed = attempted - ok_count samples in
  let quote s = "\"" ^ Json.escape s ^ "\"" in
  let metric (name, value, unit) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote name) (json_number value) (quote unit)
  in
  let correct = failed = 0 && attempted > 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                       *)
(* ------------------------------------------------------------------ *)

(* The machine's speed drifts over seconds, so the set-ups are spread
   over the run rather than made back to back: one before the first op,
   the others at even intervals of the op phase, each closed at once. *)
let end_to_end (w : W.t) ~seed ~seconds ~work_dir =
  let prepare = w.W.prepare ~seed ~work_dir ~tracer:None in
  let first, inst = time_set_up prepare in
  let setup_times = ref [ first ] in
  let set_up_again () =
    let dt, extra = time_set_up prepare in
    extra.W.close ();
    setup_times := dt :: !setup_times
  in
  let due = ref (List.init (setup_reps - 1) (fun j -> seconds *. float (j + 1) /. float setup_reps)) in
  let between elapsed =
    match !due with
    | t :: rest when elapsed >= t ->
        due := rest;
        set_up_again ()
    | _ -> ()
  in
  let samples = run_loop w inst ~between ~seconds ~min_ops () in
  inst.W.close ();
  List.iter (fun _ -> set_up_again ()) !due;
  let setup_times = List.rev !setup_times in
  let lat = Stats.sorted (List.map (fun s -> s.lat) samples) in
  let n = List.length samples in
  (* the major heap the ops run in, as the median over the ops: the
     process's top_heap_words is set by input generation, and the largest
     heap seen moves with where the major collector's cycle happens to be *)
  let heap_words = Stats.median (Stats.sorted (List.map (fun s -> float s.heap_words) samples)) in
  Printf.printf "%s: %d ops (%d kinds, %d domains), seed %d, OCaml %s, nproc %d\n" w.W.name n
    (Array.length inst.W.kinds) w.W.domains seed Sys.ocaml_version
    (Domain.recommended_domain_count ());
  List.iter print_endline inst.W.notes;
  Array.iteri
    (fun k name ->
      let mine = List.filter (fun s -> s.kind = k) samples in
      if mine <> [] then
        Printf.printf "  %-16s %4d ops  p50 %.6f s  alloc %.6f Mwords  promoted %.6f Mwords\n" name
          (List.length mine)
          (Stats.median (Stats.sorted (List.map (fun s -> s.lat) mine)))
          (per_kind_median (fun s -> s.alloc.Alloc.minor_words) mine /. 1e6)
          (per_kind_median (fun s -> s.alloc.Alloc.promoted_words) mine /. 1e6))
    inst.W.kinds;
  Printf.printf "setup runs: %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  print_result ~samples
    [ ("setup_s", Stats.median (Stats.sorted setup_times), "s");
      ("throughput_ops", throughput samples, "1/s");
      ("latency_p50_s", get (Stats.percentile lat ~pct:50), "s");
      ("latency_p90_s", get (Stats.percentile lat ~pct:90), "s");
      ("cpu_per_op_s", sum (fun s -> s.cpu_s) samples /. float n, "s");
      ("alloc_mwords_per_op", per_kind_median (fun s -> s.alloc.Alloc.minor_words) samples /. 1e6, "Mwords");
      ( "promoted_mwords_per_op",
        per_kind_median (fun s -> s.alloc.Alloc.promoted_words) samples /. 1e6,
        "Mwords" );
      ("heap_mb", heap_words *. float (Sys.word_size / 8) /. 1e6, "MB");
      ("ok_frac", float (ok_count samples) /. float n, "ratio") ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

let time_median reps f =
  Stats.median
    (Stats.sorted
       (List.init reps (fun _ ->
            let t0 = now () in
            ignore (Sys.opaque_identity (f ()));
            now () -. t0)))

(* [(metric, value, unit)] for every per-layer metric; layers a workload
   does not run report 0 *)
let per_layer (w : W.t) (inst : W.instance) ~plain ~traced =
  let progs = inst.W.programs in
  let median_over f = Stats.median (Stats.sorted (List.map f progs)) in
  let schema (p : Progs.prog) = Emma.Session.schema_of_tables p.Progs.tables in
  let key_s =
    median_over (fun p -> time_median 5 (fun () -> Emma.Pipeline.normalized_key ~schema:(schema p) p.Progs.program))
  in
  let compile_s = median_over (fun p -> time_median 3 (fun () -> Emma.Pipeline.compile p.Progs.program)) in
  (* Session.submit on a warm session, less the engine and the key *)
  let session_overhead_s =
    median_over (fun p ->
        let t0 = now () in
        let o, _ = Emma.Session.submit inst.W.probe_session p.Progs.program ~tables:p.Progs.tables in
        let dt = now () -. t0 in
        dt -. (Emma.Session.metrics_of_outcome o).Metrics.wall_time_s -. key_s)
  in
  let ops = float (List.length traced) in
  let per_op f = sum f traced /. ops in
  let metric_sum f s = List.fold_left (fun acc m -> acc +. f m) 0.0 s.summary.W.metrics in
  let m_int f = metric_sum (fun m -> float (f m)) in
  let hits = sum (m_int (fun m -> m.Metrics.plan_cache_hits)) traced in
  let misses = sum (m_int (fun m -> m.Metrics.plan_cache_misses)) traced in
  let steals = sum (m_int (fun m -> m.Metrics.par_steals)) traced in
  let steal_misses = sum (m_int (fun m -> m.Metrics.par_steal_misses)) traced in
  let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  let bucket_all b s = Option.value ~default:0.0 (List.assoc_opt b (fst s.layers)) in
  let bucket_main b s = Option.value ~default:0.0 (List.assoc_opt b (snd s.layers)) in
  let exec_s = per_op (metric_sum (fun m -> m.Metrics.wall_time_s)) in
  let is_serve = w.W.name = "serve" || w.W.name = "recover" in
  let wal f = per_op (fun s -> match s.summary.W.wal with Some st -> float (f st) | None -> 0.0) in
  let program_p50 name =
    match Array.find_index (String.equal name) inst.W.kinds with
    | Some k ->
        Stats.median (Stats.sorted (List.filter_map (fun s -> if s.kind = k then Some s.lat else None) plain))
    | _ -> 0.0
  in
  [ ("compiler.key_s", key_s, "s");
    ("compiler.compile_s", compile_s, "s");
    ("compiler.plan_cache_hit_ratio", ratio hits misses, "ratio");
    ("engine.exec_s", exec_s, "s") ]
  @ List.map (fun k -> (Layers.op_bucket k, per_op (bucket_all (Layers.op_bucket k)), "s")) Layers.op_kinds
  @ [ ("engine.stages", per_op (m_int (fun m -> m.Metrics.stages)), "count");
      ("engine.udf_invocations", per_op (m_int (fun m -> m.Metrics.udf_invocations)), "count") ]
  @ List.map (fun name -> (Printf.sprintf "program.%s.p50_s" name, program_p50 name, "s")) Progs.batch_names
  @ [ ("pool.tasks", per_op (m_int (fun m -> m.Metrics.par_tasks)), "count");
      ("pool.chunks", per_op (m_int (fun m -> m.Metrics.par_chunks)), "count");
      ("pool.steal_ratio", ratio steals steal_misses, "ratio");
      ("pool.barrier_wait_s", per_op (bucket_all Layers.barrier_wait), "s");
      ("session.overhead_s", session_overhead_s, "s");
      ( "serve.loop_s",
        (if is_serve then
           per_op (fun s ->
               s.lat -. s.summary.W.wal_open_s -. metric_sum (fun m -> m.Metrics.wall_time_s) s
               -. bucket_main Layers.compile_phases s
               -. (float s.summary.W.submits *. (key_s +. session_overhead_s)))
         else 0.0),
        "s" );
      ("wal.open_s", per_op (fun s -> s.summary.W.wal_open_s), "s");
      ("wal.snapshot_load_s", per_op (fun s -> s.summary.W.snapshot_load_s), "s");
      ("wal.appends", wal (fun st -> st.Emma_util.Wal.wa_appends), "count");
      ("wal.bytes", wal (fun st -> st.Emma_util.Wal.wa_bytes), "bytes");
      ("wal.fsyncs", wal (fun st -> st.Emma_util.Wal.wa_fsyncs), "count");
      ("recovery.replayed", per_op (m_int (fun m -> m.Metrics.recovery_replayed)), "count") ]

let traced_run (w : W.t) ~seed ~seconds ~work_dir =
  let half = seconds /. 2.0 in
  let _, plain_inst = time_set_up (w.W.prepare ~seed ~work_dir ~tracer:None) in
  let gc0 = Gc.quick_stat () in
  let plain = run_loop w plain_inst ~seconds:half ~min_ops:(Array.length plain_inst.W.kinds) () in
  let gc1 = Gc.quick_stat () in
  plain_inst.W.close ();
  let tracer = Trace.create () in
  Trace.set_global tracer;
  let _, inst = time_set_up (w.W.prepare ~seed ~work_dir ~tracer:(Some tracer)) in
  let traced = run_loop w inst ~tracer ~seconds:half ~min_ops:(Array.length inst.W.kinds) () in
  let chrome = Filename.concat work_dir (w.W.name ^ ".trace.json") in
  Trace.write_chrome_json tracer chrome;
  Trace.set_global Trace.disabled;
  let metrics = per_layer w inst ~plain ~traced in
  inst.W.close ();
  let n_plain = float (List.length plain) in
  let gc_metrics =
    [ ("gc.minor_collections", float (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. n_plain, "count");
      ("gc.major_collections", float (gc1.Gc.major_collections - gc0.Gc.major_collections) /. n_plain, "count") ]
  in
  let ops = float (List.length traced) in
  let op_s = sum (fun s -> s.lat) traced /. ops in
  Printf.printf
    "%s: self time per layer, mean of %d traced ops (%.6f s each); the calling domain's column adds up to the op\n"
    w.W.name (List.length traced) op_s;
  Printf.printf "  %-36s %12s %8s %12s\n" "layer" "calling" "share" "all domains";
  let mean_of pick b = sum (fun s -> Option.value ~default:0.0 (List.assoc_opt b (pick s.layers))) traced /. ops in
  let buckets = List.sort_uniq compare (List.concat_map (fun s -> List.map fst (fst s.layers)) traced) in
  let covered =
    List.fold_left
      (fun acc b ->
        let v = mean_of snd b in
        Printf.printf "  %-36s %10.6f s %7.1f%% %10.6f s\n" b v (100.0 *. v /. op_s) (mean_of fst b);
        acc +. v)
      0.0 buckets
  in
  Printf.printf "  %-36s %10.6f s  (op time %.6f s)\n" "sum" covered op_s;
  let tp_plain = throughput plain and tp_traced = throughput traced in
  Printf.printf "tracing overhead: throughput_ops %.3f/s untraced vs %.3f/s traced (%.1f%% lower)\n" tp_plain
    tp_traced (100.0 *. (1.0 -. (tp_traced /. tp_plain)));
  Printf.printf "chrome trace of the last op: %s\n" chrome;
  let all = metrics @ gc_metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-40s %14.6g %s\n" name v unit) all;
  print_result ~samples:(plain @ traced) all

(* ------------------------------------------------------------------ *)
(* Smoke check                                                          *)
(* ------------------------------------------------------------------ *)

(* On one domain the same op allocates the same to the word, except that
   a recovery op now and then allocates 2 words more (about 1 op in 14;
   the cause, somewhere on the recovery path, is not known). The reported
   allocation is a per-kind median, so the smoke check compares that
   median between two passes of [smoke_reps] ops per kind, enough that the
   occasional extra words do not move it. *)
let smoke_reps = 9

let smoke ~work_dir =
  let results =
    List.map
      (fun (w : W.t) ->
        let _, inst = time_set_up (w.W.prepare ~seed:1 ~work_dir ~tracer:None) in
        let kinds = Array.length inst.W.kinds in
        let reps = if w.W.domains > 1 then 1 else smoke_reps in
        let samples = List.init (2 * reps * kinds) (fun i -> run_op w inst i) in
        inst.W.close ();
        (* a workload without ops would pass every other test vacuously *)
        let all_ok = samples <> [] && ok_count samples = List.length samples in
        let pass first = List.filteri (fun i _ -> i < reps * kinds = first) samples in
        let alloc f pass = if pass = [] then nan else per_kind_median f pass in
        let minor = alloc (fun s -> s.alloc.Alloc.minor_words)
        and promoted = alloc (fun s -> s.alloc.Alloc.promoted_words) in
        let exact =
          w.W.domains > 1
          || (minor (pass true) = minor (pass false) && promoted (pass true) = promoted (pass false))
        in
        Printf.printf "smoke %-10s %d ops, %d ok, allocation %s\n%!" w.W.name (List.length samples)
          (ok_count samples)
          (if w.W.domains > 1 then "summed over domains"
           else if exact then "identical between passes"
           else "DIFFERS");
        all_ok && exact)
      W.all
  in
  let ok = List.for_all Fun.id results in
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false and work_dir = ref "perfbench/_work" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME batch | serve | recover");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory for journals and traces");
      ("--smoke", Arg.Set smoke_mode, " run every workload for a few ops") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !work_dir) then Sys.mkdir !work_dir 0o755;
  if !smoke_mode then smoke ~work_dir:!work_dir
  else
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
    | None ->
        prerr_endline ("unknown --workload " ^ !workload);
        exit 2
    | Some w ->
        (* a failed check is reported in the result line, never by aborting *)
        if !trace = 1 then traced_run w ~seed:!seed ~seconds:!seconds ~work_dir:!work_dir
        else end_to_end w ~seed:!seed ~seconds:!seconds ~work_dir:!work_dir
