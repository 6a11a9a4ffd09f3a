(* Shared helpers for the experiment harness. Every experiment prints a
   paper-shaped table: simulated runtimes (or speedups) next to the values
   the paper reports, plus FAIL/timeout rows where the paper reports them. *)

module Value = Emma_value.Value
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Config = Emma_engine.Config
module Pipeline = Emma_compiler.Pipeline

module Json = Emma_util.Json

let timeout_1h = 3600.0

type run = Time of float * Metrics.t | Fail of string | Timeout of float

(* Machine-readable run reports (bench --report DIR): every [run_config]
   call is recorded here; bench/main.ml writes one JSON file per
   experiment via [write_report]. *)
let runs : (string * Metrics.t) list ref = ref []
let reset_runs () = runs := []

let note_outcome outcome =
  let entry =
    match outcome with
    | Emma.Finished { metrics; _ } -> ("finished", metrics)
    | Emma.Failed { metrics; _ } -> ("failed", metrics)
    | Emma.Timed_out { metrics; _ } -> ("timeout", metrics)
    | Emma.Cancelled { metrics; _ } -> ("cancelled", metrics)
  in
  runs := entry :: !runs

let write_report ~dir name =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let report =
    Json.Obj
      [ ("experiment", Json.Str name);
        ( "runs",
          Json.List
            (List.mapi
               (fun i (status, m) ->
                 Json.Obj
                   [ ("i", Json.Int i);
                     ("status", Json.Str status);
                     ("metrics", Metrics.to_json m) ])
               (List.rev !runs)) ) ]
  in
  let path = Filename.concat dir (name ^ ".json") in
  (* temp-then-rename: a crash mid-write never leaves a torn report *)
  Emma_util.Wal.write_atomic path (Json.to_string report ^ "\n");
  Printf.eprintf "report written to %s\n" path

let run_config ?config ~rt ~opts prog tables =
  let algo = Emma.parallelize ~opts prog in
  let outcome = Emma.run_on ?config rt algo ~tables in
  note_outcome outcome;
  match outcome with
  | Emma.Finished { metrics; _ } -> Time (metrics.Metrics.sim_time_s, metrics)
  | Emma.Failed { reason; _ } -> Fail reason
  | Emma.Timed_out { at_s; _ } -> Timeout at_s
  | Emma.Cancelled { at_s; reason; _ } ->
      Fail (Printf.sprintf "cancelled at %.1f s: %s" at_s reason)

let time_cell = function
  | Time (s, _) -> Printf.sprintf "%.0f s" s
  | Fail _ -> "FAIL (OOM)"
  | Timeout _ -> Printf.sprintf "> %.0f s (timeout)" timeout_1h

let speedup_cell ~baseline run =
  match (baseline, run) with
  | Time (b, _), Time (r, _) -> Printf.sprintf "%.2fx" (b /. r)
  | _, Fail _ -> "FAIL"
  | _, Timeout _ -> "timeout"
  | (Fail _ | Timeout _), Time _ -> "inf (baseline failed)"

let rt ~profile ?(dop = 320) ?(data_scale = 1.0) ?(table_scales = []) ?(timeout_s = timeout_1h)
    () =
  Emma.
    { cluster = Cluster.paper_cluster ~dop ~data_scale ~table_scales ();
      profile;
      timeout_s = Some timeout_s }

let spark = Cluster.spark_like
let flink = Cluster.flink_like

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
