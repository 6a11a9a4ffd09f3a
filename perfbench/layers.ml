(* Self time per layer, from the spans of one traced op.

   The benchmark wraps each op in a ["bench"] span; the engine and compiler
   emit their existing spans inside it (["compile"] phases, ["job"],
   ["stage"] operators and barriers, ["task"] partitions). A span's self
   time is its duration minus the time its direct children on the same
   domain cover. Partition tasks are the operator's own work, so a task's
   self time goes to the operator that launched it; a barrier's self time
   is therefore what the coordinator waited for other domains. Spans of
   one domain tile its op span exactly, so on the domain that made the
   call the buckets add up to the op time. *)

module Trace = Emma_util.Trace

let op_kinds =
  [ "read"; "scan"; "local"; "map"; "flatMap"; "filter"; "join"; "semijoin"; "antijoin";
    "cross"; "groupBy"; "aggBy"; "fold"; "union"; "minus"; "distinct"; "cache";
    "partitionBy"; "statefulCreate"; "statefulRead"; "statefulUpdate";
    "statefulUpdateMsgs" ]

let op_bucket kind = "engine.op_self_s." ^ kind
let uncovered = "uncovered"
let compile_phases = "compiler.phases"
let job = "engine.job"
let barrier_wait = "pool.barrier_wait_s"
let worker_tasks = "pool.worker_tasks"

type frame = { f_bucket : string; f_start : float; mutable f_children : float }

let bucket_of ~stack (ev : Trace.event) =
  match (ev.Trace.ev_cat, ev.Trace.ev_name) with
  | "bench", _ -> uncovered
  | "compile", _ -> compile_phases
  | "job", _ -> job
  | "stage", "barrier" -> barrier_wait
  | "stage", kind -> op_bucket kind
  | "task", _ -> (
      match
        List.find_opt
          (fun f -> String.starts_with ~prefix:"engine.op_self_s." f.f_bucket)
          stack
      with
      | Some f -> f.f_bucket
      | None -> worker_tasks)
  | cat, _ -> "other." ^ cat

(* [(bucket, seconds)] summed over every domain, and the same restricted to
   [main_tid], the domain that made the timed call. *)
let self_times ~main_tid events =
  let all = Hashtbl.create 32 and main = Hashtbl.create 32 in
  let add tbl b s = Hashtbl.replace tbl b (s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl b)) in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (ev : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks ev.Trace.ev_tid) in
      match ev.Trace.ev_ph with
      | Trace.B ->
          let f = { f_bucket = bucket_of ~stack ev; f_start = ev.Trace.ev_ts_us; f_children = 0.0 } in
          Hashtbl.replace stacks ev.Trace.ev_tid (f :: stack)
      | Trace.E -> (
          match stack with
          | f :: rest ->
              let dur = ev.Trace.ev_ts_us -. f.f_start in
              let self = (dur -. f.f_children) /. 1e6 in
              add all f.f_bucket self;
              if ev.Trace.ev_tid = main_tid then add main f.f_bucket self;
              (match rest with p :: _ -> p.f_children <- p.f_children +. dur | [] -> ());
              Hashtbl.replace stacks ev.Trace.ev_tid rest
          | [] -> ())
      | Trace.I | Trace.C -> ())
    events;
  let to_list tbl = Hashtbl.fold (fun b s acc -> (b, s) :: acc) tbl [] |> List.sort compare in
  (to_list all, to_list main)
