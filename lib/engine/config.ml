(* First-class engine configuration: one record consolidating every
   execution knob that used to travel as nine separate optional
   arguments. The canonical home of [udf_mode] and [chunk_spec] (Exec
   re-exports both so existing [Engine.Interp] / [Engine.Chunk_auto]
   call sites keep compiling). *)

module Pool = Emma_util.Pool
module Trace = Emma_util.Trace
module Json = Emma_util.Json

type udf_mode = Interp | Compiled
type chunk_spec = Chunk_auto | Chunk_fixed of int

type breaker_spec = { br_threshold : int; br_cooldown_s : float }

type t = {
  udf_mode : udf_mode;
  faults : Faults.t;
  checkpoint_every : int option;
  mem_budget : float option;
  spill : bool;
  max_inflight : int option;
  pool : Pool.t option;
  chunk : chunk_spec;
  trace : Trace.t option;
  domains : int option;
  plan_cache : int option;
  timeout_s : float option;
  deadline_s : float option;
  max_queue : int option;
  breaker : breaker_spec option;
  drain_after_s : float option;
  wal_dir : string option;
  wal_sync : Emma_util.Wal.sync_policy;
  snapshot_every : int option;
}

let default =
  {
    udf_mode = Compiled;
    faults = Faults.none;
    checkpoint_every = None;
    mem_budget = None;
    spill = false;
    max_inflight = None;
    pool = None;
    chunk = Chunk_auto;
    trace = None;
    domains = None;
    plan_cache = Some 64;
    timeout_s = None;
    deadline_s = None;
    max_queue = None;
    breaker = None;
    drain_after_s = None;
    wal_dir = None;
    wal_sync = Emma_util.Wal.Sync_none;
    snapshot_every = None;
  }

let with_udf_mode udf_mode t = { t with udf_mode }
let with_faults faults t = { t with faults }
let with_checkpoint_every checkpoint_every t = { t with checkpoint_every }
let with_mem_budget mem_budget t = { t with mem_budget }
let with_spill spill t = { t with spill }
let with_max_inflight max_inflight t = { t with max_inflight }
let with_pool pool t = { t with pool }
let with_chunk chunk t = { t with chunk }
let with_trace trace t = { t with trace }
let with_domains domains t = { t with domains }
let with_plan_cache plan_cache t = { t with plan_cache }
let with_timeout_s timeout_s t = { t with timeout_s }
let with_deadline_s deadline_s t = { t with deadline_s }
let with_max_queue max_queue t = { t with max_queue }
let with_breaker breaker t = { t with breaker }

(* ------------------------------------------------------------------ *)
(* CLI-facing parsers. The error strings double as the one-line exit-2  *)
(* messages of every subcommand, so they are worded actionably and      *)
(* shared verbatim by run, bench and serve.                             *)
(* ------------------------------------------------------------------ *)

let parse_udf_mode s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreted" -> Ok Interp
  | "compiled" | "staged" -> Ok Compiled
  | _ ->
      Error
        (Printf.sprintf
           "--udf-mode %s is invalid: expected `interp' or `compiled'" s)

let parse_chunk s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Ok Chunk_auto
  | s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> Ok (Chunk_fixed k)
      | Some k ->
          Error
            (Printf.sprintf
               "--chunk %d is invalid: a fixed chunk must hold at least 1 row \
                (or pass `auto' to size chunks from the cost model)"
               k)
      | None ->
          Error
            (Printf.sprintf
               "--chunk %s is invalid: expected `auto' or a row count >= 1" s))

let parse_plan_cache s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" -> Ok None
  | s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> Ok (Some k)
      | _ ->
          Error
            (Printf.sprintf
               "--plan-cache %s is invalid: expected `off' or a capacity >= 1"
               s))

(* "K" or "K:COOLDOWN_S": open a tenant's circuit after K consecutive
   bad outcomes, probe again after COOLDOWN_S simulated seconds (default
   30). "off" disables. *)
let parse_breaker s =
  let invalid () =
    Error
      (Printf.sprintf
         "--breaker %s is invalid: expected `off' or `K[:COOLDOWN_S]' with K \
          >= 1 consecutive failures and a cooldown > 0 (e.g. --breaker 3:30)"
         s)
  in
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Ok None
  | spec -> (
      let k_str, cd_str =
        match String.index_opt spec ':' with
        | None -> (spec, "30")
        | Some i ->
            ( String.sub spec 0 i,
              String.sub spec (i + 1) (String.length spec - i - 1) )
      in
      match (int_of_string_opt k_str, float_of_string_opt cd_str) with
      | Some k, Some cd when k >= 1 && cd > 0.0 && Float.is_finite cd ->
          Ok (Some { br_threshold = k; br_cooldown_s = cd })
      | _ -> invalid ())

let of_cli ?(base = default) ?udf_mode ?chunk ?chaos_seed ?chaos_rates
    ?checkpoint_every ?mem_per_slot ?spill ?max_inflight ?domains ?plan_cache
    ?timeout ?deadline ?max_queue ?breaker ?drain_after ?wal ?wal_sync
    ?snapshot_every () =
  let ( let* ) = Result.bind in
  let* udf_mode =
    match udf_mode with
    | None -> Ok base.udf_mode
    | Some s -> parse_udf_mode s
  in
  let* chunk =
    match chunk with None -> Ok base.chunk | Some s -> parse_chunk s
  in
  let* faults =
    match (chaos_seed, chaos_rates) with
    | None, None -> Ok base.faults
    | None, Some _ ->
        Error
          "--chaos-rates has no effect without --chaos-seed: pass a seed to \
           turn chaos on"
    | Some seed, None -> Ok (Faults.seeded seed)
    | Some seed, Some spec -> (
        match Faults.rates_of_string spec with
        | Ok rates -> Ok (Faults.seeded ~rates seed)
        | Error e -> Error (Printf.sprintf "--chaos-rates %s" e))
  in
  let* checkpoint_every =
    match checkpoint_every with
    | None -> Ok base.checkpoint_every
    | Some k when k >= 1 -> Ok (Some k)
    | Some k ->
        Error
          (Printf.sprintf
             "--checkpoint-every %d is invalid: the checkpoint interval must \
              be at least 1 iteration (omit the flag to disable checkpointing)"
             k)
  in
  let* mem_budget =
    match mem_per_slot with
    | None -> Ok base.mem_budget
    | Some b when b > 0.0 && Float.is_finite b -> Ok (Some b)
    | Some b ->
        Error
          (Printf.sprintf
             "--mem-per-slot %g is invalid: the per-slot budget must be a \
              positive number of logical bytes (try e.g. --mem-per-slot 64e6)"
             b)
  in
  let* max_inflight =
    match max_inflight with
    | None -> Ok base.max_inflight
    | Some k when k >= 1 -> Ok (Some k)
    | Some k ->
        Error
          (Printf.sprintf
             "--max-inflight %d is invalid: at least one job must be allowed \
              in flight (omit the flag for unbounded admission)"
             k)
  in
  let* domains =
    match domains with
    | None -> Ok base.domains
    | Some d when d >= 1 -> Ok (Some d)
    | Some d ->
        Error
          (Printf.sprintf
             "--domains %d is invalid: at least 1 domain must run partition \
              work"
             d)
  in
  let* plan_cache =
    match plan_cache with
    | None -> Ok base.plan_cache
    | Some s -> parse_plan_cache s
  in
  let positive_seconds flag base = function
    | None -> Ok base
    | Some s when s > 0.0 && Float.is_finite s -> Ok (Some s)
    | Some s ->
        Error
          (Printf.sprintf
             "%s %g is invalid: expected a positive number of seconds" flag s)
  in
  let* timeout_s = positive_seconds "--timeout" base.timeout_s timeout in
  let* deadline_s = positive_seconds "--deadline" base.deadline_s deadline in
  let* max_queue =
    match max_queue with
    | None -> Ok base.max_queue
    | Some k when k >= 1 -> Ok (Some k)
    | Some k ->
        Error
          (Printf.sprintf
             "--max-queue %d is invalid: each tenant queue must hold at least \
              1 query (omit the flag for unbounded queues)"
             k)
  in
  let* breaker =
    match breaker with None -> Ok base.breaker | Some s -> parse_breaker s
  in
  let* drain_after_s =
    match drain_after with
    | None -> Ok base.drain_after_s
    | Some s when s >= 0.0 && Float.is_finite s -> Ok (Some s)
    | Some s ->
        Error
          (Printf.sprintf
             "--drain-after %g is invalid: expected a non-negative number of \
              seconds"
             s)
  in
  let* wal_dir =
    match wal with
    | None -> Ok base.wal_dir
    | Some "" -> Error "--wal expects a journal directory path"
    | Some dir -> Ok (Some dir)
  in
  let* wal_sync =
    match wal_sync with
    | None -> Ok base.wal_sync
    | Some s -> (
        if wal_dir = None then
          Error "--wal-sync has no effect without --wal: pass a journal directory"
        else
          match Emma_util.Wal.sync_policy_of_string s with
          | Ok p -> Ok p
          | Error e -> Error e)
  in
  let* snapshot_every =
    match snapshot_every with
    | None -> Ok base.snapshot_every
    | Some _ when wal_dir = None ->
        Error
          "--snapshot-every has no effect without --wal: pass a journal \
           directory"
    | Some k when k >= 1 -> Ok (Some k)
    | Some k ->
        Error
          (Printf.sprintf
             "--snapshot-every %d is invalid: the snapshot interval must be \
              at least 1 outcome record"
             k)
  in
  Ok
    {
      base with
      udf_mode;
      chunk;
      faults;
      checkpoint_every;
      mem_budget;
      spill = (match spill with Some b -> b | None -> base.spill);
      max_inflight;
      domains;
      plan_cache;
      timeout_s;
      deadline_s;
      max_queue;
      breaker;
      drain_after_s;
      wal_dir;
      wal_sync;
      snapshot_every;
    }

let udf_mode_to_string = function Interp -> "interp" | Compiled -> "compiled"

let chunk_to_string = function
  | Chunk_auto -> "auto"
  | Chunk_fixed k -> string_of_int k

let to_json t =
  let opt_int = function Some k -> Json.Int k | None -> Json.Null in
  let opt_float = function Some f -> Json.Float f | None -> Json.Null in
  Json.Obj
    [
      ("udf_mode", Json.Str (udf_mode_to_string t.udf_mode));
      ("chaos", Json.Bool (not (Faults.is_none t.faults)));
      ("checkpoint_every", opt_int t.checkpoint_every);
      ("mem_budget", opt_float t.mem_budget);
      ("spill", Json.Bool t.spill);
      ("max_inflight", opt_int t.max_inflight);
      ("pool", Json.Str (match t.pool with Some _ -> "custom" | None -> "default"));
      ("chunk", Json.Str (chunk_to_string t.chunk));
      ("trace", Json.Bool (match t.trace with Some tr -> Trace.enabled tr | None -> false));
      ("domains", opt_int t.domains);
      ( "plan_cache",
        match t.plan_cache with Some k -> Json.Int k | None -> Json.Str "off" );
      ("timeout_s", opt_float t.timeout_s);
      ("deadline_s", opt_float t.deadline_s);
      ("max_queue", opt_int t.max_queue);
      ( "breaker",
        match t.breaker with
        | None -> Json.Null
        | Some b ->
            Json.Obj
              [
                ("threshold", Json.Int b.br_threshold);
                ("cooldown_s", Json.Float b.br_cooldown_s);
              ] );
      ("drain_after_s", opt_float t.drain_after_s);
      ( "wal",
        match t.wal_dir with Some d -> Json.Str d | None -> Json.Null );
      ("wal_sync", Json.Str (Emma_util.Wal.sync_policy_to_string t.wal_sync));
      ("snapshot_every", opt_int t.snapshot_every);
    ]
