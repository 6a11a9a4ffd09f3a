type t = {
  mutable sim_time_s : float;
  mutable shuffle_bytes : float;
  mutable broadcast_bytes : float;
  mutable dfs_read_bytes : float;
  mutable dfs_write_bytes : float;
  mutable collect_bytes : float;
  mutable parallelize_bytes : float;
  mutable spilled_bytes : float;
  mutable jobs : int;
  mutable stages : int;
  mutable recomputes : int;
  mutable cache_hits : int;
  mutable cache_losses : int;
  mutable udf_invocations : int;
  mutable wall_time_s : float;
  mutable par_stages : int;
  mutable par_tasks : int;
  mutable par_chunks : int;
  mutable par_steals : int;
  mutable par_steal_misses : int;
  mutable retries : int;
  mutable fetch_failures : int;
  mutable executor_losses : int;
  mutable blacklisted_nodes : int;
  mutable recomputed_partitions : int;
  mutable speculative_launches : int;
  mutable speculative_wins : int;
  mutable checkpoints : int;
  mutable checkpoint_bytes : float;
  mutable loop_restores : int;
  mutable mem_peak_bytes : float;
  mutable mem_spills : int;
  mutable mem_spill_bytes : float;
  mutable oom_kills : int;
  mutable cache_evictions : int;
  mutable evicted_bytes : float;
  mutable jobs_queued : int;
  mutable queue_wait_s : float;
  mutable checkpoint_corruptions : int;
  mutable plan_cache_hits : int;
  mutable plan_cache_misses : int;
  mutable plan_cache_evictions : int;
  mutable cancellations : int;
  mutable wal_appends : int;
  mutable wal_bytes : float;
  mutable wal_fsyncs : int;
  mutable recovery_replayed : int;
}

let create () =
  {
    sim_time_s = 0.0;
    shuffle_bytes = 0.0;
    broadcast_bytes = 0.0;
    dfs_read_bytes = 0.0;
    dfs_write_bytes = 0.0;
    collect_bytes = 0.0;
    parallelize_bytes = 0.0;
    spilled_bytes = 0.0;
    jobs = 0;
    stages = 0;
    recomputes = 0;
    cache_hits = 0;
    cache_losses = 0;
    udf_invocations = 0;
    wall_time_s = 0.0;
    par_stages = 0;
    par_tasks = 0;
    par_chunks = 0;
    par_steals = 0;
    par_steal_misses = 0;
    retries = 0;
    fetch_failures = 0;
    executor_losses = 0;
    blacklisted_nodes = 0;
    recomputed_partitions = 0;
    speculative_launches = 0;
    speculative_wins = 0;
    checkpoints = 0;
    checkpoint_bytes = 0.0;
    loop_restores = 0;
    mem_peak_bytes = 0.0;
    mem_spills = 0;
    mem_spill_bytes = 0.0;
    oom_kills = 0;
    cache_evictions = 0;
    evicted_bytes = 0.0;
    jobs_queued = 0;
    queue_wait_s = 0.0;
    checkpoint_corruptions = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    plan_cache_evictions = 0;
    cancellations = 0;
    wal_appends = 0;
    wal_bytes = 0.0;
    wal_fsyncs = 0;
    recovery_replayed = 0;
  }

let cost m =
  {
    m with
    wall_time_s = 0.0;
    par_stages = 0;
    par_tasks = 0;
    par_chunks = 0;
    par_steals = 0;
    par_steal_misses = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    plan_cache_evictions = 0;
    wal_appends = 0;
    wal_bytes = 0.0;
    wal_fsyncs = 0;
    recovery_replayed = 0;
  }

let add_time m s = m.sim_time_s <- m.sim_time_s +. s

let human_bytes b =
  if b >= 1e12 then Printf.sprintf "%.2f TB" (b /. 1e12)
  else if b >= 1e9 then Printf.sprintf "%.2f GB" (b /. 1e9)
  else if b >= 1e6 then Printf.sprintf "%.2f MB" (b /. 1e6)
  else if b >= 1e3 then Printf.sprintf "%.2f KB" (b /. 1e3)
  else Printf.sprintf "%.0f B" b

(* Formatting is pinned for golden files and machine-readable reports:
   OCaml's Printf always formats with the C locale's dot decimal point
   (it never consults the process locale), and the precision of every
   float cell is fixed — %.1f for simulated seconds, %.6f for host wall
   time — so rendered output is byte-stable across hosts. *)
let to_rows m =
  [
    ("sim time", Printf.sprintf "%.1f s" m.sim_time_s);
    ("shuffled", human_bytes m.shuffle_bytes);
    ("broadcast", human_bytes m.broadcast_bytes);
    ("dfs read", human_bytes m.dfs_read_bytes);
    ("dfs write", human_bytes m.dfs_write_bytes);
    ("collected", human_bytes m.collect_bytes);
    ("parallelized", human_bytes m.parallelize_bytes);
    ("spilled", human_bytes m.spilled_bytes);
    ("jobs", string_of_int m.jobs);
    ("stages", string_of_int m.stages);
    ("recomputes", string_of_int m.recomputes);
    ("cache hits", string_of_int m.cache_hits);
    ("cache losses", string_of_int m.cache_losses);
    ("wall time", Printf.sprintf "%.6f s" m.wall_time_s);
    ("par stages", string_of_int m.par_stages);
    ("par tasks", string_of_int m.par_tasks);
    ("par chunks", string_of_int m.par_chunks);
    ("par steals", string_of_int m.par_steals);
    ("par steal misses", string_of_int m.par_steal_misses);
    ("retries", string_of_int m.retries);
    ("fetch failures", string_of_int m.fetch_failures);
    ("executor losses", string_of_int m.executor_losses);
    ("blacklisted", string_of_int m.blacklisted_nodes);
    ("recomputed parts", string_of_int m.recomputed_partitions);
    ("spec launches", string_of_int m.speculative_launches);
    ("spec wins", string_of_int m.speculative_wins);
    ("checkpoints", string_of_int m.checkpoints);
    ("checkpoint bytes", human_bytes m.checkpoint_bytes);
    ("loop restores", string_of_int m.loop_restores);
    ("mem peak", human_bytes m.mem_peak_bytes);
    ("mem spills", string_of_int m.mem_spills);
    ("mem spill bytes", human_bytes m.mem_spill_bytes);
    ("oom kills", string_of_int m.oom_kills);
    ("cache evictions", string_of_int m.cache_evictions);
    ("evicted bytes", human_bytes m.evicted_bytes);
    ("jobs queued", string_of_int m.jobs_queued);
    ("queue wait", Printf.sprintf "%.1f s" m.queue_wait_s);
    ("ckpt corruptions", string_of_int m.checkpoint_corruptions);
    ("plan hits", string_of_int m.plan_cache_hits);
    ("plan misses", string_of_int m.plan_cache_misses);
    ("plan evictions", string_of_int m.plan_cache_evictions);
    ("cancellations", string_of_int m.cancellations);
    ("wal appends", string_of_int m.wal_appends);
    ("wal bytes", human_bytes m.wal_bytes);
    ("wal fsyncs", string_of_int m.wal_fsyncs);
    ("recovery replayed", string_of_int m.recovery_replayed);
  ]

let pp ppf m =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (k, v) -> Fmt.pf ppf "%-14s %s" k v))
    (to_rows m)

module Json = Emma_util.Json

let to_json m =
  Json.Obj
    [
      ("sim_time_s", Json.Float m.sim_time_s);
      ("shuffle_bytes", Json.Float m.shuffle_bytes);
      ("broadcast_bytes", Json.Float m.broadcast_bytes);
      ("dfs_read_bytes", Json.Float m.dfs_read_bytes);
      ("dfs_write_bytes", Json.Float m.dfs_write_bytes);
      ("collect_bytes", Json.Float m.collect_bytes);
      ("parallelize_bytes", Json.Float m.parallelize_bytes);
      ("spilled_bytes", Json.Float m.spilled_bytes);
      ("jobs", Json.Int m.jobs);
      ("stages", Json.Int m.stages);
      ("recomputes", Json.Int m.recomputes);
      ("cache_hits", Json.Int m.cache_hits);
      ("cache_losses", Json.Int m.cache_losses);
      ("udf_invocations", Json.Int m.udf_invocations);
      ("wall_time_s", Json.Float m.wall_time_s);
      ("par_stages", Json.Int m.par_stages);
      ("par_tasks", Json.Int m.par_tasks);
      ("par_chunks", Json.Int m.par_chunks);
      ("par_steals", Json.Int m.par_steals);
      ("par_steal_misses", Json.Int m.par_steal_misses);
      ("retries", Json.Int m.retries);
      ("fetch_failures", Json.Int m.fetch_failures);
      ("executor_losses", Json.Int m.executor_losses);
      ("blacklisted_nodes", Json.Int m.blacklisted_nodes);
      ("recomputed_partitions", Json.Int m.recomputed_partitions);
      ("speculative_launches", Json.Int m.speculative_launches);
      ("speculative_wins", Json.Int m.speculative_wins);
      ("checkpoints", Json.Int m.checkpoints);
      ("checkpoint_bytes", Json.Float m.checkpoint_bytes);
      ("loop_restores", Json.Int m.loop_restores);
      ("mem_peak_bytes", Json.Float m.mem_peak_bytes);
      ("mem_spills", Json.Int m.mem_spills);
      ("mem_spill_bytes", Json.Float m.mem_spill_bytes);
      ("oom_kills", Json.Int m.oom_kills);
      ("cache_evictions", Json.Int m.cache_evictions);
      ("evicted_bytes", Json.Float m.evicted_bytes);
      ("jobs_queued", Json.Int m.jobs_queued);
      ("queue_wait_s", Json.Float m.queue_wait_s);
      ("checkpoint_corruptions", Json.Int m.checkpoint_corruptions);
      ("plan_cache_hits", Json.Int m.plan_cache_hits);
      ("plan_cache_misses", Json.Int m.plan_cache_misses);
      ("plan_cache_evictions", Json.Int m.plan_cache_evictions);
      ("cancellations", Json.Int m.cancellations);
      ("wal_appends", Json.Int m.wal_appends);
      ("wal_bytes", Json.Float m.wal_bytes);
      ("wal_fsyncs", Json.Int m.wal_fsyncs);
      ("recovery_replayed", Json.Int m.recovery_replayed);
    ]

let to_json_string m = Json.to_string (to_json m)
