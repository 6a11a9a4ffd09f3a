module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Eval = Emma_lang.Eval
module Compile = Emma_lang.Compile
module Expr = Emma_lang.Expr
module Strset = Emma_util.Strset
module Pool = Emma_util.Pool
module Trace = Emma_util.Trace
module Crc32 = Emma_util.Crc32

exception Engine_failure of string
exception Engine_timeout of float
exception Engine_cancelled of float * string

type location = Mem | Dfs

(* Mutable chaos bookkeeping. Sequence counters number the injection
   points in coordinator execution order — the same order at any domain
   count, which is what makes injection domain-invariant. *)
type chaos = {
  mutable barrier_seq : int;  (* par_run barriers (task + executor faults) *)
  mutable cpu_stage_seq : int;  (* charge_local_cpu calls (stragglers) *)
  mutable shuffle_seq : int;  (* shuffles (fetch failures) *)
  mutable boundary_seq : int;  (* driver-loop iteration boundaries *)
  mutable reserve_seq : int;  (* memory reservations (OOM kills) *)
  mutable ckpt_seq : int;  (* loop checkpoints written (corruption) *)
  mutable loss_epoch : int;
      (* bumped on every executor loss: memory-cached results materialized
         in an older epoch are gone on their next use *)
  node_failures : int array;  (* injected task failures per node *)
  blacklisted : bool array;
}

(* Partitioned input tables, shared by every run of a session. A [Read]
   partitions its table and sizes it once per (row list, partition count,
   table scale): the entry for a name is reused only while all three are
   unchanged — the rows compared physically, so a table replaced under the
   same name, or a degraded run at half the dop, builds a fresh entry,
   which then replaces the old one. Entries are published with their stats
   forced, since pool domains share them. *)
type read_entry = {
  r_rows : Value.t list;
  r_nparts : int;
  r_scale : float;
  r_pd : Pdata.t;
}

type read_memo = { r_lock : Mutex.t; r_entries : (string, read_entry) Hashtbl.t }

let read_memo () = { r_lock = Mutex.create (); r_entries = Hashtbl.create 8 }

type t = {
  cluster : Cluster.t;
  profile : Cluster.profile;
  metrics : Metrics.t;
  eval_ctx : Eval.ctx;
  pool : Pool.t;
      (* domain pool running per-partition operator work; shuffles, cost
         charging and the driver stay on the coordinator domain *)
  timeout_s : float option;
  deadline_s : float option;
      (* per-query latency budget on the same simulated clock: exceeding
         it raises [Engine_cancelled] (a service decision) rather than
         [Engine_timeout] (an operator limit) *)
  mutable job_depth : int;
      (* > 0 while a dataflow is executing: nested lineage recomputations
         belong to the enclosing job and are not separate submissions *)
  mutable iteration_rerun : bool;
      (* inside the second or later iteration of a driver loop on an
         engine with native iteration support: job submissions reuse the
         deployed dataflow and pay a reduced overhead *)
  udf_mode : Config.udf_mode;
      (* How worker-side UDF bodies execute: [Interp] walks the [Expr] tree
         with {!Eval} per tuple; [Compiled] stages each body once through
         {!Emma_lang.Compile} and runs the resulting closure. Both share
         the same [worker_env] cost charging and [bump_udf] tally, so
         every cost-model field is bit-identical between modes. *)
  faults : Faults.t;
      (* deterministic fault plan: decides task failures, executor losses,
         fetch failures, stragglers, loop losses, OOM kills and checkpoint
         corruptions at the injection points numbered by [chaos] *)
  chaos : chaos;
  memman : Memman.t;
      (* coordinator-side memory accountant: per-slot budget verdicts for
         state-building operators, the LRU registry of Mem-cached bags,
         and the job admission gate. Unbounded by default — pure peak
         observation *)
  checkpoint_every : int option;
      (* checkpoint driver-loop state every k iterations, so an injected
         loop loss restarts from the last checkpoint instead of iteration
         0 *)
  mutable cache_hit_counter : int;
  read_memo : read_memo;
  tracer : Trace.t;
      (* structured span sink (job/stage/partition-task spans, data-motion
         counters). Never consulted by cost charging: with the tracer on or
         off, results and every cost-model field are bit-identical — only
         observability output differs (property-tested in test_trace.ml) *)
  mutable trace_words : int;
      (* on a one-domain pool, the minor words the tracer's task and stage
         spans have allocated so far, which stage spans leave out of
         their [minor_words] *)
}

type dval =
  | Dscalar of Eval.rvalue
  | Dbag of handle
  | Dstateful of state_handle

and handle = {
  h_plan : Plan.t;
  h_env : env;  (* lineage snapshot: the bindings visible at creation *)
  h_cache : location option;
      (* compiled with a Cache root: materialize on first use, like
         Spark's lazy .cache() *)
  mutable h_mat : (Pdata.t * location) option;
  mutable h_memid : int option;
      (* registry id in [Memman] while this handle's Mem-cached copy is
         admitted; [None] when ungoverned, evicted, or not cached *)
  mutable h_epoch : int;
      (* [chaos.loss_epoch] at materialization time: a memory-resident
         copy from an older epoch was on a node that has since died *)
  mutable h_collected : (Value.t list * float * float) option;
      (* once a bag has been collected, the driver owns the value: further
         driver-side uses (e.g. re-broadcasting it next iteration) do not
         re-run the dataflow — this is what cuts Spark's lineage at the
         collect/broadcast boundary of iterative programs *)
}

and state_handle = {
  s_key : Plan.udf;
  s_keyfn : Value.t -> Value.t;
  s_parts : Value.t Keyed.t array;
  s_rmult : float;
  s_bmult : float;
}

and env = (string * dval) list

type out = Obag of Pdata.t | Oscalar of Value.t | Ostateful of state_handle

let create ?(config = Config.default) ?(read_memo = read_memo ()) ~cluster ~profile
    eval_ctx =
  let pool =
    match config.Config.pool with Some p -> p | None -> Pool.default ()
  in
  let checkpoint_every =
    match config.Config.checkpoint_every with
    | Some k when k < 1 -> invalid_arg "Exec.create: checkpoint_every must be >= 1"
    | k -> k
  in
  { cluster;
    profile;
    metrics = Metrics.create ();
    eval_ctx;
    pool;
    timeout_s = config.Config.timeout_s;
    deadline_s = config.Config.deadline_s;
    job_depth = 0;
    iteration_rerun = false;
    udf_mode = config.Config.udf_mode;
    faults = config.Config.faults;
    chaos =
      { barrier_seq = 0;
        cpu_stage_seq = 0;
        shuffle_seq = 0;
        boundary_seq = 0;
        reserve_seq = 0;
        ckpt_seq = 0;
        loss_epoch = 0;
        node_failures = Array.make (max 1 cluster.Cluster.nodes) 0;
        blacklisted = Array.make (max 1 cluster.Cluster.nodes) false };
    memman =
      Memman.create ?budget:config.Config.mem_budget ~spill:config.Config.spill
        ?max_inflight:config.Config.max_inflight
        ~slots_per_node:cluster.Cluster.slots_per_node ~dop:(Cluster.dop cluster) ();
    checkpoint_every;
    cache_hit_counter = 0;
    read_memo;
    tracer =
      (match config.Config.trace with Some tr -> tr | None -> Trace.global ());
    trace_words = 0 }

let metrics t = t.metrics

(* ------------------------------------------------------------------ *)
(* Cost charging                                                        *)
(* ------------------------------------------------------------------ *)

(* Cooperative-interrupt safepoint. Checked after every cost charge and
   before every partition-dispatch barrier — the same choke points the
   timeout uses, so deadlines also land mid-recovery and
   mid-admission-wait. When both limits trip on the same charge the
   timeout (the operator limit) wins over the deadline. *)
let check_interrupts t =
  (match t.timeout_s with
  | Some limit when t.metrics.Metrics.sim_time_s > limit ->
      raise (Engine_timeout t.metrics.Metrics.sim_time_s)
  | _ -> ());
  match t.deadline_s with
  | Some d when t.metrics.Metrics.sim_time_s > d ->
      t.metrics.Metrics.cancellations <- t.metrics.Metrics.cancellations + 1;
      raise
        (Engine_cancelled
           ( t.metrics.Metrics.sim_time_s,
             Printf.sprintf "deadline of %g s exceeded" d ))
  | _ -> ()

let charge t secs =
  Metrics.add_time t.metrics secs;
  check_interrupts t

let dop t = Cluster.dop t.cluster

let charge_stage t =
  let d = float_of_int (dop t) in
  t.metrics.Metrics.stages <- t.metrics.Metrics.stages + 1;
  charge t
    ((t.profile.Cluster.sched_linear_s *. d) +. (t.profile.Cluster.sched_quad_s *. d *. d))

(* ------------------------------------------------------------------ *)
(* Fault injection (chaos)                                              *)
(* ------------------------------------------------------------------ *)

(* All injection decisions are made HERE, on the coordinator, before any
   partition work is dispatched — never inside worker tasks. Together with
   the pure keyed draws in [Faults] this is what makes a fault plan
   reproducible and domain-count invariant: the same plan injects the same
   failures and charges the same recovery costs whether partitions run on
   1 domain or 16. Recovery time flows through [charge], so a configured
   [timeout_s] fires mid-recovery exactly like it does mid-computation. *)

let chaos_active t = not (Faults.is_none t.faults)
let recovery t = t.cluster.Cluster.recovery

let recovery_instant t name args =
  if Trace.enabled t.tracer then Trace.instant t.tracer ~cat:"recovery" ~args name

(* Task-attempt failures and executor loss, decided at every operator
   barrier. Attempt [a] of partition [part] is placed on node
   [(part + a) mod nodes]; once a node is blacklisted the scheduler stops
   placing attempts there, so its injected failures never materialize —
   that avoidance is the payoff of blacklisting. *)
let inject_barrier_faults t n =
  if chaos_active t && n > 0 then begin
    t.chaos.barrier_seq <- t.chaos.barrier_seq + 1;
    let barrier = t.chaos.barrier_seq in
    let rc = recovery t in
    let nodes = Array.length t.chaos.node_failures in
    (* Executor loss: a node dies at this barrier. The epoch bump
       invalidates memory-cached partitions materialized before the loss
       (recovered through lineage on their next use; DFS copies survive),
       and the node's in-flight tasks of this barrier fail once and are
       rescheduled elsewhere. *)
    (match Faults.executor_loss t.faults ~barrier ~nodes with
    | None -> ()
    | Some node ->
        t.metrics.Metrics.executor_losses <- t.metrics.Metrics.executor_losses + 1;
        t.chaos.loss_epoch <- t.chaos.loss_epoch + 1;
        let inflight = ref 0 in
        for part = 0 to n - 1 do
          if part mod nodes = node then incr inflight
        done;
        if !inflight > 0 then begin
          t.metrics.Metrics.retries <- t.metrics.Metrics.retries + !inflight;
          charge t
            (rc.Cluster.retry_backoff_s
            +. (float_of_int !inflight *. t.profile.Cluster.sched_linear_s))
        end;
        recovery_instant t "executor_loss"
          [ ("barrier", Trace.A_int barrier);
            ("node", Trace.A_int node);
            ("inflight", Trace.A_int !inflight) ]);
    (* Task-attempt failures: each failed attempt is retried after an
       exponential backoff; repeated failures blacklist the node. Seeded
       plans are capped below the attempt bound (the scheduler eventually
       finds a healthy node), so only scripted plans can fail the job. *)
    for part = 0 to n - 1 do
      let injected =
        Faults.task_failures t.faults ~barrier ~part ~cap:(rc.Cluster.max_task_attempts - 1)
      in
      if injected > 0 then begin
        let real = ref 0 in
        for a = 0 to injected - 1 do
          let node = (part + a) mod nodes in
          if not t.chaos.blacklisted.(node) then begin
            incr real;
            t.metrics.Metrics.retries <- t.metrics.Metrics.retries + 1;
            charge t
              ((rc.Cluster.retry_backoff_s *. (2.0 ** float_of_int (!real - 1)))
              +. t.profile.Cluster.sched_linear_s);
            t.chaos.node_failures.(node) <- t.chaos.node_failures.(node) + 1;
            if t.chaos.node_failures.(node) = rc.Cluster.blacklist_after then begin
              t.chaos.blacklisted.(node) <- true;
              t.metrics.Metrics.blacklisted_nodes <-
                t.metrics.Metrics.blacklisted_nodes + 1;
              recovery_instant t "blacklist" [ ("node", Trace.A_int node) ]
            end
          end
        done;
        if !real > 0 then
          recovery_instant t "task_retries"
            [ ("barrier", Trace.A_int barrier);
              ("partition", Trace.A_int part);
              ("attempts", Trace.A_int !real) ];
        if !real >= rc.Cluster.max_task_attempts then
          raise
            (Engine_failure
               (Printf.sprintf "task for partition %d failed %d times (max %d attempts)"
                  part !real rc.Cluster.max_task_attempts))
      end
    done
  end

(* Stragglers: a slot runs its task at [slowdown]×. The barrier waits for
   the slowest task, so the stage grows by (eff − 1) × the normal task
   time, where eff is the worst effective slowdown across the stage's
   partitions. With speculation a copy launches once the normal task time
   has elapsed and runs at normal speed, capping the effective slowdown at
   2× — the first finisher wins whenever the original is slower than
   that. *)
let inject_stragglers t base nparts =
  if chaos_active t && nparts > 0 then begin
    t.chaos.cpu_stage_seq <- t.chaos.cpu_stage_seq + 1;
    let stage = t.chaos.cpu_stage_seq in
    let rc = recovery t in
    let worst = ref 1.0 in
    for part = 0 to nparts - 1 do
      match Faults.straggler t.faults ~stage ~part with
      | None -> ()
      | Some slow ->
          let eff =
            if rc.Cluster.speculate then begin
              t.metrics.Metrics.speculative_launches <-
                t.metrics.Metrics.speculative_launches + 1;
              if slow > 2.0 then
                t.metrics.Metrics.speculative_wins <-
                  t.metrics.Metrics.speculative_wins + 1;
              Float.min slow 2.0
            end
            else slow
          in
          if eff > !worst then worst := eff;
          recovery_instant t "straggler"
            [ ("stage", Trace.A_int stage);
              ("partition", Trace.A_int part);
              ("slowdown", Trace.A_float slow);
              ("effective", Trace.A_float eff) ]
    done;
    if !worst > 1.0 then charge t ((!worst -. 1.0) *. base)
  end

(* Shuffle-fetch failures: a reducer loses one mapper's output chunk and
   re-fetches it after a backoff. One chunk is roughly
   bytes / (mappers × reducers) of the shuffled volume. *)
let inject_fetch_faults t ~bytes ~nparts =
  if chaos_active t && nparts > 0 then begin
    t.chaos.shuffle_seq <- t.chaos.shuffle_seq + 1;
    let shuffle = t.chaos.shuffle_seq in
    let rc = recovery t in
    let chunk = bytes /. float_of_int (nparts * nparts) in
    for part = 0 to nparts - 1 do
      let k = Faults.fetch_failures t.faults ~shuffle ~part in
      if k > 0 then begin
        t.metrics.Metrics.fetch_failures <- t.metrics.Metrics.fetch_failures + k;
        charge t
          (float_of_int k
          *. (rc.Cluster.retry_backoff_s +. (chunk /. t.cluster.Cluster.net_bw)));
        recovery_instant t "fetch_retry"
          [ ("shuffle", Trace.A_int shuffle);
            ("reducer", Trace.A_int part);
            ("times", Trace.A_int k) ]
      end
    done
  end

(* CPU time for narrow work: partitions run in parallel, one slot each.
   The charge is the average partition cost, floored by the cost of the
   single largest record: physical sampling noise in partition placement
   must not look like skew, but a genuinely huge record (e.g. a hot group
   materialized by groupBy under a Pareto key) pins one slot for its full
   processing time. *)
let charge_local_cpu t (pd : Pdata.t) =
  let cost_of ~recs ~bytes =
    (recs *. t.cluster.Cluster.per_record_cpu) +. (bytes /. t.cluster.Cluster.cpu_bw)
  in
  let avg =
    cost_of ~recs:(Pdata.logical_records pd) ~bytes:(Pdata.logical_bytes pd)
    /. float_of_int (Pdata.nparts pd)
  in
  let largest_record = float_of_int (Pdata.max_elem_bytes pd) in
  let base =
    Float.max avg (cost_of ~recs:pd.Pdata.rmult ~bytes:(largest_record *. pd.Pdata.bmult))
  in
  charge t base;
  inject_stragglers t base (Pdata.nparts pd)

(* Data-motion counter samples: emitted AFTER the metric is updated so the
   Chrome counter track plots the running total. Pure observation — the
   tracer never feeds back into charging. *)
let motion_counter t name total =
  if Trace.enabled t.tracer then Trace.counter t.tracer ~cat:"motion" name total

(* All charge_* helpers below take LOGICAL byte quantities: callers apply
   the provenance multipliers carried by the data (Pdata.logical_bytes). *)
let charge_shuffle t bytes =
  t.metrics.Metrics.shuffle_bytes <- t.metrics.Metrics.shuffle_bytes +. bytes;
  motion_counter t "shuffle_bytes" t.metrics.Metrics.shuffle_bytes;
  charge t (bytes /. (float_of_int t.cluster.Cluster.nodes *. t.cluster.Cluster.net_bw))

let charge_broadcast t logical =
  let total = logical *. float_of_int t.cluster.Cluster.nodes in
  t.metrics.Metrics.broadcast_bytes <- t.metrics.Metrics.broadcast_bytes +. total;
  motion_counter t "broadcast_bytes" t.metrics.Metrics.broadcast_bytes;
  charge t (logical *. t.profile.Cluster.broadcast_factor /. t.cluster.Cluster.net_bw *. 2.0)

let charge_dfs_read t bytes =
  t.metrics.Metrics.dfs_read_bytes <- t.metrics.Metrics.dfs_read_bytes +. bytes;
  motion_counter t "dfs_read_bytes" t.metrics.Metrics.dfs_read_bytes;
  charge t (bytes /. (float_of_int t.cluster.Cluster.nodes *. t.cluster.Cluster.disk_bw))

let charge_dfs_write t bytes =
  t.metrics.Metrics.dfs_write_bytes <- t.metrics.Metrics.dfs_write_bytes +. bytes;
  motion_counter t "dfs_write_bytes" t.metrics.Metrics.dfs_write_bytes;
  charge t (bytes /. (float_of_int t.cluster.Cluster.nodes *. t.cluster.Cluster.disk_bw))

let charge_collect t bytes =
  t.metrics.Metrics.collect_bytes <- t.metrics.Metrics.collect_bytes +. bytes;
  motion_counter t "collect_bytes" t.metrics.Metrics.collect_bytes;
  charge t (bytes /. t.cluster.Cluster.net_bw)

let charge_parallelize t bytes =
  t.metrics.Metrics.parallelize_bytes <- t.metrics.Metrics.parallelize_bytes +. bytes;
  motion_counter t "parallelize_bytes" t.metrics.Metrics.parallelize_bytes;
  charge t (bytes /. t.cluster.Cluster.net_bw)

(* Physical bytes of a driver-side row list, for the charges that never
   partition it. *)
let rows_bytes vs = List.fold_left (fun a v -> a + Value.byte_size v) 0 vs

(* ------------------------------------------------------------------ *)
(* Host granularity                                                     *)
(* ------------------------------------------------------------------ *)

(* Every barrier decides from its stage's input whether the pool is worth
   waking. A barrier's work is the cost model's per-row estimate (per-record
   CPU plus bytes through the UDF throughput) times its physical rows, in
   simulated seconds: exactly what [charge_local_cpu] prices for the whole
   stage. A stage below [inline_work_s] runs inline on the calling domain,
   as on a one-domain pool: the sleeping workers are not woken and no batch
   is published. A stage above it is packed into about [tasks_per_domain]
   tasks per domain, each covering a contiguous range of whole partitions;
   a partition is never split, as on the paper's backends, which run one
   task per partition.

   Packing keeps the contract: the logical partition count still keys the
   chaos draws, a task runs its partitions in ascending order and stops at
   its first exception, tasks are ordered as the partitions they cover, so
   the lowest failing task raises the first failing partition's exception,
   and outputs are reassembled in partition order. Nothing here reads the
   tracer, so par_stages and par_tasks are the same traced or not. *)

(* With more tasks than domains, a domain that finishes its ranges early
   claims more from the batch, so all stay busy until the tail; 4 tasks
   per domain is plenty before per-task overhead shows. *)
let tasks_per_domain = 4

(* Inline threshold, in simulated seconds of stage work: the measured
   1-vs-2-domain crossover on a 2-core host (E9d in EXPERIMENTS.md). From
   about 0.0008-0.0016 s of work up, a stage on two domains finishes
   sooner than on one without spending more CPU; below it, waking the
   worker costs more than it saves. A host property, not a workload
   one. *)
let inline_work_s = 0.002

let stage_work (c : Cluster.t) (pd : Pdata.t) =
  (Pdata.logical_records pd *. c.Cluster.per_record_cpu)
  +. (Pdata.logical_bytes pd /. c.Cluster.cpu_bw)

(* Whether a barrier carrying [work] goes to the pool. Callers test
   [Pool.size t.pool > 1] first, so that a one-domain run never computes
   the estimate (or forces a collection's stats for it). *)
let dispatches work = work >= inline_work_s

let pooled t pd = Pool.size t.pool > 1 && dispatches (stage_work t.cluster pd)

let pooled2 t a b =
  Pool.size t.pool > 1 && dispatches (stage_work t.cluster a +. stage_work t.cluster b)

let barrier_tasks t = Pool.size t.pool * tasks_per_domain

(* [pooled] for a driver row list about to be partitioned at [scale]:
   before its stats pass, only the estimate's record term is known. *)
let rows_pooled t ~scale vs =
  Pool.size t.pool > 1
  && dispatches (float_of_int (List.length vs) *. scale *. t.cluster.Cluster.per_record_cpu)

(* The same for a whole-state update of a stateful bag. *)
let state_pooled t sh =
  Pool.size t.pool > 1
  &&
  let entries = Array.fold_left (fun n h -> n + Keyed.length h) 0 sh.s_parts in
  dispatches (float_of_int entries *. sh.s_rmult *. t.cluster.Cluster.per_record_cpu)

let charge_spill t bytes =
  t.metrics.Metrics.spilled_bytes <- t.metrics.Metrics.spilled_bytes +. bytes;
  motion_counter t "spilled_bytes" t.metrics.Metrics.spilled_bytes;
  charge t (2.0 *. bytes /. t.cluster.Cluster.disk_bw)

(* ------------------------------------------------------------------ *)
(* Memory governance (Memman)                                           *)
(* ------------------------------------------------------------------ *)

let memory_instant t name args =
  if Trace.enabled t.tracer then Trace.instant t.tracer ~cat:"memory" ~args name

(* Operator-state overflow written to node-local disk and merged back: two
   disk passes, like the external hash aggregation / grace join it stands
   for. Counted ONLY in the dedicated memory channels so the plain I/O
   metrics (and the profile's own [spilled_bytes]) stay untouched by
   governance — the same separation the checkpoint channel uses. *)
let charge_mem_spill t ~slots ~bytes =
  t.metrics.Metrics.mem_spills <- t.metrics.Metrics.mem_spills + slots;
  t.metrics.Metrics.mem_spill_bytes <- t.metrics.Metrics.mem_spill_bytes +. bytes;
  if Trace.enabled t.tracer then
    Trace.counter t.tracer ~cat:"memory" "mem_spill_bytes"
      t.metrics.Metrics.mem_spill_bytes;
  charge t
    (2.0 *. bytes /. (float_of_int t.cluster.Cluster.nodes *. t.cluster.Cluster.disk_bw))

(* OOM kill-and-retry (spilling disabled): the container supervisor kills
   the attempt whose state exceeds its budget; the scheduler retries it at
   halved parallelism, so the surviving slots inherit the dead slots'
   memory share. Each kill wastes the state-build work ([need] bytes of
   CPU) plus a doubling backoff; the successful attempt then runs the
   state-building slots at reduced parallelism, multiplying that work by
   the lost slot factor. Deterministic: a pure function of [attempts] and
   [need]. *)
let oom_kill_retry t ~op ~attempts ~need =
  let rc = recovery t in
  let base = need /. t.cluster.Cluster.cpu_bw in
  for a = 1 to attempts do
    t.metrics.Metrics.oom_kills <- t.metrics.Metrics.oom_kills + 1;
    charge t ((rc.Cluster.retry_backoff_s *. (2.0 ** float_of_int (a - 1))) +. base)
  done;
  charge t (base *. ((2.0 ** float_of_int attempts) -. 1.0));
  memory_instant t "oom_kill"
    [ ("op", Trace.A_str op);
      ("attempts", Trace.A_int attempts);
      ("state_bytes", Trace.A_float need) ]

(* Present one state-building operator's per-slot sizes to the accountant
   and charge whatever degradation it decides. Runs on the coordinator
   AFTER the state exists (the simulator materializes first, accounts
   second), so reservations are numbered in execution order — identically
   at any domain count — and double as the injection points of the chaos
   [Oom_kill] channel. *)
let reserve_memory t ~op ~needs =
  let maxn = Array.fold_left Float.max 0.0 needs in
  if maxn > 0.0 then begin
    if maxn > t.metrics.Metrics.mem_peak_bytes then begin
      t.metrics.Metrics.mem_peak_bytes <- maxn;
      if Trace.enabled t.tracer then
        Trace.counter t.tracer ~cat:"memory" "mem_peak_bytes" maxn
    end;
    if chaos_active t then begin
      t.chaos.reserve_seq <- t.chaos.reserve_seq + 1;
      if Faults.oom_kill t.faults ~reservation:t.chaos.reserve_seq then
        oom_kill_retry t ~op ~attempts:1 ~need:maxn
    end;
    match Memman.reserve t.memman ~needs with
    | Memman.Fits -> ()
    | Memman.Spill { slots; bytes } ->
        memory_instant t "mem_spill"
          [ ("op", Trace.A_str op);
            ("slots", Trace.A_int slots);
            ("bytes", Trace.A_float bytes) ];
        charge_mem_spill t ~slots ~bytes
    | Memman.Kill { attempts } -> oom_kill_retry t ~op ~attempts ~need:maxn
    | Memman.Fatal ->
        raise
          (Engine_failure
             (Printf.sprintf
                "out of memory: %s state of %.0f MB per slot exceeds the %.0f MB \
                 budget even at one slot per node (enable spilling or raise the \
                 budget)"
                op (maxn /. 1e6)
                (Memman.budget t.memman /. 1e6)))
  end

(* Per-slot state sizes of a partitioned intermediate: each partition's
   physical bytes × the provenance byte multiplier (logical bytes, the
   budget's unit). *)
let part_needs (pd : Pdata.t) =
  Array.map (fun b -> float_of_int b *. pd.Pdata.bmult) (Pdata.part_bytes pd)

(* Admit a freshly materialized Mem-cached bag to the LRU registry,
   evicting least-recently-used cached bags to stay under the cache
   capacity [budget × dop]. An evicted bag's handle drops its
   materialization, so the next access recomputes it through lineage —
   the same recovery path an executor loss takes (dropping memory is
   free; the recompute is where the cost lands). A bag larger than the
   whole capacity is not cached at all. No-op when ungoverned. *)
let register_cached t (h : handle) (pd : Pdata.t) =
  if Memman.governed t.memman then begin
    let bytes = Pdata.logical_bytes pd in
    let adm =
      Memman.register t.memman ~bytes
        ~evict:(fun () ->
          h.h_mat <- None;
          h.h_memid <- None)
    in
    List.iter
      (fun b ->
        t.metrics.Metrics.cache_evictions <- t.metrics.Metrics.cache_evictions + 1;
        t.metrics.Metrics.evicted_bytes <- t.metrics.Metrics.evicted_bytes +. b;
        memory_instant t "cache_evict" [ ("bytes", Trace.A_float b) ])
      adm.Memman.evicted;
    match adm.Memman.admitted with
    | Some id -> h.h_memid <- Some id
    | None ->
        h.h_mat <- None;
        h.h_memid <- None;
        memory_instant t "cache_admission_denied" [ ("bytes", Trace.A_float bytes) ]
  end

let in_job t f =
  if t.job_depth > 0 then f ()
  else begin
    t.metrics.Metrics.jobs <- t.metrics.Metrics.jobs + 1;
    (* Admission control: a submission occupies an admission slot until
       one teardown window ([job_overhead_s]) after its completion; past
       [max_inflight] held slots the driver queues the submission and
       waits for the earliest release. Off by default. *)
    let delay = Memman.admit_job t.memman ~now:t.metrics.Metrics.sim_time_s in
    if delay > 0.0 then begin
      t.metrics.Metrics.jobs_queued <- t.metrics.Metrics.jobs_queued + 1;
      t.metrics.Metrics.queue_wait_s <- t.metrics.Metrics.queue_wait_s +. delay;
      memory_instant t "job_queued" [ ("wait_s", Trace.A_float delay) ];
      charge t delay
    end;
    let discount = if t.iteration_rerun then 0.1 else 1.0 in
    charge t (t.profile.Cluster.job_overhead_s *. discount);
    t.job_depth <- t.job_depth + 1;
    Fun.protect
      ~finally:(fun () ->
        t.job_depth <- t.job_depth - 1;
        Memman.job_done t.memman
          ~release:(t.metrics.Metrics.sim_time_s +. t.profile.Cluster.job_overhead_s))
      (fun () ->
        if Trace.enabled t.tracer then
          Trace.span t.tracer ~cat:"job" "job"
            ~args:[ ("job", Trace.A_int t.metrics.Metrics.jobs) ]
            f
        else f ())
  end

let lookup_env env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> raise (Engine_failure (Printf.sprintf "unbound driver variable %s" x))

(* ------------------------------------------------------------------ *)
(* Parallel partition execution                                         *)
(* ------------------------------------------------------------------ *)

(* UDF invocation tally. Partition tasks run on worker domains, so they
   must never write [t.metrics] directly (a racy increment would both lose
   counts and make them domain-count dependent). Instead each task counts
   into a domain-local cell that the coordinator merges at the barrier;
   outside any parallel region the cell is absent and counts go straight to
   the metrics. Nested barriers merge into the enclosing task's cell. *)
let tally_key : int ref option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let add_udf_count t n =
  if n > 0 then
    match Domain.DLS.get tally_key with
    | Some c -> c := !c + n
    | None -> t.metrics.Metrics.udf_invocations <- t.metrics.Metrics.udf_invocations + n

let bump_udf t = add_udf_count t 1

(* Host words on a one-domain pool: a traced span's body runs as
   [measured inner f x], which leaves in [inner] the words [f x]
   allocated; [add_trace_words t w0 inner] then adds to [t.trace_words]
   the rest of what was allocated since [w0], the span's own. Counts are
   ints so that holding one across a call allocates nothing. *)
let minor_words () = int_of_float (Gc.minor_words ())

let measured inner f x () =
  let w1 = minor_words () in
  let r = f x in
  inner := minor_words () - w1;
  r

let add_trace_words t w0 inner = t.trace_words <- t.trace_words + (minor_words () - w0 - inner)

(* Partition-task spans run on the emitting worker domain: the span's tid
   IS the domain id, and the args repeat it next to the partition index.
   The wrapper runs [f s i] and only observes — never counts or charges. *)
let task_span t i f s =
  let w0 = minor_words () in
  let inner = ref 0 in
  let r =
    Trace.span t.tracer ~cat:"task" "task"
      ~args:[ ("partition", Trace.A_int i); ("domain", Trace.A_int (Domain.self () :> int)) ]
      (measured inner (f s) i)
  in
  if Pool.size t.pool <= 1 then add_trace_words t w0 !inner;
  r

(* Run [task 0 .. task (ntasks-1)] on the pool with a barrier. Each task
   counts its UDF invocations into its own domain-local cell, merged here
   on the coordinator. *)
let dispatch t ntasks (task : int -> 'a) : 'a array =
  t.metrics.Metrics.par_stages <- t.metrics.Metrics.par_stages + 1;
  t.metrics.Metrics.par_tasks <- t.metrics.Metrics.par_tasks + ntasks;
  let tallied j =
    let saved = Domain.DLS.get tally_key in
    let c = ref 0 in
    Domain.DLS.set tally_key (Some c);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set tally_key saved)
      (fun () ->
        let r = task j in
        (r, !c))
  in
  let run_barrier () = Pool.parinit t.pool ntasks tallied in
  let rs =
    if Trace.enabled t.tracer then
      Trace.span t.tracer ~cat:"stage" "barrier"
        ~args:[ ("tasks", Trace.A_int ntasks) ]
        run_barrier
    else run_barrier ()
  in
  Array.map
    (fun (r, c) ->
      add_udf_count t c;
      r)
    rs

(* [f s 0 .. f s (n-1)] on the pool, packed into at most [barrier_tasks]
   tasks of contiguous ranges, each run in ascending order with its own
   [s = init ()]; results in order. *)
let packed t n ~init f =
  let ntasks = min n (barrier_tasks t) in
  let ranges =
    dispatch t ntasks (fun j ->
        let s = init () in
        let lo = j * n / ntasks in
        Array.init (((j + 1) * n / ntasks) - lo) (fun i -> f s (lo + i)))
  in
  Array.concat (Array.to_list ranges)

(* Chaos first, before any inline shortcut: injected barrier faults must
   be drawn for every barrier whatever the pool size, or fault plans would
   stop being domain-count invariant. *)
let start_barrier t n =
  check_interrupts t;
  inject_barrier_faults t n

(* Run [f 0 .. f (n-1)], one call per partition, inline or packed on the
   pool as [pooled] decided ([pooled] is [false] on a one-domain pool).
   Cost charging stays on the coordinator: tasks must not touch the
   metrics or the simulated clock, which is exactly why [sim_time_s] and
   every other cost field are bit-identical whatever the domain count.
   Exceptions surface deterministically (lowest partition index first). *)
let par_run t ~pooled n (f : int -> 'a) : 'a array =
  start_barrier t n;
  let f = if not (Trace.enabled t.tracer) then f else fun i -> task_span t i Fun.id f in
  if n <= 1 || not pooled then Array.init n f else packed t n ~init:ignore (fun () -> f)

(* [par_run] with scratch state private to one task: each task makes one
   [s = init ()], and so does the calling domain once when the barrier
   runs inline, and runs [f s i] for each of its partitions in ascending
   order. [f] may reuse [s] from one partition to the next, but must
   return nothing that still depends on it. ([par_run] is not this with
   a unit state, which would allocate a closure per barrier.) *)
let par_run_with t ~pooled n ~init (f : 's -> int -> 'a) : 'a array =
  start_barrier t n;
  let f = if not (Trace.enabled t.tracer) then f else fun s i -> task_span t i f s in
  if n <= 1 || not pooled then Array.init n (f (init ())) else packed t n ~init f

(* Round-robin partitioning of driver rows at [scale] (a [Read] or a
   driver bag). A large list is sliced on the pool, one residue class per
   partition, through the same packed dispatch as [par_run], so it counts
   as a barrier; the layout is [Pdata.of_list]'s either way. No chaos is
   drawn here: fault plans key on operator barriers only. *)
let partition_rows t ~scale vs =
  let nparts = dop t in
  if nparts > 1 && vs <> [] && rows_pooled t ~scale vs then
    let slice = Pdata.round_robin ~nparts vs in
    Pdata.make ~rmult:scale ~bmult:scale (packed t nparts ~init:ignore (fun () -> slice))
  else Pdata.of_list ~rmult:scale ~bmult:scale ~nparts vs

(* DRV → DFL: partition a driver-local bag and charge its bytes. *)
let parallelize t vs =
  let pd = partition_rows t ~scale:1.0 vs in
  charge_parallelize t (Pdata.bytes pd);
  Obag pd

(* The read memo's partitioned form of table [name] at this run's dop and
   scale, if its entry still matches [rows]. *)
let memo_find t name rows =
  let nparts = dop t and scale = Cluster.table_scale t.cluster name in
  let m = t.read_memo in
  Mutex.protect m.r_lock (fun () ->
      match Hashtbl.find_opt m.r_entries name with
      | Some e when e.r_rows == rows && e.r_nparts = nparts && Float.equal e.r_scale scale ->
          Some e.r_pd
      | _ -> None)

(* The partitioned form of table [name], whose rows are [rows]: from the
   read memo when its entry still matches, else built, sized and
   published. Building happens outside the lock; two runs racing on the
   same table build equal layouts and the last one is kept. *)
let read_pdata t name rows =
  match memo_find t name rows with
  | Some pd -> pd
  | None ->
      let nparts = dop t and scale = Cluster.table_scale t.cluster name in
      let pd = partition_rows t ~scale rows in
      Pdata.force_stats pd;
      let m = t.read_memo in
      Mutex.protect m.r_lock (fun () ->
          Hashtbl.replace m.r_entries name
            { r_rows = rows; r_nparts = nparts; r_scale = scale; r_pd = pd });
      pd

(* Narrow (partition-local) transform on the pool: [f] over every whole
   partition. The output keeps [pd]'s multipliers, and is hash-partitioned
   by [part_key] when the caller knows [f] keeps every row in place. *)
let par_map_parts ?part_key t f (pd : Pdata.t) : Pdata.t =
  Pdata.make ?part_key ~rmult:pd.Pdata.rmult ~bmult:pd.Pdata.bmult
    (par_run t ~pooled:(pooled t pd) (Pdata.nparts pd) (fun i -> f pd.Pdata.parts.(i)))

(* ------------------------------------------------------------------ *)
(* Plan execution                                                       *)
(* ------------------------------------------------------------------ *)

(* One aggBy table per task, reset for each of its partitions. *)
let agg_table () = Keyed.create 64

(* aggBy's per-partition loops are top-level functions: a local closure
   over the table would cost a few words per partition. The combine
   binds each row's key to [init v] or [merge]s the row into its
   accumulator; the reduce adopts each key's first partial and
   [absorb]s the others into it. *)
let rec combine_rows h keyfn init merge = function
  | [] -> ()
  | v :: rest ->
      Keyed.upsert h (keyfn v) v ~init ~merge;
      combine_rows h keyfn init merge rest

let rec reduce_pairs h absorb = function
  | [] -> ()
  | pair :: rest ->
      Keyed.upsert h (Value.proj pair 0) (Value.proj pair 1) ~init:Fun.id ~merge:absorb;
      reduce_pairs h absorb rest

(* Cons each (key, acc) pair onto the list of the destination its key
   hashes to. *)
let rec scatter dests = function
  | [] -> ()
  | pair :: rest ->
      let i = abs (Value.hash (Value.proj pair 0)) mod Array.length dests in
      dests.(i) <- pair :: dests.(i);
      scatter dests rest

(* Keyed tables that joins only probe, so their fold order is never seen.
   A broadcast side still gets 1024 buckets whatever its length: sized to
   a few dozen rows, its bucket array would move from the major heap
   (where an array over 256 words is allocated directly) to the minor
   one. *)
let singleton v = [ v ]
let cons l v = v :: l

let join_index ~size keyfn rows =
  let index = Keyed.create size in
  List.iter (fun v -> Keyed.upsert index (keyfn v) v ~init:singleton ~merge:cons) rows;
  index

let key_set ~size keyfn rows =
  let keys = Keyed.create size in
  List.iter (fun v -> Keyed.replace keys (keyfn v) ()) rows;
  keys

(* The rows whose key is in [keys] (a semi-join's probe, [keep = true])
   or not in it (an anti-join's). *)
let probe_keys ~keep keys keyfn = List.filter (fun v -> Keyed.mem keys (keyfn v) = keep)

(* Operator-kind names for stage spans; matches the vocabulary that
   [Plan] pretty-printing already uses. *)
let plan_op_name : Plan.t -> string = function
  | Plan.Read _ -> "read"
  | Plan.Scan _ -> "scan"
  | Plan.Local _ -> "local"
  | Plan.Map _ -> "map"
  | Plan.Flat_map _ -> "flatMap"
  | Plan.Filter _ -> "filter"
  | Plan.Join { kind; _ } -> Plan.join_name kind
  | Plan.Cross _ -> "cross"
  | Plan.Group_by _ -> "groupBy"
  | Plan.Agg_by _ -> "aggBy"
  | Plan.Fold _ -> "fold"
  | Plan.Union _ -> "union"
  | Plan.Minus _ -> "minus"
  | Plan.Distinct _ -> "distinct"
  | Plan.Cache _ -> "cache"
  | Plan.Partition_by _ -> "partitionBy"
  | Plan.Stateful_create _ -> "statefulCreate"
  | Plan.Stateful_read _ -> "statefulRead"
  | Plan.Stateful_update _ -> "statefulUpdate"
  | Plan.Stateful_update_msgs _ -> "statefulUpdateMsgs"

let rec collect_bag t (h : handle) : Value.t list * float * float =
  (* returns (rows, logical bytes, logical records) *)
  match h.h_collected with
  | Some c -> c
  | None ->
      let pd = materialize t h in
      let vs = Pdata.to_list pd in
      let lbytes = Pdata.logical_bytes pd and lrecs = Pdata.logical_records pd in
      charge_collect t lbytes;
      h.h_collected <- Some (vs, lbytes, lrecs);
      vs, lbytes, lrecs

and force_bag t (h : handle) : Value.t list =
  let vs, _, _ = collect_bag t h in
  vs

and materialize t (h : handle) : Pdata.t =
  match h.h_mat with
  | Some (pd, loc) ->
      t.cache_hit_counter <- t.cache_hit_counter + 1;
      let lost =
        (* scripted loss at this hit, or — for memory-resident copies — an
           executor that died since materialization took its partitions
           with it (DFS-backed copies survive node loss) *)
        Faults.cache_loss t.faults ~hit:t.cache_hit_counter
        || (h.h_cache = Some Mem && loc = Mem && h.h_epoch < t.chaos.loss_epoch)
      in
      (* [h_cache = Some Mem] guard: eagerly-pinned results (stateful
         updates, snapshotted state reads) also live under [Mem] but must
         run exactly once — losing them to an epoch bump would re-run
         their side effects and change results. Only true caches, which
         are recomputable by construction, are subject to executor loss. *)
      if lost then begin
        (* injected executor failure: the cached copy is gone; recover it
           transparently through the lineage (the R in RDD). The registry
           entry is forgotten (not evicted — the partitions died with the
           node), so a concurrent eviction pass can never touch this
           handle again: the recompute below runs exactly once. *)
        t.metrics.Metrics.cache_losses <- t.metrics.Metrics.cache_losses + 1;
        (match h.h_memid with
        | Some id ->
            Memman.forget t.memman id;
            h.h_memid <- None
        | None -> ());
        h.h_mat <- None;
        let rebuild () =
          let pd' = materialize t h in
          t.metrics.Metrics.recomputed_partitions <-
            t.metrics.Metrics.recomputed_partitions + Pdata.nparts pd';
          pd'
        in
        if Trace.enabled t.tracer then
          Trace.span t.tracer ~cat:"recovery" "recompute_lost_cache"
            ~args:[ ("hit", Trace.A_int t.cache_hit_counter) ]
            rebuild
        else rebuild ()
      end
      else begin
        t.metrics.Metrics.cache_hits <- t.metrics.Metrics.cache_hits + 1;
        (match h.h_memid with
        | Some id -> Memman.touch t.memman id
        | None -> ());
        if loc = Dfs then charge_dfs_read t (Pdata.logical_bytes pd);
        pd
      end
  | None -> begin
      t.metrics.Metrics.recomputes <- t.metrics.Metrics.recomputes + 1;
      match in_job t (fun () -> exec_plan t h.h_env h.h_plan) with
      | Obag pd ->
          (match h.h_cache with
          | Some Dfs ->
              charge_dfs_write t (Pdata.logical_bytes pd);
              h.h_epoch <- t.chaos.loss_epoch;
              h.h_mat <- Some (pd, Dfs)
          | Some Mem ->
              h.h_epoch <- t.chaos.loss_epoch;
              h.h_mat <- Some (pd, Mem);
              register_cached t h pd
          | None -> ());
          pd
      | Oscalar _ | Ostateful _ -> raise (Engine_failure "expected a bag-valued dataflow")
    end

(* Resolve a driver binding to an interpreter value, charging the DRV→UDF
   broadcast motion. *)
and resolve_for_udf t env x : Eval.rvalue =
  match lookup_env env x with
  | Dscalar rv -> begin
      (match rv with
      | Eval.V v -> charge_broadcast t (float_of_int (Value.byte_size v))
      | Eval.Clo _ | Eval.St _ -> ());
      rv
    end
  | Dbag h ->
      let vs, lbytes, _ = collect_bag t h in
      charge_broadcast t lbytes;
      Eval.V (Value.bag vs)
  | Dstateful _ -> raise (Engine_failure "cannot broadcast a stateful bag")

(* Evaluation environment for worker-side code: every driver variable the
   body captures is shipped (the compiler's broadcast annotation names
   them; free-variable analysis is the safety net). *)
and worker_env t env ~params body_exprs =
  (* Returns the evaluation environment for worker-side code together with
     the total (physical) record count of the collections it captures —
     tables read inside the body and bag-valued broadcast variables — which
     prices per-element linear scans (an un-unnested exists). A [Read]
     inside worker-side code also means the whole table is shipped to every
     worker, charged as a broadcast (the §4.2.1 baseline). *)
  let inner_records = ref 0.0 in
  let seen_tables = ref [] in
  List.iter
    (fun e ->
      Expr.iter_exprs
        (function
          | Expr.Read (Expr.Src_table name) when not (List.mem name !seen_tables) ->
              seen_tables := name :: !seen_tables;
              let records, bytes =
                match Eval.read_table t.eval_ctx name with
                | rows -> begin
                    (* a memo entry prices the table for free; on a miss one
                       walk is cheaper than building the partitioned form *)
                    match memo_find t name rows with
                    | Some pd -> (Pdata.logical_records pd, Pdata.logical_bytes pd)
                    | None ->
                        let sc = Cluster.table_scale t.cluster name in
                        ( float_of_int (List.length rows) *. sc,
                          float_of_int (rows_bytes rows) *. sc )
                  end
                | exception Eval.Eval_error _ -> (0.0, 0.0)
              in
              inner_records := !inner_records +. records;
              charge_broadcast t bytes
          | _ -> ())
        e)
    body_exprs;
  let fv =
    List.fold_left (fun acc e -> Strset.union acc (Expr.free_vars e)) Strset.empty body_exprs
  in
  let fv = List.fold_left (fun s p -> Strset.remove p s) fv params in
  let eval_env =
    Strset.fold
      (fun x acc ->
        match List.assoc_opt x env with
        | None -> acc (* unbound: let Eval report it if the UDF really uses it *)
        | Some binding ->
            let rv = resolve_for_udf t env x in
            (match (rv, binding) with
            | Eval.V (Value.Bag _), Dbag h ->
                let _, _, lrecs = collect_bag t h in
                inner_records := !inner_records +. lrecs
            | Eval.V (Value.Bag vs), _ ->
                inner_records := !inner_records +. float_of_int (List.length vs)
            | _ -> ());
            Eval.bind x rv acc)
      fv Eval.empty_env
  in
  (eval_env, !inner_records)

(* Per-input-element cost of a UDF that scans its captured collections. *)
and udf_scan_cost t ~inner_records (pd : Pdata.t) =
  if inner_records > 0.0 then begin
    let pairs = Pdata.logical_records pd *. inner_records in
    charge t (pairs *. t.cluster.Cluster.pair_scan_cost /. float_of_int (dop t))
  end

and udf_fn_ex t env (u : Plan.udf) : (Value.t -> Value.t) * float =
  (* [worker_env] does all the cost charging (broadcasts, inner table
     reads), so the mode switch below can only move wall-clock. *)
  let base, inner = worker_env t env ~params:[ u.Plan.param ] [ u.Plan.body ] in
  let f =
    match t.udf_mode with
    | Config.Interp ->
        fun v ->
          Eval.eval_value t.eval_ctx (Eval.bind u.Plan.param (Eval.V v) base) u.Plan.body
    | Config.Compiled -> Compile.fn t.eval_ctx base ~param:u.Plan.param u.Plan.body
  in
  ( (fun v ->
      bump_udf t;
      f v),
    inner )

and udf_fn t env u = fst (udf_fn_ex t env u)

and udf2_fn t env (u : Plan.udf2) : Value.t -> Value.t -> Value.t =
  let base, _ =
    worker_env t env ~params:[ u.Plan.param1; u.Plan.param2 ] [ u.Plan.body2 ]
  in
  let f =
    match t.udf_mode with
    | Config.Interp ->
        fun a b ->
          let e = Eval.bind u.Plan.param1 (Eval.V a) base in
          let e = Eval.bind u.Plan.param2 (Eval.V b) e in
          Eval.eval_value t.eval_ctx e u.Plan.body2
    | Config.Compiled ->
        Compile.fn2 t.eval_ctx base ~param1:u.Plan.param1 ~param2:u.Plan.param2
          u.Plan.body2
  in
  fun a b ->
    bump_udf t;
    f a b

(* Runtime form of a fold algebra, and of aggBy's, whose caller owns its
   accumulators (see [Compile.owned]). *)
and fold_runtime t env (fns : Expr.fold_fns) : Compile.algebra =
  let base = fold_env t env fns in
  match t.udf_mode with
  | Config.Interp -> interp_algebra t base fns
  | Config.Compiled -> Compile.fold_fns t.eval_ctx base fns

and owned_runtime t env (fns : Expr.fold_fns) : Compile.owned =
  let base = fold_env t env fns in
  match t.udf_mode with
  | Config.Interp ->
      let algebra = interp_algebra t base fns in
      { Compile.algebra; merge = algebra.Compile.step; absorb = algebra.Compile.union }
  | Config.Compiled -> Compile.owned_fns t.eval_ctx base fns

and fold_env t env (fns : Expr.fold_fns) =
  fst (worker_env t env ~params:[] [ fns.Expr.f_empty; fns.Expr.f_single; fns.Expr.f_union ])

and interp_algebra t base (fns : Expr.fold_fns) : Compile.algebra =
  let empty = Eval.eval_value t.eval_ctx base fns.Expr.f_empty in
  let single_rv = Eval.eval t.eval_ctx base fns.Expr.f_single in
  let union_rv = Eval.eval t.eval_ctx base fns.Expr.f_union in
  let single v = Eval.apply_rv t.eval_ctx single_rv v in
  let union a b = Eval.apply2_rv t.eval_ctx union_rv a b in
  { Compile.empty; single; union; step = (fun acc v -> union acc (single v)) }

and exec_to_bag t env p =
  match exec_plan t env p with
  | Obag pd -> pd
  | Oscalar _ | Ostateful _ -> raise (Engine_failure "expected a bag-valued operator input")

and exec_plan t env (p : Plan.t) : out =
  if not (Trace.enabled t.tracer) then exec_plan_inner t env p
  else begin
    (* [minor_words]: the words the stage and its inputs allocated, less
       the tracer's own. Only on a one-domain pool, where every partition
       task runs on this domain: [Gc.minor_words] counts the calling
       domain alone. *)
    let one_domain = Pool.size t.pool <= 1 in
    let w0 = minor_words () and traced0 = t.trace_words and inner = ref 0 in
    let o =
      Trace.span_f t.tracer ~cat:"stage" (plan_op_name p)
        ~args:[ ("sim_s", Trace.A_float t.metrics.Metrics.sim_time_s) ]
        ~end_args:(fun o ->
          let out =
            match o with
            | Obag pd ->
                [ ("out_records", Trace.A_float (Pdata.logical_records pd));
                  ("out_bytes", Trace.A_float (Pdata.logical_bytes pd)) ]
            | Oscalar _ -> [ ("out", Trace.A_str "scalar") ]
            | Ostateful _ -> [ ("out", Trace.A_str "stateful") ]
          in
          if one_domain then
            let own = !inner - (t.trace_words - traced0) in
            out @ [ ("minor_words", Trace.A_float (float_of_int own)) ]
          else out)
        (measured inner (exec_plan_inner t env) p)
    in
    if one_domain then add_trace_words t w0 !inner;
    o
  end

and exec_plan_inner t env (p : Plan.t) : out =
  match p with
  | Plan.Read name ->
      let rows =
        try Eval.read_table t.eval_ctx name
        with Eval.Eval_error m -> raise (Engine_failure m)
      in
      let pd = read_pdata t name rows in
      charge_stage t;
      charge_dfs_read t (Pdata.logical_bytes pd);
      Obag pd
  | Plan.Scan x -> begin
      match lookup_env env x with
      | Dbag h -> Obag (materialize t h)
      | Dscalar (Eval.V (Value.Bag vs)) ->
          (* DRV → DFL: parallelize a driver-local bag. *)
          parallelize t vs
      | Dscalar _ -> raise (Engine_failure (Printf.sprintf "scan %s: not a bag" x))
      | Dstateful _ ->
          raise (Engine_failure (Printf.sprintf "scan %s: use statefulRead" x))
    end
  | Plan.Local e ->
      parallelize t (Value.to_bag (eval_driver_expr t env e))
  | Plan.Map (u, q) ->
      let pd = exec_to_bag t env q in
      charge_stage t;
      charge_local_cpu t pd;
      let f, inner_records = udf_fn_ex t env u in
      udf_scan_cost t ~inner_records pd;
      Obag (par_map_parts t (List.map f) pd)
  | Plan.Flat_map (u, q) ->
      let pd = exec_to_bag t env q in
      charge_stage t;
      charge_local_cpu t pd;
      let f, inner_records = udf_fn_ex t env u in
      udf_scan_cost t ~inner_records pd;
      Obag (par_map_parts t (List.concat_map (fun v -> Value.to_bag (f v))) pd)
  | Plan.Filter (u, q) ->
      let pd = exec_to_bag t env q in
      charge_stage t;
      charge_local_cpu t pd;
      let f, inner_records = udf_fn_ex t env u in
      udf_scan_cost t ~inner_records pd;
      Obag
        (par_map_parts ?part_key:pd.Pdata.part_key t
           (List.filter (fun v -> Value.to_bool (f v)))
           pd)
  | Plan.Join { kind; lkey; rkey; left; right } ->
      let lpd = exec_to_bag t env left in
      let rpd = exec_to_bag t env right in
      exec_join t env ~kind ~lkey ~rkey lpd rpd
  | Plan.Cross (a, b) ->
      let apd = exec_to_bag t env a in
      let bpd = exec_to_bag t env b in
      charge_stage t;
      (* the smaller side is broadcast; every pair is produced locally *)
      let abytes = Pdata.logical_bytes apd and bbytes = Pdata.logical_bytes bpd in
      let small, big, flip =
        if abytes <= bbytes then (apd, bpd, false) else (bpd, apd, true)
      in
      charge_broadcast t (Pdata.logical_bytes small);
      (* every slot holds the whole broadcast side *)
      reserve_memory t ~op:"cross" ~needs:[| Pdata.logical_bytes small |];
      let small_list = Pdata.to_list small in
      let pairs v w = if flip then Value.tuple [ w; v ] else Value.tuple [ v; w ] in
      let result =
        par_map_parts t
          (fun part -> List.concat_map (fun v -> List.map (fun w -> pairs v w) small_list) part)
          big
      in
      let result =
        Pdata.with_mult
          ~rmult:(Float.max apd.Pdata.rmult bpd.Pdata.rmult)
          ~bmult:(Float.max apd.Pdata.bmult bpd.Pdata.bmult)
          result
      in
      charge_local_cpu t result;
      Obag result
  | Plan.Group_by (key, q) ->
      let pd = exec_to_bag t env q in
      charge_stage t;
      charge_local_cpu t pd;
      let keyfn = udf_fn t env key in
      exec_group_by t key keyfn pd
  | Plan.Agg_by { key; fold; input } ->
      let pd = exec_to_bag t env input in
      charge_stage t;
      charge_local_cpu t pd;
      let keyfn = udf_fn t env key in
      exec_agg_by t key keyfn (owned_runtime t env fold) pd
  | Plan.Fold (fns, q) ->
      let pd = exec_to_bag t env q in
      charge_stage t;
      charge_local_cpu t pd;
      let { Compile.empty; union; step; _ } = fold_runtime t env fns in
      (* partial fold per partition (the parallel leaves), then combine the
         partials at the driver — the data-parallel fold of §2.2.2 *)
      let partials =
        par_run t ~pooled:(pooled t pd) (Pdata.nparts pd) (fun i ->
            List.fold_left step empty pd.Pdata.parts.(i))
      in
      let sizes = Array.map (fun v -> float_of_int (Value.byte_size v)) partials in
      (* each slot holds its partition's accumulator while folding *)
      reserve_memory t ~op:"fold" ~needs:(Array.map (fun b -> b *. pd.Pdata.bmult) sizes);
      charge_collect t (Array.fold_left ( +. ) 0.0 sizes);
      Oscalar (Array.fold_left union empty partials)
  | Plan.Union (a, b) ->
      let apd = exec_to_bag t env a in
      let bpd = exec_to_bag t env b in
      charge_stage t;
      Obag (Pdata.union apd bpd)
  | Plan.Minus (a, b) ->
      let apd = exec_to_bag t env a in
      let bpd = exec_to_bag t env b in
      charge_stage t;
      let idkey = Plan.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
      let apd = shuffle_by t idkey Fun.id apd in
      let bpd = shuffle_by t idkey Fun.id bpd in
      (* both sides' sort buffers coexist on each slot *)
      reserve_memory t ~op:"minus"
        ~needs:
          (let a = part_needs apd and b = part_needs bpd in
           Array.init
             (max (Array.length a) (Array.length b))
             (fun i ->
               (if i < Array.length a then a.(i) else 0.0)
               +. (if i < Array.length b then b.(i) else 0.0)));
      let parts =
        par_run t ~pooled:(pooled2 t apd bpd) (Pdata.nparts apd) (fun i ->
            let da = Emma_databag.Databag.of_list apd.Pdata.parts.(i) in
            let db = Emma_databag.Databag.of_list bpd.Pdata.parts.(i) in
            Emma_databag.Databag.to_list
              (Emma_databag.Databag.minus ~cmp:Value.compare da db))
      in
      charge_local_cpu t apd;
      Obag (Pdata.make ~part_key:idkey ~rmult:apd.Pdata.rmult ~bmult:apd.Pdata.bmult parts)
  | Plan.Distinct a ->
      let pd = exec_to_bag t env a in
      charge_stage t;
      let idkey = Plan.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
      let pd = shuffle_by t idkey Fun.id pd in
      (* per-slot sort/dedup buffer *)
      reserve_memory t ~op:"distinct" ~needs:(part_needs pd);
      charge_local_cpu t pd;
      Obag
        (par_map_parts ?part_key:pd.Pdata.part_key t
           (fun part ->
             Emma_databag.Databag.to_list
               (Emma_databag.Databag.distinct ~cmp:Value.compare
                  (Emma_databag.Databag.of_list part)))
           pd)
  | Plan.Cache q -> begin
      (* Transparent here; eager materialization is handled at the handle
         level by the driver (see force_plan). *)
      exec_plan t env q
    end
  | Plan.Partition_by (key, q) ->
      (* no stage charge: enforcing a partitioning is the map-side of the
         shuffle a downstream consumer would otherwise perform itself *)
      let pd = exec_to_bag t env q in
      let keyfn = udf_fn t env key in
      Obag (shuffle_by t key keyfn pd)
  | Plan.Stateful_create { key; init } ->
      let pd = exec_to_bag t env init in
      charge_stage t;
      let keyfn = udf_fn t env key in
      let pd = shuffle_by t key keyfn pd in
      (* per-slot state table of the stateful bag *)
      reserve_memory t ~op:"statefulCreate" ~needs:(part_needs pd);
      let duplicate _ _ = raise (Engine_failure "stateful bag: duplicate key") in
      let parts =
        par_run t ~pooled:(pooled t pd) (Pdata.nparts pd) (fun i ->
            let part = pd.Pdata.parts.(i) in
            let h = Keyed.create (List.length part) in
            List.iter (fun v -> Keyed.upsert h (keyfn v) v ~init:Fun.id ~merge:duplicate) part;
            h)
      in
      Ostateful
        { s_key = key;
          s_keyfn = keyfn;
          s_parts = parts;
          s_rmult = pd.Pdata.rmult;
          s_bmult = pd.Pdata.bmult }
  | Plan.Stateful_read x -> begin
      match lookup_env env x with
      | Dstateful sh ->
          charge_stage t;
          let parts = Array.map (fun h -> Keyed.fold (fun _ v acc -> v :: acc) h []) sh.s_parts in
          Obag (Pdata.make ~part_key:sh.s_key ~rmult:sh.s_rmult ~bmult:sh.s_bmult parts)
      | _ -> raise (Engine_failure (Printf.sprintf "%s is not a stateful bag" x))
    end
  | Plan.Stateful_update { state; udf } -> begin
      match lookup_env env state with
      | Dstateful sh ->
          charge_stage t;
          let f = udf_fn t env udf in
          let f v = Value.to_option (f v) in
          (* each task mutates only its own partition's state cells *)
          let delta_parts =
            par_run t ~pooled:(state_pooled t sh) (Array.length sh.s_parts) (fun i ->
                Keyed.update_all f sh.s_parts.(i))
          in
          let pd = Pdata.make ~part_key:sh.s_key ~rmult:sh.s_rmult ~bmult:sh.s_bmult delta_parts in
          charge_local_cpu t pd;
          Obag pd
      | _ -> raise (Engine_failure (Printf.sprintf "%s is not a stateful bag" state))
    end
  | Plan.Stateful_update_msgs { state; msg_key; messages; udf } -> begin
      match lookup_env env state with
      | Dstateful sh ->
          let msgs = exec_to_bag t env messages in
          charge_stage t;
          let mkeyfn = udf_fn t env msg_key in
          (* route messages to the state's partitions (free when the
             producing aggregation already partitioned them by key) *)
          let msgs = shuffle_by t sh.s_key mkeyfn msgs in
          charge_local_cpu t msgs;
          let f = udf2_fn t env udf in
          let f s m = Value.to_option (f s m) in
          (* [changed] holds each updated key's latest value; a partition
             without messages builds none *)
          let delta_parts =
            par_run t ~pooled:(pooled t msgs) (Array.length sh.s_parts) (fun i ->
                match if i < Pdata.nparts msgs then msgs.Pdata.parts.(i) else [] with
                | [] -> []
                | mpart ->
                    let h = sh.s_parts.(i) and changed = Keyed.create 16 in
                    List.iter
                      (fun m ->
                        let k = mkeyfn m in
                        match Keyed.update h k m f with
                        | Some v' -> Keyed.replace changed k v'
                        | None -> ())
                      mpart;
                    Keyed.fold (fun _ v acc -> v :: acc) changed [])
          in
          Obag (Pdata.make ~part_key:sh.s_key ~rmult:sh.s_rmult ~bmult:sh.s_bmult delta_parts)
      | _ -> raise (Engine_failure (Printf.sprintf "%s is not a stateful bag" state))
    end

(* Shuffle to a hash partitioning by [key] unless already co-partitioned.
   The map side — evaluating the key UDF and routing every element — runs
   per partition on the pool; the scatter itself is coordinator-side list
   surgery. Each destination lists its rows source partition by source
   partition, each source's rows in their order. *)
and shuffle_by t key keyfn (pd : Pdata.t) : Pdata.t =
  if Pdata.co_partitioned pd key then pd
  else begin
    charge_shuffle t (Pdata.logical_bytes pd);
    let nparts = max 1 (dop t) in
    inject_fetch_faults t ~bytes:(Pdata.logical_bytes pd) ~nparts;
    let route v = (abs (Value.hash (keyfn v)) mod nparts, v) in
    let routed =
      par_run t ~pooled:(pooled t pd) (Pdata.nparts pd) (fun i ->
          List.map route pd.Pdata.parts.(i))
    in
    let parts = Array.make nparts [] in
    Array.iter (List.iter (fun (i, v) -> parts.(i) <- v :: parts.(i))) routed;
    Pdata.make ~part_key:key ~rmult:pd.Pdata.rmult ~bmult:pd.Pdata.bmult
      (Array.map List.rev parts)
  end

and exec_group_by t key keyfn (pd : Pdata.t) : out =
  (* the shuffle keeps every row, so its input prices the grouping *)
  let grouping_pooled = pooled t pd in
  let pd = shuffle_by t key keyfn pd in
  (* group within each partition *)
  let groups_of part =
    let h = Keyed.create 64 in
    List.iter (fun v -> Keyed.upsert h (keyfn v) v ~init:singleton ~merge:cons) part;
    Keyed.fold
      (fun k l acc -> Value.Record [| ("key", k); ("values", Value.Bag (List.rev l)) |] :: acc)
      h []
  in
  let parts =
    par_run t ~pooled:grouping_pooled (Pdata.nparts pd) (fun i -> groups_of pd.Pdata.parts.(i))
  in
  let overhead = t.cluster.Cluster.group_overhead in
  let out_rmult = 1.0 and out_bmult = pd.Pdata.bmult *. overhead in
  (* memory check: the largest materialized group must fit in one slot *)
  let max_group_bytes =
    Array.fold_left
      (fun acc part ->
        List.fold_left
          (fun acc g -> max acc (float_of_int (Value.byte_size (Value.field g "values"))))
          acc part)
      0.0 parts
  in
  let max_group_logical = max_group_bytes *. pd.Pdata.bmult *. overhead in
  if max_group_logical > t.cluster.Cluster.mem_per_slot then begin
    if t.profile.Cluster.groupby_spills then charge_spill t max_group_bytes
    else
      raise
        (Engine_failure
           (Printf.sprintf "out of memory: a single group of %.0f MB exceeds the %.0f MB slot budget"
              (max_group_logical /. 1e6)
              (t.cluster.Cluster.mem_per_slot /. 1e6)))
  end;
  let out = Pdata.make ~part_key:(group_key_udf ()) ~rmult:out_rmult ~bmult:out_bmult parts in
  (* budget governance is a second, per-slot layer over the legacy
     single-group check above: the whole hash table of groups a slot
     materializes must fit its budget *)
  reserve_memory t ~op:"groupBy" ~needs:(part_needs out);
  charge_local_cpu t out;
  Obag out

and exec_agg_by t key keyfn (fns : Compile.owned) (pd : Pdata.t) : out =
  let { Compile.algebra = { empty; step; _ }; merge; absorb } = fns in
  (* Map-side combine: one (key, acc) pair per distinct key per partition.
     [first v] is a new accumulator that its table cell owns, so [merge]
     updates it in place (see [Compile.owned]). Each task folds all its
     partitions in one table, reset between them. Pairs bound for the
     shuffle are emitted in reverse fold order, which the scatter below
     turns back. *)
  let first v = step empty v in
  let co_partitioned = Pdata.co_partitioned pd key in
  let emit = if co_partitioned then Keyed.fold else Keyed.fold_rev in
  let combine h i =
    match pd.Pdata.parts.(i) with
    | [] -> []
    | part ->
        Keyed.reset h;
        combine_rows h keyfn first merge part;
        emit (fun k acc l -> Value.Tuple [| k; acc |] :: l) h []
  in
  let combined =
    Pdata.make ~rmult:1.0 ~bmult:1.0
      (par_run_with t ~pooled:(pooled t pd) (Pdata.nparts pd) ~init:agg_table combine)
  in
  (* The combined pairs' bytes are read here, before the reduce merges
     into their accumulators: this forces [combined]'s stats. *)
  reserve_memory t ~op:"aggBy" ~needs:(part_needs combined);
  (* shuffle only the combined aggregates *)
  let shuffled =
    if co_partitioned then
      (* input was already partitioned by key: aggregates stay local *)
      combined.Pdata.parts
    else begin
      charge_shuffle t (Pdata.logical_bytes combined);
      let nparts = max 1 (dop t) in
      inject_fetch_faults t ~bytes:(Pdata.logical_bytes combined) ~nparts;
      (* sources last to first, each in reverse fold order, consed: each
         destination lists its pairs source by source, in fold order *)
      let dests = Array.make nparts [] in
      for src = Pdata.nparts combined - 1 downto 0 do
        scatter dests combined.Pdata.parts.(src)
      done;
      dests
    end
  in
  (* reduce side: merge partials per key, in place into the partial
     adopted first *)
  let reduce h i =
    match shuffled.(i) with
    | [] -> []
    | part ->
        Keyed.reset h;
        reduce_pairs h absorb part;
        Keyed.fold (fun k acc l -> Value.Record [| ("key", k); ("agg", acc) |] :: l) h []
  in
  let out =
    Pdata.make ~part_key:(group_key_udf ()) ~rmult:1.0 ~bmult:1.0
      (par_run_with t ~pooled:(pooled t combined) (Array.length shuffled) ~init:agg_table reduce)
  in
  (* the reduce-side merge hash table *)
  reserve_memory t ~op:"aggBy" ~needs:(part_needs out);
  charge_local_cpu t out;
  Obag out

and group_key_udf () = Plan.udf_of_expr (Expr.Lam ("g", Expr.Field (Expr.Var "g", "key")))

(* Every join kind takes one path. A semi- or anti-join's right side only
   contributes its key set: broadcast, the left side is probed against
   one key set in place; repartitioned, each slot builds its right
   partition's key set. An inner join broadcasts the smaller side as a
   hash index, or builds one per right partition. Semi and anti differ
   only in the polarity of the probe. *)
and exec_join t env ~kind ~lkey ~rkey (lpd : Pdata.t) (rpd : Pdata.t) : out =
  charge_stage t;
  let lfn = udf_fn t env lkey and rfn = udf_fn t env rkey in
  let rbytes = Pdata.logical_bytes rpd in
  let lbytes = Pdata.logical_bytes lpd in
  let threshold = t.cluster.Cluster.broadcast_threshold in
  (* JIT strategy selection: under the threshold a side is always
     broadcast; above it the estimated costs decide — the cost-based
     decision the paper's §4/§7 defers to runtime, where both input sizes
     are known. Repartitioning only pays for sides not already
     co-partitioned on their join key, except in the anti-join's
     estimate, which charges both sides (its shuffles are still
     skipped). *)
  let discount = kind <> Plan.Anti in
  let lside = if discount && Pdata.co_partitioned lpd lkey then 0.0 else lbytes in
  let rside = if discount && Pdata.co_partitioned rpd rkey then 0.0 else rbytes in
  let small_bytes = if kind = Plan.Inner then Float.min lbytes rbytes else rbytes in
  let broadcastable =
    match t.cluster.Cluster.join_strategy with
    | Cluster.Force_broadcast -> true
    | Cluster.Force_repartition -> false
    | Cluster.Jit ->
        small_bytes <= threshold
        || small_bytes *. t.profile.Cluster.broadcast_factor /. t.cluster.Cluster.net_bw *. 2.0
           < (lside +. rside) /. (float_of_int t.cluster.Cluster.nodes *. t.cluster.Cluster.net_bw)
  in
  if broadcastable then begin
    match kind with
    | Plan.Semi | Plan.Anti ->
        (* broadcast the right side as a key set; left stays in place *)
        charge_broadcast t rbytes;
        reserve_memory t ~op:(Plan.join_name kind) ~needs:[| rbytes |];
        let keys = key_set ~size:1024 rfn (Pdata.to_list rpd) in
        charge_local_cpu t lpd;
        (* probe in parallel: the broadcast key set is read-only *)
        Obag
          (par_map_parts ?part_key:lpd.Pdata.part_key t
             (probe_keys ~keep:(kind = Plan.Semi) keys lfn)
             lpd)
    | Plan.Inner ->
        (* broadcast the smaller side; build a hash map on it *)
        let small, big, small_fn, big_fn, small_left =
          if lbytes <= rbytes then (lpd, rpd, lfn, rfn, true) else (rpd, lpd, rfn, lfn, false)
        in
        charge_broadcast t (Pdata.logical_bytes small);
        (* the broadcast build side's hash index lives on every slot; it
           must fit one slot's budget *)
        reserve_memory t ~op:(Plan.join_name kind) ~needs:[| Pdata.logical_bytes small |];
        let index = join_index ~size:1024 small_fn (Pdata.to_list small) in
        charge_local_cpu t big;
        let out_rmult = Float.max lpd.Pdata.rmult rpd.Pdata.rmult in
        let out_bmult = Float.max lpd.Pdata.bmult rpd.Pdata.bmult in
        let join_one v =
          match Keyed.find_or index (big_fn v) [] with
          | [] -> []
          | ws ->
              List.map
                (fun w -> if small_left then Value.Tuple [| w; v |] else Value.Tuple [| v; w |])
                ws
        in
        Obag (Pdata.with_mult ~rmult:out_rmult ~bmult:out_bmult
                (par_map_parts t (List.concat_map join_one) big))
  end
  else begin
    (* repartition join: shuffle both sides by their keys (skipping
       co-partitioned inputs) *)
    let l = shuffle_by t lkey lfn lpd in
    let r = shuffle_by t rkey rfn rpd in
    (* grace-style build: each slot hashes its right partition *)
    reserve_memory t ~op:(Plan.join_name kind) ~needs:(part_needs r);
    charge_local_cpu t l;
    charge_local_cpu t r;
    (* partition-local build + probe, whole partitions per task *)
    let parts =
      par_run t ~pooled:(pooled2 t l r) (Pdata.nparts l) (fun i ->
          let rpart = if i < Pdata.nparts r then r.Pdata.parts.(i) else [] in
          match kind with
          | Plan.Semi | Plan.Anti ->
              probe_keys ~keep:(kind = Plan.Semi)
                (key_set ~size:(List.length rpart) rfn rpart)
                lfn l.Pdata.parts.(i)
          | Plan.Inner ->
              let index = join_index ~size:(List.length rpart) rfn rpart in
              List.concat_map
                (fun v ->
                  match Keyed.find_or index (lfn v) [] with
                  | [] -> []
                  | ws -> List.map (fun w -> Value.Tuple [| v; w |]) ws)
                l.Pdata.parts.(i))
    in
    match kind with
    | Plan.Semi | Plan.Anti ->
        Obag (Pdata.make ~part_key:lkey ~rmult:lpd.Pdata.rmult ~bmult:lpd.Pdata.bmult parts)
    | Plan.Inner ->
        Obag
          (Pdata.make
             ~rmult:(Float.max lpd.Pdata.rmult rpd.Pdata.rmult)
             ~bmult:(Float.max lpd.Pdata.bmult rpd.Pdata.bmult)
             parts)
  end

(* ------------------------------------------------------------------ *)
(* Driver interpretation                                                *)
(* ------------------------------------------------------------------ *)

(* Evaluate a pure driver expression: its free variables are resolved from
   the driver environment (collecting distributed bags — DFL→DRV). *)
and driver_eval_env t env (e : Expr.expr) : Eval.env =
  let fv = Expr.free_vars e in
  Strset.fold
    (fun x acc ->
      match List.assoc_opt x env with
      | None -> acc
      | Some (Dscalar rv) -> Eval.bind x rv acc
      | Some (Dbag h) -> Eval.bind x (Eval.V (Value.bag (force_bag t h))) acc
      | Some (Dstateful _) -> acc)
    fv Eval.empty_env

and eval_driver_expr t env (e : Expr.expr) : Value.t =
  Eval.eval_value t.eval_ctx (driver_eval_env t env e) e

(* Like [eval_driver_expr] but keeps closures: a driver binding may be a
   function later captured by worker UDFs (shipped as a zero-byte
   broadcast, like the native interpreter's driver-bound closures). *)
and eval_driver_rv t env (e : Expr.expr) : Eval.rvalue =
  Eval.eval t.eval_ctx (driver_eval_env t env e) e

let snapshot (env : (string * dval ref) list) : env = List.map (fun (n, r) -> (n, !r)) env

let has_cache_root p =
  let rec go = function
    | Plan.Cache _ -> true
    | Plan.Partition_by (_, q) -> go q
    | _ -> false
  in
  go p

let force_plan t (env : (string * dval ref) list) (p : Plan.t) : dval =
  let snap = snapshot env in
  match Plan.result_kind p with
  | Plan.Rscalar -> begin
      match in_job t (fun () -> exec_plan t snap p) with
      | Oscalar v -> Dscalar (Eval.V v)
      | _ -> raise (Engine_failure "expected a scalar dataflow result")
    end
  | Plan.Rstateful -> begin
      match in_job t (fun () -> exec_plan t snap p) with
      | Ostateful sh -> Dstateful sh
      | _ -> raise (Engine_failure "expected a stateful dataflow result")
    end
  | Plan.Rbag ->
      let cache_loc =
        if has_cache_root p then
          Some (if t.profile.Cluster.memory_cache then Mem else Dfs)
        else None
      in
      let h =
        { h_plan = p;
          h_env = snap;
          h_cache = cache_loc;
          h_mat = None;
          h_memid = None;
          h_epoch = 0;
          h_collected = None }
      in
      let needs_eager =
        Plan.fold_plan
          (fun acc n ->
            acc
            ||
            match n with
            | Plan.Stateful_update _ | Plan.Stateful_update_msgs _
            (* reads of mutable state must be snapshotted at binding time,
               like the native evaluator's eager [bag()] *)
            | Plan.Stateful_read _ ->
                true
            | _ -> false)
          false p
      in
      (* stateful updates have side effects and must run exactly once, now;
         their result is pinned so consumers never re-run the update (and
         state reads are pinned so later mutations stay invisible) *)
      if needs_eager then begin
        let pd =
          match in_job t (fun () -> exec_plan t snap p) with
          | Obag pd -> pd
          | _ -> raise (Engine_failure "expected a bag-valued dataflow")
        in
        h.h_epoch <- t.chaos.loss_epoch;
        h.h_mat <- Some (pd, Mem)
      end;
      Dbag h

let exec_rhs t (env : (string * dval ref) list) (r : Cprog.rhs) : dval =
  match Cprog.plan_of_rhs r with
  | Some p -> force_plan t env p
  | None ->
      (* general driver expression: force each thunk, then evaluate *)
      let env_with_thunks =
        List.fold_left
          (fun acc (n, p) ->
            let snap = snapshot env in
            match Plan.result_kind p with
            | Plan.Rscalar -> begin
                match in_job t (fun () -> exec_plan t snap p) with
                | Oscalar v -> (n, ref (Dscalar (Eval.V v))) :: acc
                | _ -> raise (Engine_failure "expected scalar")
              end
            | Plan.Rbag -> begin
                match in_job t (fun () -> exec_plan t snap p) with
                | Obag pd ->
                    let vs = Pdata.to_list pd in
                    charge_collect t (Pdata.logical_bytes pd);
                    (n, ref (Dscalar (Eval.V (Value.bag vs)))) :: acc
                | _ -> raise (Engine_failure "expected bag")
              end
            | Plan.Rstateful -> begin
                match in_job t (fun () -> exec_plan t snap p) with
                | Ostateful sh -> (n, ref (Dstateful sh)) :: acc
                | _ -> raise (Engine_failure "expected stateful")
              end)
          env r.Cprog.thunks
      in
      Dscalar (eval_driver_rv t (snapshot env_with_thunks) r.Cprog.expr)

let as_bool = function
  | Dscalar (Eval.V (Value.Bool b)) -> b
  | _ -> raise (Engine_failure "expected a boolean driver value")

(* ------------------------------------------------------------------ *)
(* Loop checkpointing                                                   *)
(* ------------------------------------------------------------------ *)

(* Variables assigned anywhere in a statement block — together with the
   in-place-mutated stateful bags in scope, this is the driver-loop state
   a checkpoint must capture. *)
let rec assigned_vars acc stmts =
  List.fold_left
    (fun acc -> function
      | Cprog.CAssign (x, _) -> Strset.add x acc
      | Cprog.CWhile (_, b) -> assigned_vars acc b
      | Cprog.CIf (_, th, el) -> assigned_vars (assigned_vars acc th) el
      | Cprog.CLet _ | Cprog.CVar _ | Cprog.CWrite _ -> acc)
    acc stmts

(* Deep copy of a driver value, detached from every mutable cell the live
   value can reach: handles get fresh memo fields, stateful bags fresh
   tables ([Keyed.copy], which keeps each table's fold order). Applied
   both when a checkpoint is taken and when it is restored, so one
   checkpoint survives any number of restores. *)
let copy_dval = function
  | Dscalar rv -> Dscalar rv
  (* the copy is a fresh record, and it does NOT inherit the registry id:
     the registry's evict closure points at the original handle, so a
     restored copy is simply an unaccounted materialization (touched
     never, evicted never) rather than a stale alias *)
  | Dbag h -> Dbag { h with h_memid = None }
  | Dstateful sh ->
      Dstateful { sh with s_parts = Array.map Keyed.copy sh.s_parts }

(* Logical size of a driver value, for checkpoint accounting. Unforced
   bags checkpoint their lineage (a plan), which is free. *)
let dval_bytes = function
  | Dscalar (Eval.V v) -> float_of_int (Value.byte_size v)
  | Dscalar (Eval.Clo _ | Eval.St _) -> 0.0
  | Dbag h -> begin
      match (h.h_mat, h.h_collected) with
      | Some (pd, _), _ -> Pdata.logical_bytes pd
      | None, Some (_, lbytes, _) -> lbytes
      | None, None -> 0.0
    end
  | Dstateful sh ->
      sh.s_bmult
      *. Array.fold_left
           (fun acc tbl ->
             Keyed.fold (fun _ v acc -> acc +. float_of_int (Value.byte_size v)) tbl acc)
           0.0 sh.s_parts

(* Deterministic textual fingerprint of checkpointed loop state — the
   payload whose CRC32 guards the record on the simulated DFS. Values are
   rendered through [Value.pp]; partition and hash-table contents are
   sorted so the fingerprint is identical across runs and domain counts.
   Closures and unforced lineage fingerprint as opaque markers: they are
   code, not data, and cannot rot on disk. *)
let fingerprint_state (st : (string * dval) list) : Bytes.t =
  let buf = Buffer.create 256 in
  let render v = Format.asprintf "%a" Value.pp v in
  let add_sorted parts = List.iter (Buffer.add_string buf) (List.sort String.compare parts) in
  List.iter
    (fun (x, d) ->
      Buffer.add_string buf x;
      Buffer.add_char buf '=';
      (match d with
      | Dscalar (Eval.V v) -> Buffer.add_string buf (render v)
      | Dscalar (Eval.Clo _ | Eval.St _) -> Buffer.add_string buf "<fun>"
      | Dbag h -> (
          match (h.h_mat, h.h_collected) with
          | Some (pd, _), _ ->
              add_sorted
                (List.concat_map (List.map render) (Array.to_list pd.Pdata.parts))
          | None, Some (vs, _, _) -> add_sorted (List.map render vs)
          | None, None -> Buffer.add_string buf "<lineage>")
      | Dstateful sh ->
          add_sorted
            (Array.to_list sh.s_parts
            |> List.concat_map (fun tbl ->
                   Keyed.fold (fun k v acc -> (render k ^ "=" ^ render v) :: acc) tbl [])));
      Buffer.add_char buf ';')
    st;
  Buffer.to_bytes buf

(* A checkpoint record as "written to DFS": the live snapshot used for
   restore, plus the payload fingerprint and the CRC32 computed at write
   time. Injected corruption flips a payload byte AFTER the CRC was
   taken; the restore path recomputes the CRC and skips mismatches. *)
type checkpoint = {
  ck_state : (string * dval) list;
  ck_iter : int;  (* completed iterations at snapshot time *)
  ck_on_dfs : bool;  (* the loop-entry snapshot is free driver memory *)
  ck_payload : Bytes.t;
  ck_crc : int;
}

let run t (prog : Cprog.t) : Value.t =
  let wall_start = Unix.gettimeofday () in
  let rec exec_block env stmts = List.fold_left exec_stmt env stmts
  and exec_stmt env s =
    match s with
    | Cprog.CLet (x, r) | Cprog.CVar (x, r) -> (x, ref (exec_rhs t env r)) :: env
    | Cprog.CAssign (x, r) -> begin
        match List.assoc_opt x env with
        | Some cell ->
            cell := exec_rhs t env r;
            env
        | None -> raise (Engine_failure (Printf.sprintf "assignment to unbound %s" x))
      end
    | Cprog.CWhile (c, body) ->
        (* With native iteration support, the loop's dataflows are deployed
           once and re-driven through feedback edges: iterations after the
           first pay a reduced submission overhead. *)
        let saved = t.iteration_rerun in
        (* Loop state for checkpointing: every cell the body assigns plus
           every stateful bag in scope (mutated in place by the stateful
           update operators). An injected loop loss restores the last
           checkpoint — or the free loop-entry snapshot when checkpointing
           is off — and replays iterations from there; the replay is
           deterministic, so the final result is bit-identical to the
           fault-free run. *)
        let targets = assigned_vars Strset.empty body in
        let state_cells =
          List.filter
            (fun (x, cell) ->
              Strset.mem x targets
              || (match !cell with Dstateful _ -> true | _ -> false))
            env
        in
        let snap () = List.map (fun (x, cell) -> (x, copy_dval !cell)) state_cells in
        let state_bytes st = List.fold_left (fun acc (_, d) -> acc +. dval_bytes d) 0.0 st in
        let restore st =
          List.iter
            (fun (x, d) ->
              match List.assoc_opt x env with
              | Some cell -> cell := copy_dval d
              | None -> ())
            st
        in
        let rc = recovery t in
        let dfs_s bytes =
          bytes /. (float_of_int t.cluster.Cluster.nodes *. t.cluster.Cluster.disk_bw)
        in
        (* Checkpoint records, newest first. The loop-entry snapshot is
           the final fallback and never corrupts — it is driver memory,
           not a DFS record. *)
        let ckpts =
          ref
            [ { ck_state = snap ();
                ck_iter = 0;
                ck_on_dfs = false;
                ck_payload = Bytes.empty;
                ck_crc = 0 } ]
        in
        let restarts = ref 0 in
        (* Walk newest → oldest, paying the DFS read for every record
           examined; a record whose payload no longer matches its CRC32
           is corrupt — count it, skip it, fall back to the previous
           good one. *)
        let pick_checkpoint () =
          let rec go = function
            | [] -> assert false (* the loop-entry snapshot always remains *)
            | ck :: rest ->
                if ck.ck_on_dfs then charge t (dfs_s (state_bytes ck.ck_state));
                if ck.ck_on_dfs && Crc32.bytes ck.ck_payload <> ck.ck_crc then begin
                  t.metrics.Metrics.checkpoint_corruptions <-
                    t.metrics.Metrics.checkpoint_corruptions + 1;
                  recovery_instant t "checkpoint_corrupt"
                    [ ("iteration", Trace.A_int ck.ck_iter) ];
                  go rest
                end
                else ck
          in
          go !ckpts
        in
        let rec loop iter =
          if as_bool (exec_rhs t env c) then begin
            if iter > 0 && t.profile.Cluster.native_iterations then
              t.iteration_rerun <- true;
            ignore (exec_block env body);
            let iter = iter + 1 in
            (match t.checkpoint_every with
            | Some k when iter mod k = 0 ->
                let st = snap () in
                let bytes = state_bytes st in
                t.metrics.Metrics.checkpoints <- t.metrics.Metrics.checkpoints + 1;
                t.metrics.Metrics.checkpoint_bytes <-
                  t.metrics.Metrics.checkpoint_bytes +. bytes;
                (* priced like a DFS write, but counted only in the
                   checkpoint channel so the plain I/O metrics stay
                   untouched by the chaos subsystem *)
                charge t (dfs_s bytes);
                let payload = fingerprint_state st in
                let crc = Crc32.bytes payload in
                t.chaos.ckpt_seq <- t.chaos.ckpt_seq + 1;
                if
                  chaos_active t
                  && Faults.ckpt_corrupt t.faults ~ckpt:t.chaos.ckpt_seq
                  && Bytes.length payload > 0
                then begin
                  (* simulated bit rot, injected AFTER the CRC was taken:
                     flip one payload byte, which is exactly what on-disk
                     corruption looks like to the restore path *)
                  let i = Bytes.length payload / 2 in
                  Bytes.set payload i
                    (Char.chr (Char.code (Bytes.get payload i) lxor 0x40))
                end;
                recovery_instant t "checkpoint"
                  [ ("iteration", Trace.A_int iter); ("bytes", Trace.A_float bytes) ];
                ckpts :=
                  { ck_state = st;
                    ck_iter = iter;
                    ck_on_dfs = true;
                    ck_payload = payload;
                    ck_crc = crc }
                  :: !ckpts
            | _ -> ());
            if chaos_active t then begin
              t.chaos.boundary_seq <- t.chaos.boundary_seq + 1;
              if
                Faults.loop_loss t.faults ~boundary:t.chaos.boundary_seq
                && !restarts < rc.Cluster.max_loop_restarts
              then begin
                (* driver loses its loop state: roll back to the last
                   checkpoint and replay. The restart cap guarantees
                   termination even at loss rate 1.0. *)
                incr restarts;
                let ck = pick_checkpoint () in
                t.metrics.Metrics.loop_restores <- t.metrics.Metrics.loop_restores + 1;
                restore ck.ck_state;
                recovery_instant t "loop_restore"
                  [ ("boundary", Trace.A_int t.chaos.boundary_seq);
                    ("from_iteration", Trace.A_int ck.ck_iter);
                    ("lost_iterations", Trace.A_int (iter - ck.ck_iter)) ];
                loop ck.ck_iter
              end
              else loop iter
            end
            else loop iter
          end
        in
        loop 0;
        t.iteration_rerun <- saved;
        env
    | Cprog.CIf (c, th, el) ->
        ignore (exec_block env (if as_bool (exec_rhs t env c) then th else el));
        env
    | Cprog.CWrite (name, r) -> begin
        match exec_rhs t env r with
        | Dbag h ->
            let pd = materialize t h in
            charge_dfs_write t (Pdata.logical_bytes pd);
            Eval.register_table t.eval_ctx name (Pdata.to_list pd);
            env
        | Dscalar (Eval.V (Value.Bag vs)) ->
            charge_dfs_write t (float_of_int (rows_bytes vs));
            Eval.register_table t.eval_ctx name vs;
            env
        | _ -> raise (Engine_failure "write: expected a bag")
      end
  in
  Fun.protect
    ~finally:(fun () ->
      (* real elapsed time, the engine's only wall-clock (not simulated)
         figure — accumulated even when the run raises *)
      t.metrics.Metrics.wall_time_s <-
        t.metrics.Metrics.wall_time_s +. (Unix.gettimeofday () -. wall_start))
    (fun () ->
      let env = exec_block [] prog.Cprog.cbody in
      match exec_rhs t env prog.Cprog.cret with
      | Dscalar (Eval.V v) -> v
      | Dbag h -> Value.bag (force_bag t h)
      | Dscalar (Eval.Clo _) -> raise (Engine_failure "program returned a function")
      | Dscalar (Eval.St _) | Dstateful _ ->
          raise (Engine_failure "program returned a stateful bag"))
