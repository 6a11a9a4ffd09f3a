(* The multi-tenant service layer over Emma.Session: a deterministic
   discrete-event simulation of fair-share serving. Queries are
   dispatched over [lanes] simulated service lanes (the max_inflight
   admission gate) by deficit round-robin over per-tenant queues; service
   time is the session's deterministic compile charge plus the engine's
   simulated cost. Every quantity that feeds a scheduling decision is
   simulated, so counters and the fingerprint replay bit-identically
   across runs and across domain counts.

   The decisions themselves live in [Sched], which never runs, journals
   or traces anything. This file is the one driver over it: it journals
   each decision, runs each dispatch through an executor — [submit] when
   serving, [replay] (the journaled outcome, else a re-submission) when
   recovering — and prints and parses the scheduler state as snapshots. *)

module Session = Emma.Session
module Config = Emma.Config
module Metrics = Emma.Metrics
module Plan_cache = Emma.Plan_cache
module Cluster = Emma.Cluster
module Expr = Emma.Expr
module Value = Emma.Value
module Json = Emma.Json
module Wal = Emma_util.Wal
module Trace = Emma_util.Trace

type tenant = { tn_name : string; tn_weight : int; tn_mem_budget : float option }

let tenant ?(weight = 1) ?mem_budget name =
  if weight < 1 then invalid_arg "Serve.tenant: weight must be >= 1";
  { tn_name = name; tn_weight = weight; tn_mem_budget = mem_budget }

type workload = (string * (Expr.program * (string * Value.t list) list)) list

type query_result = {
  qr_sub : int;
  qr_tenant : string;
  qr_query : string;
  qr_arrival_s : float;
  qr_start_s : float;
  qr_finish_s : float;
  qr_service_s : float;
  qr_cache : Session.cache_status;
  qr_outcome : Session.outcome;
  qr_degrade : int;  (* degradation-ladder level the query ran at (0-3) *)
}

(* Shedding is always counted and reported per submission — no query
   ever disappears silently. *)
type shed_reason = Sched.shed_reason =
  | Shed_deadline
  | Shed_queue_full
  | Shed_breaker
  | Shed_drain
  | Shed_degraded

type shed_record = {
  sh_sub : int;
  sh_tenant : string;
  sh_query : string;
  sh_arrival_s : float;
  sh_at_s : float;  (* clock when the shed decision was taken *)
  sh_reason : shed_reason;
}

type tenant_counters = {
  tc_name : string;
  tc_weight : int;
  tc_admissions : int;
  tc_max_queue : int;
  tc_shed : int;
  tc_breaker_opens : int;
  tc_queue_wait_s : float;
  tc_service_s : float;
}

type counters = {
  sv_results : query_result list;  (* in submission-id order *)
  sv_shed : shed_record list;  (* in submission-id order *)
  sv_tenants : tenant_counters list;  (* in declaration order *)
  sv_cache : Plan_cache.stats option;
  sv_failed : int;
  sv_timed_out : int;
  sv_cancelled : int;
  sv_degraded : int;  (* admitted queries that ran at ladder level >= 1 *)
  sv_breaker_opens : int;
  sv_breaker_half_opens : int;
  sv_breaker_closes : int;
  sv_lanes : int;
  sv_makespan_s : float;
  sv_wall_s : float;  (* host seconds; excluded from the fingerprint *)
}

(* All policy decisions are pure functions of the trace, the seed and the
   simulated clock — never of wall time, domain count or queue-arrival
   races. *)
type policy = Sched.policy = {
  pl_seed : int;
  pl_deadline_s : float option;
  pl_max_queue : int option;
  pl_breaker : Config.breaker_spec option;
  pl_drain_after_s : float option;
  pl_degrade_depth : int option;
}

let no_policy =
  {
    pl_seed = 0;
    pl_deadline_s = None;
    pl_max_queue = None;
    pl_breaker = None;
    pl_drain_after_s = None;
    pl_degrade_depth = None;
  }

(* Derive the serve policy from a session Config: the four robustness
   knobs map across directly; the degradation ladder auto-engages when
   deadlines are on (it exists to protect deadlines — each rung trades
   per-query resources for queue drainage) with a step of 2x lanes of
   backlog per level. *)
let policy_of_config ?(seed = 0) ~lanes cfg =
  {
    pl_seed = seed;
    pl_deadline_s = cfg.Config.deadline_s;
    pl_max_queue = cfg.Config.max_queue;
    pl_breaker = cfg.Config.breaker;
    pl_drain_after_s = cfg.Config.drain_after_s;
    pl_degrade_depth =
      (match cfg.Config.deadline_s with
      | Some _ -> Some (2 * max 1 lanes)
      | None -> None);
  }

let validate tenants workload events =
  if tenants = [] then invalid_arg "Serve: at least one tenant is required";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.tn_name then
        invalid_arg (Printf.sprintf "Serve: duplicate tenant %S" t.tn_name);
      Hashtbl.add seen t.tn_name ())
    tenants;
  List.iteri
    (fun i (e : Arrival.event) ->
      if not (List.exists (fun t -> t.tn_name = e.Arrival.tenant) tenants) then
        invalid_arg
          (Printf.sprintf "Serve: event %d names unknown tenant %S" i
             e.Arrival.tenant);
      if not (List.mem_assoc e.Arrival.query workload) then
        invalid_arg
          (Printf.sprintf "Serve: event %d names unknown query %S" i
             e.Arrival.query))
    events

(* ------------------------------------------------------------------ *)
(* Durability: journal records, snapshots and recovery                  *)
(* ------------------------------------------------------------------ *)

exception Recovery_error of string

type durability = { du_wal : Wal.t; du_snapshot_every : int option }

let cache_to_string = function
  | Session.Hit -> "hit"
  | Session.Miss -> "miss"
  | Session.Uncached -> "off"

let status_to_string = function
  | Session.Finished _ -> "finished"
  | Session.Failed _ -> "failed"
  | Session.Timed_out _ -> "timed_out"
  | Session.Cancelled _ -> "cancelled"

let shed_reason_to_string = function
  | Shed_deadline -> "deadline"
  | Shed_queue_full -> "queue_full"
  | Shed_breaker -> "breaker"
  | Shed_drain -> "drain"
  | Shed_degraded -> "degraded"

let cache_of_string = function
  | "hit" -> Session.Hit
  | "miss" -> Session.Miss
  | "off" -> Session.Uncached
  | s -> raise (Recovery_error (Printf.sprintf "journal: unknown cache status %S" s))

let shed_reason_of_string = function
  | "deadline" -> Shed_deadline
  | "queue_full" -> Shed_queue_full
  | "breaker" -> Shed_breaker
  | "drain" -> Shed_drain
  | "degraded" -> Shed_degraded
  | s -> raise (Recovery_error (Printf.sprintf "journal: unknown shed reason %S" s))

(* Floats are journaled as lossless hex floats; the pinned %.6f decimal
   rendering exists only at fingerprint time, so a value that round-trips
   through the journal is bit-identical to the live one. *)
let fhex = Printf.sprintf "%h"

let fval s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Recovery_error (Printf.sprintf "journal: bad float %S" s))

(* key=value access over a space-split record payload. Fixed fields come
   before the free-form [reason=] tail, so first match wins even when the
   reason itself contains k=v-shaped words. *)
let fields_of payload = String.split_on_char ' ' payload

let field name fs =
  let prefix = name ^ "=" in
  match List.find_opt (String.starts_with ~prefix) fs with
  | Some kv ->
      String.sub kv (String.length prefix) (String.length kv - String.length prefix)
  | None ->
      raise (Recovery_error (Printf.sprintf "journal: record lacks %s= field" name))

let int_field name fs =
  match int_of_string_opt (field name fs) with
  | Some i -> i
  | None ->
      raise (Recovery_error (Printf.sprintf "journal: bad integer in %s= field" name))

(* The free-form reason is always the final field and may contain spaces:
   everything after the first " reason=" is the reason verbatim. *)
let reason_field payload =
  let marker = " reason=" in
  let ml = String.length marker in
  let n = String.length payload in
  let rec find i =
    if i + ml > n then
      raise (Recovery_error (Printf.sprintf "journal: record lacks reason= field: %S" payload))
    else if String.sub payload i ml = marker then String.sub payload (i + ml) (n - i - ml)
    else find (i + 1)
  in
  find 0

let encode_meta ~n ~lanes ~seed ~quantum_s tenants workload =
  Printf.sprintf "meta v=1 n=%d lanes=%d seed=%d quantum=%s tenants=%s queries=%s"
    n lanes seed (fhex quantum_s)
    (String.concat ","
       (List.map (fun t -> Printf.sprintf "%s:%d" t.tn_name t.tn_weight) tenants))
    (String.concat "," (List.map fst workload))

let encode_arrival sub (ev : Arrival.event) =
  Printf.sprintf "arrival sub=%d at=%s tenant=%s query=%s" sub
    (fhex ev.Arrival.at_s) ev.Arrival.tenant ev.Arrival.query

let encode_shed (s : Sched.shed) =
  Printf.sprintf "shed sub=%d at=%s reason=%s" s.Sched.sd_sub (fhex s.Sched.sd_at_s)
    (shed_reason_to_string s.Sched.sd_reason)

let encode_dispatch sub ~start ~level =
  Printf.sprintf "dispatch sub=%d start=%s level=%d" sub (fhex start) level

let encode_outcome ~evictions (r : query_result) =
  let at, reason =
    match r.qr_outcome with
    | Session.Finished _ -> (0.0, "")
    | Session.Failed { reason; _ } -> (0.0, reason)
    | Session.Timed_out { at_s; _ } -> (at_s, "")
    | Session.Cancelled { at_s; reason; _ } -> (at_s, reason)
  in
  Printf.sprintf
    "outcome sub=%d status=%s cache=%s degrade=%d evictions=%d service=%s \
     start=%s finish=%s at=%s reason=%s"
    r.qr_sub
    (status_to_string r.qr_outcome)
    (cache_to_string r.qr_cache)
    r.qr_degrade evictions (fhex r.qr_service_s) (fhex r.qr_start_s)
    (fhex r.qr_finish_s) (fhex at) reason

let check_sub what (evs : Arrival.event array) sub =
  if sub < 0 || sub >= Array.length evs then
    raise (Recovery_error (Printf.sprintf "journal: %s %d out of range" what sub))

(* An outcome record rebuilt as the query's result and the evictions its
   compile caused. The outcome is a status-faithful placeholder: the
   constructor, times and cache classification are exact (they feed the
   fingerprint); the value/ctx and engine metrics of the original run are
   not re-materialised — [recovery_replayed] marks the outcome so
   consumers can tell. The query is NOT re-executed: that is the
   exactly-once half of recovery. *)
let decode_outcome evs payload =
  let fs = fields_of payload in
  let sub = int_field "sub" fs in
  check_sub "sub" evs sub;
  let ev = evs.(sub) in
  let cache = cache_of_string (field "cache" fs) in
  let evictions = int_field "evictions" fs in
  let at_s = fval (field "at" fs) and reason = reason_field payload in
  let m = Metrics.create () in
  m.Metrics.recovery_replayed <- 1;
  (match cache with
  | Session.Hit -> m.Metrics.plan_cache_hits <- 1
  | Session.Miss -> m.Metrics.plan_cache_misses <- 1
  | Session.Uncached -> ());
  m.Metrics.plan_cache_evictions <- evictions;
  let outcome =
    match field "status" fs with
    | "finished" ->
        Session.Finished { Session.value = Value.Unit; metrics = m; ctx = Session.make_ctx [] }
    | "failed" -> Session.Failed { reason; metrics = m }
    | "timed_out" -> Session.Timed_out { at_s; metrics = m }
    | "cancelled" -> Session.Cancelled { at_s; reason; metrics = m }
    | s -> raise (Recovery_error (Printf.sprintf "journal: unknown outcome status %S" s))
  in
  ( {
      qr_sub = sub;
      qr_tenant = ev.Arrival.tenant;
      qr_query = ev.Arrival.query;
      qr_arrival_s = ev.Arrival.at_s;
      qr_start_s = fval (field "start" fs);
      qr_finish_s = fval (field "finish" fs);
      qr_service_s = fval (field "service" fs);
      qr_cache = cache;
      qr_outcome = outcome;
      qr_degrade = int_field "degrade" fs;
    },
    evictions )

(* Journal cursor: the re-simulation regenerates the record stream from
   the top; records before [j_first] were compacted away (nothing to
   check), records inside the retained journal are VERIFIED against it
   (a mismatch means the journal belongs to a different configuration or
   trace), and records past the end are appended. A recovered run
   therefore converges on exactly the journal an uninterrupted run would
   have written — which is what lets repeated crashes compose. *)
type jctx = {
  j_wal : Wal.t;
  j_existing : string array;
  j_first : int;
  mutable j_idx : int; (* global index of the next record to regenerate *)
  j_snap_every : int option;
  mutable j_outcomes : int; (* outcome records seen, replayed or live *)
}

let jwrite j payload =
  let i = j.j_idx in
  j.j_idx <- i + 1;
  if i < j.j_first then ()
  else if i - j.j_first < Array.length j.j_existing then begin
    let old = j.j_existing.(i - j.j_first) in
    if not (String.equal old payload) then
      raise
        (Recovery_error
           (Printf.sprintf
              "journal record %d does not match this serve configuration \
               (journaled %S, regenerated %S): recover with the flags and \
               trace of the original run"
              i old payload))
  end
  else ignore (Wal.append j.j_wal payload)

(* Is the cursor past the retained journal (i.e. writing fresh records)? *)
let j_live j = j.j_idx > j.j_first + Array.length j.j_existing

(* ------------------------------------------------------------------ *)
(* The driver                                                           *)
(* ------------------------------------------------------------------ *)

(* One serve run: the fixed inputs, the journal cursor and what recovery
   counts. Scheduler state lives in a [Sched.state] whose results are
   the query result and the plan-cache evictions its compile caused. *)
type ctx = {
  session : Session.t;
  pol : policy;
  evs : Arrival.event array;
  tarr : tenant array;
  workload : workload;
  journal : jctx option;
  mutable cache_base : int * int * int;
      (* counted cache stats recovered from the journal or a snapshot;
         reported totals = this base + the live session's own counts *)
  mutable replayed : int;
  mutable resubmitted : int;
}

type state = (query_result * int) Sched.state

let program ctx sub = List.assoc ctx.evs.(sub).Arrival.query ctx.workload

let setup ?(quantum_s = 1.0) ?policy ?durability session tenants workload events =
  validate tenants workload events;
  if not (quantum_s > 0.0) then invalid_arg "Serve.run_sim: quantum must be > 0";
  let evs = Array.of_list events in
  let tarr = Array.of_list tenants in
  let lanes =
    match (Session.config session).Config.max_inflight with
    | Some k -> max 1 k
    | None -> max 1 (Array.length tarr)
  in
  let pol =
    match policy with
    | Some p -> p
    | None -> policy_of_config ~lanes (Session.config session)
  in
  (match pol.pl_max_queue with
  | Some k when k < 1 -> invalid_arg "Serve: max_queue must be >= 1"
  | _ -> ());
  let tindex = Hashtbl.create (Array.length tarr) in
  Array.iteri (fun i t -> Hashtbl.replace tindex t.tn_name i) tarr;
  let journal =
    Option.map
      (fun { du_wal; du_snapshot_every } ->
        {
          j_wal = du_wal;
          j_existing = Wal.records du_wal;
          j_first = Wal.first_seq du_wal;
          j_idx = 0;
          j_snap_every = du_snapshot_every;
          j_outcomes = 0;
        })
      durability
  in
  let st : state =
    Sched.create ~quantum_s
      ~weights:(Array.map (fun t -> t.tn_weight) tarr)
      ~lanes
      ~arrivals:(Array.map (fun e -> e.Arrival.at_s) evs)
      ~tenant_of:(Array.map (fun e -> Hashtbl.find tindex e.Arrival.tenant) evs)
  in
  ( { session; pol; evs; tarr; workload; journal; cache_base = (0, 0, 0);
      replayed = 0; resubmitted = 0 },
    st )

(* Live execution. The tenant's memory budget overrides the session's;
   the deadline is end-to-end (arrival -> finish), so the engine gets
   what the queue wait left over. Ladder level 1 halves the execution
   slice (dop), level 2 also turns speculative straggler copies off. *)
let submit ctx (r : Sched.run) =
  let ev = ctx.evs.(r.Sched.sub) in
  let prog, tables = program ctx r.Sched.sub in
  let base = Session.config ctx.session in
  let base =
    match ctx.tarr.(r.Sched.tenant).tn_mem_budget with
    | Some b -> Config.with_mem_budget (Some b) base
    | None -> base
  in
  let config =
    match ctx.pol.pl_deadline_s with
    | Some d -> Config.with_deadline_s (Some (d -. (r.Sched.start -. ev.Arrival.at_s))) base
    | None -> base
  in
  let cluster =
    if r.Sched.level < 1 then None
    else
      let c = (Session.runtime ctx.session).Session.cluster in
      let c =
        if c.Cluster.slots_per_node > 1 then
          { c with Cluster.slots_per_node = max 1 (c.Cluster.slots_per_node / 2) }
        else { c with Cluster.nodes = max 1 (c.Cluster.nodes / 2) }
      in
      if r.Sched.level < 2 then Some c
      else
        Some
          { c with Cluster.recovery = { c.Cluster.recovery with Cluster.speculate = false } }
  in
  let outcome, info = Session.submit ~config ?cluster ctx.session prog ~tables in
  let m = Session.metrics_of_outcome outcome in
  ( outcome,
    info.Session.si_compile_s +. m.Metrics.sim_time_s,
    info.Session.si_cache,
    info.Session.si_evictions )

(* Recovery execution. A query whose outcome is journaled is not run
   again (exactly-once): the plan cache is warmed exactly as the original
   probe/store did (stats-neutral; the counted stats ride [cache_base])
   and the result is rebuilt from the journal. A journaled dispatch with
   no outcome — the query in flight at the crash — is re-submitted under
   its original sub id. *)
let replay memo ctx (r : Sched.run) =
  match Hashtbl.find_opt memo r.Sched.sub with
  | None ->
      (match ctx.journal with
      | Some j when not (j_live j) -> ctx.resubmitted <- ctx.resubmitted + 1
      | _ -> ());
      submit ctx r
  | Some payload ->
      let qr, evictions = decode_outcome ctx.evs payload in
      ctx.replayed <- ctx.replayed + 1;
      if qr.qr_cache <> Session.Uncached then begin
        let prog, tables = program ctx r.Sched.sub in
        Session.prime ctx.session prog ~tables
      end;
      let bh, bm, be = ctx.cache_base in
      ctx.cache_base <-
        ( (bh + if qr.qr_cache = Session.Hit then 1 else 0),
          (bm + if qr.qr_cache = Session.Miss then 1 else 0),
          be + evictions );
      (qr.qr_outcome, qr.qr_service_s, qr.qr_cache, evictions)

(* --- snapshots: the scheduler state, printed and parsed ------------- *)

(* Full scheduler state at a record boundary: restoring it and then
   replaying only the journal suffix reproduces the exact state a
   full-journal replay would reach — snapshots are purely a recovery-
   time optimisation, never a semantic input. Cache contents are
   persisted as LRU-ordered query names; re-priming them rebuilds both
   the population and the recency order. *)
let snapshot_payload ctx (st : state) j =
  let b = Buffer.create 1024 in
  let live =
    match Session.plan_cache_stats ctx.session with
    | Some s -> s
    | None -> { Plan_cache.hits = 0; misses = 0; evictions = 0; entries = 0 }
  in
  let bh, bm, be = ctx.cache_base in
  Buffer.add_string b
    (Printf.sprintf
       "snapshot v=1 covers=%d next=%d accounted=%d rr=%d half_opens=%d \
        closes=%d outcomes=%d hits=%d misses=%d evictions=%d\n"
       j.j_idx st.Sched.next st.Sched.accounted st.Sched.rr st.Sched.half_opens
       st.Sched.closes j.j_outcomes (bh + live.Plan_cache.hits)
       (bm + live.Plan_cache.misses)
       (be + live.Plan_cache.evictions));
  let line tag show a =
    Buffer.add_string b tag;
    Array.iter (fun v -> Buffer.add_string b (" " ^ show v)) a;
    Buffer.add_char b '\n'
  in
  line "lanes" fhex st.Sched.lane_free;
  line "deficit" fhex st.Sched.deficit;
  line "maxq" string_of_int st.Sched.max_queue;
  line "bropens" string_of_int st.Sched.breaker_opens;
  Array.iteri
    (fun ti q -> line (Printf.sprintf "queue %d" ti) string_of_int (Array.of_seq (Queue.to_seq q)))
    st.Sched.queues;
  Array.iteri
    (fun ti br ->
      Buffer.add_string b
        (match br with
        | Sched.Br_closed k -> Printf.sprintf "breaker %d closed %d\n" ti k
        | Sched.Br_open until -> Printf.sprintf "breaker %d open %s\n" ti (fhex until)
        | Sched.Br_half_open -> Printf.sprintf "breaker %d half\n" ti))
    st.Sched.breakers;
  (* A cached key is named by the first workload query, in workload
     order, keyed by it. The scan stops at that query, and the keys come
     from the session's memo, so a warm session computes none. *)
  let name_of key =
    match
      List.find_opt
        (fun (_, (prog, tables)) -> String.equal (Session.plan_key ctx.session prog ~tables) key)
        ctx.workload
    with
    | Some (name, _) -> name
    | None -> raise (Recovery_error "snapshot: cached plan not in the workload")
  in
  line "lru" name_of (Array.of_list (Session.plan_cache_keys ctx.session));
  Array.iter
    (Option.iter (fun (r, evictions) ->
         Buffer.add_string b ("result " ^ encode_outcome ~evictions r ^ "\n")))
    st.Sched.results;
  List.iter
    (fun s -> Buffer.add_string b ("shedrec " ^ encode_shed s ^ "\n"))
    (List.rev st.Sched.sheds);
  Buffer.contents b

let shed_of_payload ctx payload =
  let fs = fields_of payload in
  let sub = int_field "sub" fs in
  check_sub "shed sub" ctx.evs sub;
  { Sched.sd_sub = sub;
    sd_at_s = fval (field "at" fs);
    sd_reason = shed_reason_of_string (field "reason" fs) }

let restore_line ctx (st : state) line =
  let iv s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> raise (Recovery_error (Printf.sprintf "snapshot: bad integer %S" s))
  in
  let fill dst conv vs what =
    let a = Array.of_list (List.map conv vs) in
    if Array.length a <> Array.length dst then
      raise
        (Recovery_error
           (Printf.sprintf
              "snapshot: %s count mismatch — was the journal written with a \
               different configuration?"
              what));
    Array.blit a 0 dst 0 (Array.length dst)
  in
  let tenant_index ti =
    let ti = iv ti in
    if ti < 0 || ti >= Array.length ctx.tarr then
      raise (Recovery_error "snapshot: tenant index out of range");
    ti
  in
  let tail k = String.sub line k (String.length line - k) in
  match String.split_on_char ' ' line with
  | [ "" ] -> ()
  | "lanes" :: vs -> fill st.Sched.lane_free fval vs "lane"
  | "deficit" :: vs -> fill st.Sched.deficit fval vs "tenant"
  | "maxq" :: vs -> fill st.Sched.max_queue iv vs "tenant"
  | "bropens" :: vs -> fill st.Sched.breaker_opens iv vs "tenant"
  | "queue" :: ti :: subs ->
      let q = st.Sched.queues.(tenant_index ti) in
      Queue.clear q;
      List.iter (fun s -> Queue.add (iv s) q) subs
  | "breaker" :: ti :: br ->
      st.Sched.breakers.(tenant_index ti) <-
        (match br with
        | [ "closed"; k ] -> Sched.Br_closed (iv k)
        | [ "open"; u ] -> Sched.Br_open (fval u)
        | [ "half" ] -> Sched.Br_half_open
        | _ -> raise (Recovery_error "snapshot: bad breaker state"))
  | "lru" :: names ->
      List.iter
        (fun name ->
          match List.assoc_opt name ctx.workload with
          | Some (prog, tables) -> Session.prime ctx.session prog ~tables
          | None -> raise (Recovery_error (Printf.sprintf "snapshot: unknown query %S" name)))
        names
  | "result" :: _ ->
      let ((qr, _) as r) = decode_outcome ctx.evs (tail 7) in
      ctx.replayed <- ctx.replayed + 1;
      st.Sched.results.(qr.qr_sub) <- Some r
  | "shedrec" :: _ -> st.Sched.sheds <- shed_of_payload ctx (tail 8) :: st.Sched.sheds
  | _ -> raise (Recovery_error (Printf.sprintf "snapshot: bad line %S" line))

let restore_snapshot ctx (st : state) j covers payload =
  match String.split_on_char '\n' payload with
  | [] -> raise (Recovery_error "snapshot: empty")
  | header :: rest ->
      let fs = fields_of header in
      if field "v" fs <> "1" then raise (Recovery_error "snapshot: unknown version");
      if int_field "covers" fs <> covers then raise (Recovery_error "snapshot: covers mismatch");
      st.Sched.next <- int_field "next" fs;
      st.Sched.accounted <- int_field "accounted" fs;
      st.Sched.rr <- int_field "rr" fs;
      st.Sched.half_opens <- int_field "half_opens" fs;
      st.Sched.closes <- int_field "closes" fs;
      j.j_outcomes <- int_field "outcomes" fs;
      ctx.cache_base <- (int_field "hits" fs, int_field "misses" fs, int_field "evictions" fs);
      List.iter (restore_line ctx st) rest;
      j.j_idx <- covers

(* --- the loop ------------------------------------------------------- *)

(* One dispatch: journal it, execute it, settle it, journal its outcome
   (and a snapshot when one is due), and charge the journal's appends,
   bytes and fsyncs to the query's metrics. *)
let run_one ctx (st : state) ~exec (r : Sched.run) =
  let ws0 = Option.map (fun j -> Wal.stats j.j_wal) ctx.journal in
  Option.iter
    (fun j -> jwrite j (encode_dispatch r.Sched.sub ~start:r.Sched.start ~level:r.Sched.level))
    ctx.journal;
  let outcome, service, cache, evictions = exec ctx r in
  let ev = ctx.evs.(r.Sched.sub) in
  let qr =
    {
      qr_sub = r.Sched.sub;
      qr_tenant = ev.Arrival.tenant;
      qr_query = ev.Arrival.query;
      qr_arrival_s = ev.Arrival.at_s;
      qr_start_s = r.Sched.start;
      qr_finish_s = r.Sched.start +. service;
      qr_service_s = service;
      qr_cache = cache;
      qr_outcome = outcome;
      qr_degrade = r.Sched.level;
    }
  in
  let bad = match outcome with Session.Finished _ -> false | _ -> true in
  Sched.settle ctx.pol st r ~service ~bad (qr, evictions);
  match (ctx.journal, ws0) with
  | Some j, Some s0 ->
      jwrite j (encode_outcome ~evictions qr);
      j.j_outcomes <- j.j_outcomes + 1;
      (match j.j_snap_every with
      | Some k when j.j_outcomes mod k = 0 && j_live j ->
          Wal.write_snapshot j.j_wal ~covers:j.j_idx (snapshot_payload ctx st j)
      | _ -> ());
      let m = Session.metrics_of_outcome outcome in
      let s1 = Wal.stats j.j_wal in
      m.Metrics.wal_appends <- m.Metrics.wal_appends + s1.Wal.wa_appends - s0.Wal.wa_appends;
      m.Metrics.wal_bytes <-
        m.Metrics.wal_bytes +. float_of_int (s1.Wal.wa_bytes - s0.Wal.wa_bytes);
      m.Metrics.wal_fsyncs <- m.Metrics.wal_fsyncs + s1.Wal.wa_fsyncs - s0.Wal.wa_fsyncs
  | _ -> ()

(* Regenerate (verify, or append) the preamble unless a snapshot moved
   the cursor past it — snapshots follow outcome records, which follow
   the full preamble — then journal and carry out every decision. *)
let drive ctx (st : state) ~exec =
  (match ctx.journal with
  | Some j when j.j_idx = 0 ->
      jwrite j
        (encode_meta ~n:(Array.length ctx.evs) ~lanes:(Array.length st.Sched.lane_free)
           ~seed:ctx.pol.pl_seed ~quantum_s:st.Sched.quantum_s (Array.to_list ctx.tarr)
           ctx.workload);
      Array.iteri (fun sub ev -> jwrite j (encode_arrival sub ev)) ctx.evs
  | _ -> ());
  let would_hit sub =
    let prog, tables = program ctx sub in
    Session.would_hit ctx.session prog ~tables
  in
  while not (Sched.finished st) do
    match Sched.decide ~would_hit ctx.pol st with
    | Sched.Idle -> ()
    | Sched.Shed s -> Option.iter (fun j -> jwrite j (encode_shed s)) ctx.journal
    | Sched.Run r -> run_one ctx st ~exec r
  done;
  Option.iter (fun j -> Wal.sync j.j_wal) ctx.journal

let counters ctx (st : state) ~wall_s =
  let results = List.filter_map (Option.map fst) (Array.to_list st.Sched.results) in
  let sheds =
    List.sort (fun a b -> compare a.Sched.sd_sub b.Sched.sd_sub) st.Sched.sheds
    |> List.map (fun (s : Sched.shed) ->
           let ev = ctx.evs.(s.Sched.sd_sub) in
           {
             sh_sub = s.Sched.sd_sub;
             sh_tenant = ev.Arrival.tenant;
             sh_query = ev.Arrival.query;
             sh_arrival_s = ev.Arrival.at_s;
             sh_at_s = s.Sched.sd_at_s;
             sh_reason = s.Sched.sd_reason;
           })
  in
  let count p = List.length (List.filter p results) in
  let sv_tenants =
    Array.to_list
      (Array.mapi
         (fun ti tn ->
           let rs = List.filter (fun r -> r.qr_tenant = tn.tn_name) results in
           {
             tc_name = tn.tn_name;
             tc_weight = tn.tn_weight;
             tc_admissions = List.length rs;
             tc_max_queue = st.Sched.max_queue.(ti);
             tc_shed = List.length (List.filter (fun s -> s.sh_tenant = tn.tn_name) sheds);
             tc_breaker_opens = st.Sched.breaker_opens.(ti);
             tc_queue_wait_s =
               List.fold_left (fun a r -> a +. (r.qr_start_s -. r.qr_arrival_s)) 0.0 rs;
             tc_service_s = List.fold_left (fun a r -> a +. r.qr_service_s) 0.0 rs;
           })
         ctx.tarr)
  in
  let bh, bm, be = ctx.cache_base in
  {
    sv_results = results;
    sv_shed = sheds;
    sv_tenants;
    sv_cache =
      Option.map
        (fun s ->
          {
            s with
            Plan_cache.hits = s.Plan_cache.hits + bh;
            misses = s.Plan_cache.misses + bm;
            evictions = s.Plan_cache.evictions + be;
          })
        (Session.plan_cache_stats ctx.session);
    sv_failed = count (fun r -> match r.qr_outcome with Session.Failed _ -> true | _ -> false);
    sv_timed_out =
      count (fun r -> match r.qr_outcome with Session.Timed_out _ -> true | _ -> false);
    sv_cancelled =
      count (fun r -> match r.qr_outcome with Session.Cancelled _ -> true | _ -> false);
    sv_degraded = count (fun r -> r.qr_degrade > 0);
    sv_breaker_opens = Array.fold_left ( + ) 0 st.Sched.breaker_opens;
    sv_breaker_half_opens = st.Sched.half_opens;
    sv_breaker_closes = st.Sched.closes;
    sv_lanes = Array.length st.Sched.lane_free;
    sv_makespan_s = List.fold_left (fun a r -> max a r.qr_finish_s) 0.0 results;
    sv_wall_s = wall_s;
  }

let run_sim ?quantum_s ?policy ?durability session tenants workload events =
  let wall0 = Unix.gettimeofday () in
  let ctx, st = setup ?quantum_s ?policy ?durability session tenants workload events in
  drive ctx st ~exec:submit;
  counters ctx st ~wall_s:(Unix.gettimeofday () -. wall0)

(* Crash recovery is the same driver over a restored state: the latest
   usable snapshot (else t = 0), with every journaled outcome record, by
   sub id, as a memo that [replay] decodes and answers from. *)
let recover_sim ?quantum_s ?policy ~durability session tenants workload events =
  let wall0 = Unix.gettimeofday () in
  let ctx, st = setup ?quantum_s ?policy ~durability session tenants workload events in
  let j = Option.get ctx.journal in
  let memo = Hashtbl.create 64 in
  Array.iter
    (fun payload ->
      if String.starts_with ~prefix:"outcome " payload then
        Hashtbl.replace memo (int_field "sub" (fields_of payload)) payload)
    j.j_existing;
  let snapshot = Wal.load_snapshot j.j_wal in
  Option.iter (fun (covers, payload) -> restore_snapshot ctx st j covers payload) snapshot;
  let tracer =
    match (Session.config session).Config.trace with Some tr -> tr | None -> Trace.global ()
  in
  let instant name args =
    if Trace.enabled tracer then Trace.instant tracer ~cat:"recovery" ~args name
  in
  instant "recovery_start"
    [
      ("journal_records", Trace.A_int (Array.length j.j_existing));
      ("first_seq", Trace.A_int j.j_first);
      ("snapshot", match snapshot with Some (c, _) -> Trace.A_int c | None -> Trace.A_str "none");
    ];
  drive ctx st ~exec:(replay memo);
  instant "recovery_done"
    [
      ("replayed", Trace.A_int ctx.replayed);
      ("resubmitted", Trace.A_int ctx.resubmitted);
      ("journal_next", Trace.A_int j.j_idx);
    ];
  counters ctx st ~wall_s:(Unix.gettimeofday () -. wall0)

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

(* The replay identity of a sim run: every scheduling, queueing and cache
   quantity, rendered with the repo's pinned float format. Host wall time
   is deliberately absent, so the fingerprint is bit-identical across 20
   replays and across 1/2/4/8 domains. *)
let fingerprint c =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "lanes=%d failed=%d timed_out=%d cancelled=%d shed=%d degraded=%d \
        breaker=%d/%d/%d makespan=%.6f\n"
       c.sv_lanes c.sv_failed c.sv_timed_out c.sv_cancelled
       (List.length c.sv_shed) c.sv_degraded c.sv_breaker_opens
       c.sv_breaker_half_opens c.sv_breaker_closes c.sv_makespan_s);
  (match c.sv_cache with
  | None -> Buffer.add_string b "cache=off\n"
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf "cache hits=%d misses=%d evictions=%d entries=%d\n"
           s.Plan_cache.hits s.Plan_cache.misses s.Plan_cache.evictions
           s.Plan_cache.entries));
  List.iter
    (fun tc ->
      Buffer.add_string b
        (Printf.sprintf
           "tenant=%s weight=%d admissions=%d max_queue=%d shed=%d \
            breaker_opens=%d wait=%.6f service=%.6f\n"
           tc.tc_name tc.tc_weight tc.tc_admissions tc.tc_max_queue tc.tc_shed
           tc.tc_breaker_opens tc.tc_queue_wait_s tc.tc_service_s))
    c.sv_tenants;
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "sub=%d tenant=%s query=%s arr=%.6f start=%.6f finish=%.6f \
            cache=%s status=%s degrade=%d\n"
           r.qr_sub r.qr_tenant r.qr_query r.qr_arrival_s r.qr_start_s
           r.qr_finish_s (cache_to_string r.qr_cache)
           (status_to_string r.qr_outcome) r.qr_degrade))
    c.sv_results;
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "shed sub=%d tenant=%s query=%s arr=%.6f at=%.6f \
                         reason=%s\n"
           s.sh_sub s.sh_tenant s.sh_query s.sh_arrival_s s.sh_at_s
           (shed_reason_to_string s.sh_reason)))
    c.sv_shed;
  Buffer.contents b

let latencies c =
  let a =
    Array.of_list
      (List.map (fun r -> r.qr_finish_s -. r.qr_arrival_s) c.sv_results)
  in
  Array.sort compare a;
  a

(* Nearest-rank percentile on a sorted array; deterministic. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let counters_to_json c =
  let lat = latencies c in
  Json.Obj
    [
      ("queries", Json.Int (List.length c.sv_results));
      ("lanes", Json.Int c.sv_lanes);
      ("failed", Json.Int c.sv_failed);
      ("timed_out", Json.Int c.sv_timed_out);
      ("cancelled", Json.Int c.sv_cancelled);
      ("shed", Json.Int (List.length c.sv_shed));
      ( "shed_by_reason",
        Json.Obj
          (List.map
             (fun reason ->
               ( shed_reason_to_string reason,
                 Json.Int
                   (List.length
                      (List.filter (fun s -> s.sh_reason = reason) c.sv_shed))
               ))
             [
               Shed_deadline;
               Shed_queue_full;
               Shed_breaker;
               Shed_drain;
               Shed_degraded;
             ]) );
      ("degraded", Json.Int c.sv_degraded);
      ( "breaker",
        Json.Obj
          [
            ("opens", Json.Int c.sv_breaker_opens);
            ("half_opens", Json.Int c.sv_breaker_half_opens);
            ("closes", Json.Int c.sv_breaker_closes);
          ] );
      ("makespan_s", Json.Float c.sv_makespan_s);
      ("wall_s", Json.Float c.sv_wall_s);
      ("latency_p50_s", Json.Float (percentile lat 0.50));
      ("latency_p99_s", Json.Float (percentile lat 0.99));
      ( "cache",
        match c.sv_cache with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("hits", Json.Int s.Plan_cache.hits);
                ("misses", Json.Int s.Plan_cache.misses);
                ("evictions", Json.Int s.Plan_cache.evictions);
                ("entries", Json.Int s.Plan_cache.entries);
              ] );
      ( "tenants",
        Json.List
          (List.map
             (fun tc ->
               Json.Obj
                 [
                   ("name", Json.Str tc.tc_name);
                   ("weight", Json.Int tc.tc_weight);
                   ("admissions", Json.Int tc.tc_admissions);
                   ("max_queue", Json.Int tc.tc_max_queue);
                   ("shed", Json.Int tc.tc_shed);
                   ("breaker_opens", Json.Int tc.tc_breaker_opens);
                   ("queue_wait_s", Json.Float tc.tc_queue_wait_s);
                   ("service_s", Json.Float tc.tc_service_s);
                 ])
             c.sv_tenants) );
    ]
