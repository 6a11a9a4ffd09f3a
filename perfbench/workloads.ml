(* The workloads. Each is a closed loop with one client: the next op
   is prepared only after the previous one has been checked. An op is one
   call into a public entry point; everything around it (making a fresh
   session, forging a crashed journal, checking the result) happens outside
   the timed call. *)

module Session = Emma.Session
module Config = Emma.Config
module Metrics = Emma.Metrics
module Pool = Emma.Pool
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival
module Wal = Emma_util.Wal
module Prng = Emma_util.Prng

(* What an op leaves behind for the per-layer report. *)
type summary = {
  metrics : Metrics.t list;  (** per-query metrics of every outcome *)
  submits : int;  (** queries the op executed through [Session.submit] *)
  wal : Wal.stats option;  (** journal traffic of a recovery op *)
  wal_open_s : float;  (** the op's [Wal.create] of the crashed copy *)
  snapshot_load_s : float;  (** [Wal.load_snapshot] of the recovered journal, after the op *)
}

let empty_summary =
  { metrics = []; submits = 0; wal = None; wal_open_s = 0.0; snapshot_load_s = 0.0 }

type op = {
  kind : int;  (** which of the instance's [kinds] this op is *)
  run : unit -> unit;  (** the one timed call *)
  check : unit -> bool;  (** every correctness check of the op's result *)
  summary : unit -> summary;
}

type instance = {
  kinds : string array;  (** the distinct ops the sequence cycles through *)
  notes : string list;  (** what set-up saw, printed with the results *)
  next : int -> op;  (** prepares op [i] of the sequence *)
  programs : Progs.prog list;  (** what the op submits *)
  probe_session : Session.t;  (** a warm session configured as the ops' *)
  close : unit -> unit;
}

type t = {
  name : string;
  domains : int;  (** domains running during an op *)
  prepare : seed:int -> work_dir:string -> tracer:Emma.Trace.t option -> unit -> instance;
      (** [prepare ~seed ...] generates inputs and expected outputs (not
          timed); the returned thunk is the system's set-up (timed). *)
}

let runtime () =
  Emma.spark ~cluster:(Emma.Cluster.paper_cluster ()) ~timeout_s:3600.0 ()

(* The cost-model fields the determinism contract pins: a rerun must
   reproduce them exactly. *)
let cost (m : Metrics.t) =
  (m.Metrics.sim_time_s, m.Metrics.shuffle_bytes, m.Metrics.broadcast_bytes, m.Metrics.stages)

let outcome_value = function Emma.Finished r -> Some r.Emma.value | _ -> None

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* a seeded permutation of 0..n-1: the order a run cycles through its ops *)
let shuffled ~seed n =
  let a = Array.init n Fun.id in
  Prng.shuffle (Prng.create seed) a;
  a

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755;
  path

(* ------------------------------------------------------------------ *)
(* batch: one Session.submit of one paper program per op               *)
(* ------------------------------------------------------------------ *)

let batch =
  let prepare ~seed ~work_dir:_ ~tracer =
    let progs = Array.of_list (Progs.batch ~seed) in
    let expected = Array.map Progs.expected progs in
    let order = shuffled ~seed (Array.length progs) in
    fun () ->
      let config =
        Config.default |> Config.with_domains (Some 1) |> Config.with_plan_cache (Some 64)
        |> Config.with_trace tracer
      in
      let session = Session.create ~config (runtime ()) in
      (* cold compile, then one warm op per program: the plan cache is full
         and the reference cost metrics come from a warm run *)
      let submit (p : Progs.prog) = fst (Session.submit session p.program ~tables:p.tables) in
      Array.iter (fun p -> ignore (submit p)) progs;
      let reference = Array.map (fun p -> cost (Session.metrics_of_outcome (submit p))) progs in
      let next i =
        let k = order.(i mod Array.length order) in
        let p = progs.(k) in
        let result = ref None in
        { kind = k;
          run = (fun () -> result := Some (submit p));
          check =
            (fun () ->
              match !result with
              | Some o -> (
                  cost (Session.metrics_of_outcome o) = reference.(k)
                  &&
                  match outcome_value o with
                  | Some v -> Progs.approx_equal v expected.(k)
                  | None -> false)
              | None -> false);
          summary =
            (fun () ->
              match !result with
              | Some o -> { empty_summary with metrics = [ Session.metrics_of_outcome o ]; submits = 1 }
              | None -> empty_summary) }
      in
      { kinds = Array.map (fun (p : Progs.prog) -> p.Progs.name) progs;
        notes = [];
        next;
        programs = Array.to_list progs;
        probe_session = session;
        close = (fun () -> Session.close session) }
  in
  { name = "batch"; domains = 1; prepare }

(* ------------------------------------------------------------------ *)
(* serve traffic shared by serve and recover                           *)
(* ------------------------------------------------------------------ *)

let tenants = [ Serve.tenant ~weight:2 "acme"; Serve.tenant "beta" ]
let n_traces = 8

(* Short two-tenant Zipf bursts over the small queries: arrivals outpace
   the two lanes, so queues build, deadlines shed and the ladder steps.
   The traces are a fixed set and the run's seed draws the data and the
   order the traces are replayed in: a seed that drew its own traces would
   change the query mix, and with it every metric, by far more than any
   change to the code. *)
let traces ?(count = n_traces) ~n ~rate queries =
  Array.init count (fun j ->
      Arrival.generate ~seed:(1000 + j) ~rate ~alpha:1.1
        ~tenants:(List.map (fun t -> t.Serve.tn_name) tenants)
        ~queries ~n)

(* E14-style overload policy: end-to-end deadline (with the degradation
   ladder it switches on), bounded queues and a circuit breaker. *)
let policy_config config =
  config
  |> Config.with_deadline_s (Some 30.0)
  |> Config.with_max_queue (Some 3)
  |> Config.with_breaker (Some { Config.br_threshold = 2; br_cooldown_s = 20.0 })

let workload (progs : Progs.prog list) : Serve.workload =
  List.map (fun (p : Progs.prog) -> (p.Progs.name, (p.Progs.program, p.Progs.tables))) progs

let expected_by_name progs =
  List.map (fun (p : Progs.prog) -> (p.Progs.name, Progs.expected p)) progs

(* Outcomes rebuilt from a journal during recovery carry no value or
   engine metrics (the query is not re-executed); the fingerprint covers
   them instead. *)
let executed (c : Serve.counters) =
  List.filter
    (fun r -> (Session.metrics_of_outcome r.Serve.qr_outcome).Metrics.recovery_replayed = 0)
    c.Serve.sv_results

(* Every executed query that finished computed its query's expected value;
   every submission is accounted exactly once, as a result or a shed. *)
let results_ok ~n expected (c : Serve.counters) =
  let ids =
    List.map (fun r -> r.Serve.qr_sub) c.Serve.sv_results
    @ List.map (fun s -> s.Serve.sh_sub) c.Serve.sv_shed
  in
  List.sort compare ids = List.init n Fun.id
  && List.for_all
       (fun r ->
         match r.Serve.qr_outcome with
         | Emma.Finished { value; _ } ->
             Progs.approx_equal value (List.assoc r.Serve.qr_query expected)
         | _ -> true)
       (executed c)

let describe (c : Serve.counters) =
  Printf.sprintf "%d finished, %d shed, %d cancelled, %d degraded, %d breaker opens, makespan %.3f"
    (List.length (List.filter (fun r -> match r.Serve.qr_outcome with Emma.Finished _ -> true | _ -> false) c.Serve.sv_results))
    (List.length c.Serve.sv_shed) c.Serve.sv_cancelled c.Serve.sv_degraded c.Serve.sv_breaker_opens c.Serve.sv_makespan_s

(* each executed query's cost-model fields equal the reference run's *)
let costs_match (c : Serve.counters) ~reference =
  let cost_of r = cost (Session.metrics_of_outcome r.Serve.qr_outcome) in
  List.for_all
    (fun r ->
      List.exists
        (fun r' -> r'.Serve.qr_sub = r.Serve.qr_sub && cost_of r' = cost_of r)
        reference.Serve.sv_results)
    (executed c)

let serve_summary (c : Serve.counters) =
  { empty_summary with
    metrics = List.map (fun r -> Session.metrics_of_outcome r.Serve.qr_outcome) c.Serve.sv_results;
    submits = List.length (executed c) }

let sim_events = 12

(* serve: one Serve.run_sim per op on a fresh session, as in one `emma
   serve` invocation, borrowing a 2-domain pool created at set-up, with the
   overload policy on. One warm-up run per trace gives the reference the
   ops are checked against, its replay fingerprint included. *)
let serve =
  let prepare ~seed ~work_dir:_ ~tracer =
    let progs = Progs.serve ~seed in
    let wl = workload progs in
    let expected = expected_by_name progs in
    let traces = traces ~n:sim_events ~rate:40.0 (List.map (fun (p : Progs.prog) -> p.Progs.name) progs) in
    let order = shuffled ~seed n_traces in
    fun () ->
      let pool = Pool.create ~domains:2 () in
      let config =
        Config.default |> Config.with_pool (Some pool) |> Config.with_plan_cache (Some 64)
        |> policy_config |> Config.with_trace tracer
      in
      let run_fresh trace =
        let session = Session.create ~config (runtime ()) in
        Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
        Serve.run_sim session tenants wl trace
      in
      let reference = Array.map run_fresh traces in
      let probe_session = Session.create ~config (runtime ()) in
      let next i =
        let k = order.(i mod n_traces) in
        let session = Session.create ~config (runtime ()) in
        let result = ref None in
        { kind = k;
          run = (fun () -> result := Some (Serve.run_sim session tenants wl traces.(k)));
          check =
            (fun () ->
              Session.close session;
              match !result with
              | Some c ->
                  Serve.fingerprint c = Serve.fingerprint reference.(k)
                  && costs_match c ~reference:reference.(k)
                  && results_ok ~n:sim_events expected c
              | None -> false);
          summary = (fun () -> Option.fold ~none:empty_summary ~some:serve_summary !result) }
      in
      { kinds = Array.init n_traces (Printf.sprintf "trace%d");
        notes = Array.to_list (Array.mapi (fun k c -> Printf.sprintf "trace%d: %s" k (describe c)) reference);
        next;
        programs = progs;
        probe_session;
        close =
          (fun () ->
            Session.close probe_session;
            Pool.shutdown pool) }
  in
  { name = "serve"; domains = 2; prepare }

(* ------------------------------------------------------------------ *)
(* recover: one Serve.recover_sim of a crashed journal per op           *)
(* ------------------------------------------------------------------ *)

let snapshot_every = 4
let recover_events = 16

(* A crashed copy of [records]: the first [k] records as they were
   appended, optionally followed by the first half of record [k]'s frame
   (a write torn by the crash), plus the snapshots that existed by then. *)
let forge ~dir ~records ~snapshots ~k ~torn =
  let dir = fresh_dir dir in
  let wal = Wal.create ~segment_bytes:max_int ~dir () in
  for i = 0 to k - 1 do
    ignore (Wal.append wal records.(i))
  done;
  let segment = Filename.concat dir (Sys.readdir dir).(0) in
  let size () = (Unix.stat segment).Unix.st_size in
  (if torn then
     let before = size () in
     ignore (Wal.append wal records.(k));
     Unix.truncate segment (before + ((size () - before) / 2)));
  Wal.close wal;
  List.iter
    (fun (covers, name, contents) ->
      if covers <= k then
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            Out_channel.output_string oc contents))
    snapshots

(* snapshot files of a journal directory, as (covers, file name, bytes) *)
let read_snapshots dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         Scanf.sscanf_opt f "snap-%d.snap%!" (fun covers ->
             (covers, f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)))
  |> List.sort compare

(* Ops crash at fixed points of the journals: before each journal's
   records 45 and 46 (of 49), cleanly or mid-frame. Recovering from each
   of these points executes exactly two queries, so every op re-runs two
   Q1s and the op times are unimodal; crash points that ran different
   numbers of queries would split the op times into modes, and the
   percentiles would move by whole modes between runs. Two queries rather
   than one make the op long enough (about 45 ms) that a stall of the host
   or of the journal's fsync moves its tail less. The points are constants
   so that the code under test cannot change the op set: if recovery from
   one of them executes another number of queries, that op fails its
   check. *)
let crash_points =
  List.concat_map
    (fun j -> List.concat_map (fun k -> [ (j, k, false); (j, k, true) ]) [ 45; 46 ])
    [ 0; 1; 2; 3 ]
  |> Array.of_list

let queries_per_recovery = 2

type journal = {
  trace : Arrival.event list;
  reference : Serve.counters;  (** the uninterrupted journaled run *)
  records : string array;
  snapshots : (int * string * string) list;
}

let recover =
  let prepare ~seed ~work_dir ~tracer =
    let progs = Progs.serve ~seed in
    let wl = workload progs in
    let expected = expected_by_name progs in
    let traces = traces ~count:4 ~n:recover_events ~rate:0.1 [ "q1" ] in
    let ref_dir = Filename.concat work_dir "journal" in
    let crash_dir = Filename.concat work_dir "crashed" in
    fun () ->
      let config =
        Config.default |> Config.with_domains (Some 1) |> Config.with_plan_cache (Some 64)
        |> policy_config |> Config.with_trace tracer
      in
      let durability wal = { Serve.du_wal = wal; du_snapshot_every = Some snapshot_every } in
      (* the uninterrupted journaled runs the ops crash, one per trace *)
      let journal trace =
        let dir = fresh_dir ref_dir in
        let reference =
          let session = Session.create ~config (runtime ()) in
          (* one segment, so that compaction keeps every record to crash at *)
          let du = durability (Wal.create ~segment_bytes:max_int ~dir ()) in
          Fun.protect
            ~finally:(fun () ->
              Wal.close du.Serve.du_wal;
              Session.close session)
            (fun () -> Serve.run_sim ~durability:du session tenants wl trace)
        in
        let records =
          let w = Wal.create ~segment_bytes:max_int ~dir () in
          Fun.protect ~finally:(fun () -> Wal.close w) (fun () -> Wal.records w)
        in
        { trace; reference; records; snapshots = read_snapshots dir }
      in
      let journals = Array.map journal traces in
      let probe_session = Session.create ~config (runtime ()) in
      (* The op is what `emma serve --recover` does: open the crashed
         journal (reading every segment, checking each frame's CRC and
         truncating a torn tail), then recover from it. The crashed copy
         and the session are prepared outside the timed call. *)
      let op_of kind (j, k, torn) =
        let jn = journals.(j) in
        let forged =
          match forge ~dir:crash_dir ~records:jn.records ~snapshots:jn.snapshots ~k ~torn with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        let session = Session.create ~config (runtime ()) in
        let wal = ref None and open_s = ref 0.0 and snapshot_load_s = ref 0.0 in
        let result = ref None in
        { kind;
          run =
            (fun () ->
              if not forged then invalid_arg "crash point past the end of the journal";
              let t0 = Unix.gettimeofday () in
              let w = Wal.create ~dir:crash_dir () in
              open_s := Unix.gettimeofday () -. t0;
              wal := Some w;
              result := Some (Serve.recover_sim ~durability:(durability w) session tenants wl jn.trace));
          check =
            (fun () ->
              Option.iter
                (fun w ->
                  let t0 = Unix.gettimeofday () in
                  ignore (Wal.load_snapshot w);
                  snapshot_load_s := Unix.gettimeofday () -. t0;
                  Wal.close w)
                !wal;
              Session.close session;
              match !result with
              | Some c ->
                  Serve.fingerprint c = Serve.fingerprint jn.reference
                  && costs_match c ~reference:jn.reference
                  && results_ok ~n:recover_events expected c
                  && List.length (executed c) = queries_per_recovery
              | None -> false);
          summary =
            (fun () ->
              match (!result, !wal) with
              | Some c, Some w ->
                  { (serve_summary c) with
                    wal = Some (Wal.stats w);
                    wal_open_s = !open_s;
                    snapshot_load_s = !snapshot_load_s }
              | _ -> empty_summary) }
      in
      let order = shuffled ~seed (Array.length crash_points) in
      let next i =
        let kind = order.(i mod Array.length crash_points) in
        op_of kind crash_points.(kind)
      in
      { kinds =
          Array.map
            (fun (j, k, torn) -> Printf.sprintf "trace%d@%d%s" j k (if torn then "+torn" else ""))
            crash_points;
        notes =
          Array.to_list
            (Array.mapi
               (fun j jn ->
                 Printf.sprintf "trace%d: %s; journal of %d records, snapshots covering %s" j
                   (describe jn.reference) (Array.length jn.records)
                   (String.concat ", " (List.map (fun (c, _, _) -> string_of_int c) jn.snapshots)))
               journals);
        next;
        programs = progs;
        probe_session;
        close =
          (fun () ->
            Session.close probe_session;
            rm_rf ref_dir;
            rm_rf crash_dir) }
  in
  { name = "recover"; domains = 1; prepare }

let all = [ batch; serve; recover ]
