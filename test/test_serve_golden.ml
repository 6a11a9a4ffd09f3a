(* Serve goldens: the replay fingerprint, every journal record and every
   retained snapshot payload of six fixed serve runs, pinned byte for
   byte in test/golden/serve_<case>.txt.

   Each case runs journaled (journaling never moves the fingerprint), so
   the golden holds the scheduler's full decision stream: arrivals,
   sheds with their reasons and clocks, dispatches with their ladder
   level, and outcomes with their service times as hex floats. The
   cases cover policy off, deadline with the degradation ladder, the
   queue bound, a breaker open/half-open/close cycle, the drain cutoff,
   and a snapshotting run recovered from a mid-run crash. A refactor of
   the scheduler must leave every file untouched; `make serve-golden`
   runs just this suite. *)

module S = Emma_lang.Surface
module Value = Emma.Value
module Config = Emma.Config
module Session = Emma.Session
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival
module Wal = Emma_util.Wal

let rows n =
  List.init n (fun i -> Value.record [ ("a", Value.Int i); ("b", Value.Int (i mod 5)) ])

let sum_prog = S.program ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (read "rows"))) []
let count_prog = S.program ~ret:S.(count (read "rows")) []

(* grouped count that OOM-fails under a tenant budget well below its peak *)
let group_prog =
  S.program
    ~ret:S.(count (var "d"))
    [ S.s_let "d"
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
            ~yield:
              (record
                 [ ("a", sum (map (lam "x" (fun x -> field x "a")) (field (var "g") "values")));
                   ("b", field (var "g") "key") ])) ]

let workload =
  [ ("sum", (sum_prog, [ ("rows", rows 30) ])); ("count", (count_prog, [ ("rows", rows 30) ])) ]

let tenants = [ Serve.tenant ~weight:2 "acme"; Serve.tenant "beta" ]
let rt = Emma.spark ~timeout_s:3600.0 ()

let trace ~seed ~rate n =
  Arrival.generate ~seed ~rate ~alpha:1.1 ~tenants:[ "acme"; "beta" ]
    ~queries:[ "sum"; "count" ] ~n

let at t tenant query = { Arrival.at_s = t; tenant; query }

let one_lane =
  Config.default |> Config.with_max_inflight (Some 1) |> Config.with_plan_cache (Some 8)

(* Snapshot files in covers order, framed payloads decoded (the 8-byte
   length+CRC header stripped). *)
let snapshots dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".snap")
  |> List.sort compare
  |> List.map (fun f ->
         let framed = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
         (f, String.sub framed 8 (String.length framed - 8)))

let render ~fingerprint ~records ~snaps =
  let b = Buffer.create 4096 in
  Buffer.add_string b "== fingerprint\n";
  Buffer.add_string b fingerprint;
  Buffer.add_string b "== journal\n";
  Array.iter (fun r -> Buffer.add_string b (r ^ "\n")) records;
  List.iter
    (fun (f, payload) -> Buffer.add_string b (Printf.sprintf "== %s\n%s" f payload))
    snaps;
  Buffer.contents b

let run ?policy ?snapshot_every ~recover ~config ~tenants ~workload dir events =
  let s = Session.create ~config rt in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  let w = Wal.create ~dir () in
  let durability = { Serve.du_wal = w; du_snapshot_every = snapshot_every } in
  Fun.protect ~finally:(fun () -> Wal.close w) @@ fun () ->
  if recover then Serve.recover_sim ?policy ~durability s tenants workload events
  else Serve.run_sim ?policy ~durability s tenants workload events

let journaled ?policy ?(config = one_lane) ?(tenants = tenants) ?(workload = workload) events =
  Test_wal.with_dir @@ fun dir ->
  let c = run ?policy ~recover:false ~config ~tenants ~workload dir events in
  render ~fingerprint:(Serve.fingerprint c) ~records:(Test_wal.read_records dir) ~snaps:[]

let case_off () =
  journaled ~policy:Serve.no_policy ~config:(Config.with_plan_cache (Some 4) Config.default)
    (trace ~seed:5 ~rate:3.0 12)

let case_deadline_ladder () =
  let policy =
    { Serve.no_policy with Serve.pl_deadline_s = Some 1.5; pl_degrade_depth = Some 2 }
  in
  journaled ~policy (trace ~seed:9 ~rate:6.0 20)

let case_queue_bound () =
  let policy = { Serve.no_policy with Serve.pl_seed = 3; pl_max_queue = Some 2 } in
  journaled ~policy
    (List.init 8 (fun _ -> at 0.0 "acme" "count") @ [ at 0.0 "beta" "sum"; at 0.5 "beta" "sum" ])

let case_breaker () =
  let tables = [ ("rows", rows 200) ] in
  let peak =
    (Emma.run_on_exn rt (Emma.parallelize group_prog) ~tables).Emma.metrics
      .Emma.Metrics.mem_peak_bytes
  in
  let policy =
    { Serve.no_policy with
      Serve.pl_breaker = Some { Config.br_threshold = 2; br_cooldown_s = 1.0 } }
  in
  journaled ~policy
    ~tenants:[ Serve.tenant ~mem_budget:(0.4 *. peak) "bad"; Serve.tenant "good" ]
    ~workload:(("group", (group_prog, tables)) :: workload)
    [ at 0.0 "bad" "group"; at 0.0 "bad" "group"; at 0.0 "bad" "group";
      at 0.0 "good" "sum"; at 1e6 "bad" "count" ]

let case_drain () =
  let policy = { Serve.no_policy with Serve.pl_drain_after_s = Some 1.0 } in
  journaled ~policy
    [ at 0.0 "acme" "count"; at 0.5 "beta" "sum"; at 0.9 "acme" "sum"; at 2.0 "acme" "count";
      at 3.0 "beta" "count" ]

(* A snapshotting run (deadline + queue bound, as the crash sweep uses),
   crashed late in its journal with its retained snapshots, then
   recovered: the recovered run must reach the reference's
   fingerprint and journal, and its own snapshots are pinned too. *)
let case_snapshot_recover () =
  let config =
    Config.default |> Config.with_plan_cache (Some 4) |> Config.with_deadline_s (Some 20.0)
    |> Config.with_max_queue (Some 3)
  in
  let events = trace ~seed:5 ~rate:3.0 12 in
  let go ~recover dir =
    run ~snapshot_every:2 ~recover ~config ~tenants ~workload dir events
  in
  Test_wal.with_dir @@ fun ref_dir ->
  let reference = go ~recover:false ref_dir in
  let records = Test_wal.read_records ref_dir in
  let ref_snaps = snapshots ref_dir in
  (* crash two records past the older retained snapshot, so recovery
     restores it (the newer one covers more than the crashed journal
     holds and is skipped) and replays the rest *)
  let k = 2 + Scanf.sscanf (fst (List.hd ref_snaps)) "snap-%d.snap" Fun.id in
  Test_wal.with_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  (let w = Wal.create ~dir () in
   Array.iteri (fun i r -> if i < k then ignore (Wal.append w r)) records;
   Wal.close w);
  List.iter
    (fun (f, _) ->
      let src = In_channel.with_open_bin (Filename.concat ref_dir f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc src))
    ref_snaps;
  let recovered = go ~recover:true dir in
  Alcotest.(check string) "recovered fingerprint" (Serve.fingerprint reference)
    (Serve.fingerprint recovered);
  Alcotest.(check bool) "recovered journal converges" true (Test_wal.read_records dir = records);
  render ~fingerprint:(Serve.fingerprint reference) ~records ~snaps:ref_snaps
  ^ Printf.sprintf "== crash at record %d; recovered\n" k
  ^ render ~fingerprint:(Serve.fingerprint recovered) ~records:[||] ~snaps:(snapshots dir)

let cases =
  [ ("off", case_off);
    ("deadline_ladder", case_deadline_ladder);
    ("queue_bound", case_queue_bound);
    ("breaker", case_breaker);
    ("drain", case_drain);
    ("snapshot_recover", case_snapshot_recover) ]

let suite =
  [ ( "serve_golden",
      List.map
        (fun (name, f) ->
          Alcotest.test_case name `Quick (fun () ->
              Helpers.check_golden ~what:("serve " ^ name)
                (Printf.sprintf "serve_%s.txt" name)
                (f ())))
        cases ) ]
