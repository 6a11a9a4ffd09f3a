(* CLI argument hygiene: invalid flag values die with a one-line
   actionable error and exit code 2 — before any work is scheduled —
   and the chaos-rates parser rejects rather than clamps.

   The spawn tests run the real binary (../bin/emma_cli.exe, a declared
   test dependency) so they cover the actual wiring, not a re-creation
   of it. *)

module Faults = Emma_engine.Faults

(* ---------------------------------------------------------------- *)
(* Faults.rates_of_string                                             *)
(* ---------------------------------------------------------------- *)

let test_rates_parse_ok () =
  match Faults.rates_of_string "task=0.1,oom=0.5,slow=4" with
  | Error e -> Alcotest.failf "expected a parse, got: %s" e
  | Ok r ->
      Alcotest.(check (float 0.0)) "task" 0.1 r.Faults.task_fail;
      Alcotest.(check (float 0.0)) "oom" 0.5 r.Faults.oom_kill;
      Alcotest.(check (float 0.0)) "slow" 4.0 r.Faults.straggler_slowdown;
      Alcotest.(check (float 0.0)) "unlisted keys stay 0" 0.0 r.Faults.loop_loss

let expect_error name input =
  match Faults.rates_of_string input with
  | Ok _ -> Alcotest.failf "%s: %S should have been rejected" name input
  | Error e ->
      Alcotest.(check bool) (name ^ ": error is one line") false
        (String.contains e '\n')

let test_rates_rejected () =
  expect_error "probability above 1" "task=1.5";
  expect_error "negative probability" "exec=-0.1";
  expect_error "oom out of range" "oom=2";
  expect_error "slowdown below 1" "slow=0.5";
  expect_error "unknown key" "bogus=0.1";
  expect_error "not a number" "task=abc";
  expect_error "missing value" "task"

(* ---------------------------------------------------------------- *)
(* The binary: bad flag values exit 2 before doing any work           *)
(* ---------------------------------------------------------------- *)

(* under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_main.exe` it is the project root *)
let cli =
  let candidates =
    [ "../bin/emma_cli.exe"; "_build/default/bin/emma_cli.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let run_cli args =
  Sys.command (Filename.quote_command cli args ^ " >/dev/null 2>&1")

(* exit code and stdout lines of one invocation *)
let run_cli_lines args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, lines)
  | _ -> Alcotest.fail "emma_cli was killed"

let test_bad_flags_exit_2 () =
  List.iter
    (fun (name, args) ->
      Alcotest.(check int) name 2 (run_cli ("run" :: "q1" :: args)))
    [ ("zero memory budget", [ "--mem-per-slot"; "0" ]);
      ("negative memory budget", [ "--mem-per-slot=-5" ]);
      ("negative checkpoint interval", [ "--checkpoint-every=-1" ]);
      ("zero checkpoint interval", [ "--checkpoint-every"; "0" ]);
      ("zero max-inflight", [ "--max-inflight"; "0" ]);
      ("chaos probability out of range", [ "--chaos-seed"; "1"; "--chaos-rates"; "task=1.5" ]);
      ("unknown chaos key", [ "--chaos-seed"; "1"; "--chaos-rates"; "bogus=0.1" ]);
      ("chaos rates without a seed", [ "--chaos-rates"; "task=0.1" ]) ]

let test_valid_flags_accepted () =
  (* the validations must not reject a legitimate governed run *)
  Alcotest.(check int) "governed run exits 0" 0
    (run_cli [ "run"; "q1"; "--mem-per-slot"; "1e6"; "--spill"; "--max-inflight"; "4" ])

(* run/bench/serve share Config.of_cli, so the new flags get the same
   exit-2 hygiene on every subcommand *)
let test_bad_udf_mode_exits_2 () =
  Alcotest.(check int) "--udf-mode bogus exits 2" 2
    (run_cli [ "run"; "q1"; "--udf-mode"; "bogus" ]);
  Alcotest.(check int) "--udf-mode interp exits 0" 0
    (run_cli [ "run"; "q1"; "--udf-mode"; "interp" ])

let test_bad_plan_cache_exits_2 () =
  List.iter
    (fun (name, args) -> Alcotest.(check int) name 2 (run_cli args))
    [ ("negative plan cache", [ "serve"; "--events"; "2"; "--plan-cache=-3" ]);
      ("garbage plan cache", [ "serve"; "--events"; "2"; "--plan-cache"; "0x" ]) ]

let test_bad_serve_flags_exit_2 () =
  List.iter
    (fun (name, args) -> Alcotest.(check int) name 2 (run_cli ("serve" :: args)))
    [ ("zero events", [ "--events"; "0" ]);
      ("non-positive rate", [ "--events"; "2"; "--rate"; "0" ]);
      ("non-positive zipf", [ "--events"; "2"; "--zipf=-1" ]);
      ("zero tenant weight", [ "--events"; "2"; "--tenants"; "a:0" ]);
      ("unknown serve query", [ "--events"; "2"; "--queries"; "nope" ]);
      ("bad udf mode through serve", [ "--events"; "2"; "--udf-mode"; "bogus" ]) ]

let test_serve_accepted () =
  Alcotest.(check int) "tiny sim serve exits 0" 0
    (run_cli
       [ "serve"; "--events"; "4"; "--queries"; "group-min"; "--tenants";
         "acme:2,beta"; "--seed"; "3" ])

(* robustness flags (--deadline / --max-queue / --breaker / --drain-after)
   validate through the same Config.of_cli path: one-line exit-2 errors *)
let test_bad_robustness_flags_exit_2 () =
  List.iter
    (fun (name, args) -> Alcotest.(check int) name 2 (run_cli args))
    [ ("zero deadline (run)", [ "run"; "q1"; "--deadline"; "0" ]);
      ("zero timeout (run)", [ "run"; "q1"; "--timeout"; "0" ]);
      ("negative deadline (serve)", [ "serve"; "--events"; "2"; "--deadline=-1" ]);
      ("zero max-queue", [ "serve"; "--events"; "2"; "--max-queue"; "0" ]);
      ("negative max-queue", [ "serve"; "--events"; "2"; "--max-queue=-4" ]);
      ("zero breaker threshold", [ "serve"; "--events"; "2"; "--breaker"; "0" ]);
      ("garbage breaker", [ "serve"; "--events"; "2"; "--breaker"; "lots" ]);
      ("zero breaker cool-down", [ "serve"; "--events"; "2"; "--breaker"; "3:0" ]);
      ("negative drain-after", [ "serve"; "--events"; "2"; "--drain-after=-1" ]) ]

let test_robustness_flags_accepted () =
  Alcotest.(check int) "generous deadline run exits 0" 0
    (run_cli [ "run"; "group-min"; "--deadline"; "1e9" ]);
  Alcotest.(check int) "serve with the full robustness set exits 0" 0
    (run_cli
       [ "serve"; "--events"; "4"; "--queries"; "group-min"; "--deadline"; "1e9";
         "--max-queue"; "8"; "--breaker"; "3:20"; "--drain-after"; "1e9" ])

let test_tight_deadline_exits_3 () =
  (* a vanishing per-query budget cancels at the first safepoint; the CLI
     maps Cancelled to the same exit code as a timeout *)
  Alcotest.(check int) "--deadline 1e-9 exits 3" 3
    (run_cli [ "run"; "group-min"; "--deadline"; "1e-9" ])

let test_conflicting_timeouts_exit_2 () =
  (* a repeated --timeout must agree with itself, on run and serve alike *)
  Alcotest.(check int) "run: conflicting --timeout exits 2" 2
    (run_cli [ "run"; "q1"; "--timeout"; "5"; "--timeout"; "7" ]);
  Alcotest.(check int) "serve: conflicting --timeout exits 2" 2
    (run_cli [ "serve"; "--events"; "2"; "--timeout"; "5"; "--timeout"; "7" ]);
  Alcotest.(check int) "agreeing --timeout exits 0" 0
    (run_cli
       [ "serve"; "--events"; "2"; "--queries"; "group-min"; "--timeout"; "3600";
         "--timeout"; "3600" ])

let test_serve_timeout_accepted () =
  (* serve's 3600 s default lives in Config, so --timeout replaces it;
     group-min needs about 8.6 simulated seconds *)
  let code, lines =
    run_cli_lines
      [ "serve"; "--events"; "2"; "--queries"; "group-min"; "--timeout"; "7" ]
  in
  Alcotest.(check int) "--timeout 7 exits 0" 0 code;
  Alcotest.(check bool) "both queries time out at 7 s" true
    (List.mem "0 failed, 2 timed out, 0 cancelled" lines)

let test_ops_trace_lines () =
  let code, lines = run_cli_lines [ "run"; "q4"; "--ops-trace" ] in
  Alcotest.(check int) "run q4 --ops-trace exits 0" 0 code;
  let rec after_header = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:"trace (" l then rest else after_header rest
  in
  let ops =
    List.filter_map
      (fun l -> try Some (Scanf.sscanf l " %fs %s" (fun c k -> (c, k))) with _ -> None)
      (after_header lines)
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " has a line") true
        (List.exists (fun (_, k) -> k = kind) ops))
    [ "filter"; "semijoin"; "map"; "aggBy" ];
  let clocks = List.map fst ops in
  Alcotest.(check bool) "lines in start order" true
    (clocks = List.sort Float.compare clocks)

let test_run_matches_run_on () =
  let code, lines = run_cli_lines [ "run"; "group-min" ] in
  Alcotest.(check int) "run group-min exits 0" 0 code;
  let e = Option.get (Registry.find "group-min") in
  let rt =
    Emma.spark
      ~cluster:
        (Emma.Cluster.paper_cluster ~dop:320 ~data_scale:1.0
           ~table_scales:e.Registry.table_scales ())
      ()
  in
  let r =
    Emma.run_on_exn
      ~config:(Emma.Config.with_timeout_s (Some 3600.0) Emma.Config.default)
      rt (Emma.parallelize e.Registry.program) ~tables:(e.Registry.tables ())
  in
  let in_process =
    Format.asprintf "result: %a@.@.%a@." Emma.Value.pp r.Emma.value
      Emma.Metrics.pp r.Emma.metrics
  in
  (* wall time and par_* measure the host *)
  let cost_lines =
    List.filter (fun l ->
        not (String.starts_with ~prefix:"wall time" l || String.starts_with ~prefix:"par " l))
  in
  Alcotest.(check (list string)) "result and cost-model lines"
    (cost_lines (String.split_on_char '\n' in_process)) (cost_lines lines)

(* durability flags (--wal / --recover / --wal-sync / --snapshot-every /
   --wal-crash) validate through Config.of_cli and the serve wiring *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "emma-test-cli-%d" (Unix.getpid ()))
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let with_temp_file contents f =
  let path = Filename.temp_file "emma-test-arrivals" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_bad_wal_flags_exit_2 () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, args) ->
      Alcotest.(check int) name 2
        (run_cli ("serve" :: "--events" :: "2" :: args)))
    [ ("--wal-sync without --wal", [ "--wal-sync"; "always" ]);
      ("bad --wal-sync value", [ "--wal"; dir; "--wal-sync"; "sometimes" ]);
      ("zero batch", [ "--wal"; dir; "--wal-sync"; "batch:0" ]);
      ("--snapshot-every without --wal", [ "--snapshot-every"; "4" ]);
      ("zero --snapshot-every", [ "--wal"; dir; "--snapshot-every"; "0" ]);
      ("--wal-crash without --wal", [ "--wal-crash"; "3" ]);
      ("garbage --wal-crash", [ "--wal"; dir; "--wal-crash"; "x" ]);
      ("--wal plus --recover", [ "--wal"; dir; "--recover"; dir ]);
      ("empty --wal path", [ "--wal"; "" ]) ]

let test_wal_roundtrip_exits_0 () =
  with_temp_dir @@ fun dir ->
  let base = [ "serve"; "--events"; "4"; "--queries"; "group-min" ] in
  Alcotest.(check int) "journaled serve exits 0" 0
    (run_cli (base @ [ "--wal"; dir; "--wal-sync"; "batch:8";
                       "--snapshot-every"; "2" ]));
  Alcotest.(check bool) "journal segment written" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".seg")
       (Sys.readdir dir));
  Alcotest.(check int) "recovery of a complete journal exits 0" 0
    (run_cli (base @ [ "--recover"; dir ]))

(* --arrivals: malformed or truncated trace files die with exit 2 before
   any query is scheduled, as does a trace naming an unknown tenant *)
let test_bad_arrivals_exit_2 () =
  let serve file = run_cli [ "serve"; "--arrivals"; file ] in
  Alcotest.(check int) "nonexistent arrivals file" 2
    (serve "/nonexistent/arrivals.txt");
  List.iter
    (fun (name, contents) ->
      with_temp_file contents (fun file ->
          Alcotest.(check int) name 2 (serve file)))
    [ ("truncated line (missing query field)", "0.5 acme q1\n1.0 acme\n");
      ("too many fields", "0.5 acme q1 extra\n");
      ("non-numeric arrival time", "abc acme q1\n");
      ("negative arrival time", "-1.0 acme q1\n");
      ("unknown tenant in the trace", "0.5 nobody q1\n");
      ("unknown query in the trace", "0.5 acme nope\n") ]

let test_arrivals_accepted () =
  with_temp_file "# comment\n0.500000 acme q1\n\n1.000000 beta group-min\n"
    (fun file ->
      Alcotest.(check int) "well-formed arrivals file exits 0" 0
        (run_cli
           [ "serve"; "--arrivals"; file; "--tenants"; "acme:2,beta";
             "--queries"; "q1,group-min" ]))

let suite =
  [ ( "cli_args",
      [ Alcotest.test_case "chaos rates parse" `Quick test_rates_parse_ok;
        Alcotest.test_case "chaos rates rejected, not clamped" `Quick
          test_rates_rejected;
        Alcotest.test_case "bad flag values exit 2" `Quick test_bad_flags_exit_2;
        Alcotest.test_case "valid flags accepted" `Quick test_valid_flags_accepted;
        Alcotest.test_case "bad --udf-mode exits 2" `Quick test_bad_udf_mode_exits_2;
        Alcotest.test_case "bad --plan-cache exits 2" `Quick
          test_bad_plan_cache_exits_2;
        Alcotest.test_case "bad serve flags exit 2" `Quick
          test_bad_serve_flags_exit_2;
        Alcotest.test_case "tiny serve run accepted" `Quick test_serve_accepted;
        Alcotest.test_case "bad robustness flags exit 2" `Quick
          test_bad_robustness_flags_exit_2;
        Alcotest.test_case "robustness flags accepted" `Quick
          test_robustness_flags_accepted;
        Alcotest.test_case "tight --deadline exits 3" `Quick
          test_tight_deadline_exits_3;
        Alcotest.test_case "conflicting timeouts exit 2" `Quick
          test_conflicting_timeouts_exit_2;
        Alcotest.test_case "run --ops-trace lines" `Quick test_ops_trace_lines;
        Alcotest.test_case "run == in-process run_on" `Quick
          test_run_matches_run_on;
        Alcotest.test_case "serve --timeout 7 runs" `Quick
          test_serve_timeout_accepted;
        Alcotest.test_case "bad wal flags exit 2" `Quick
          test_bad_wal_flags_exit_2;
        Alcotest.test_case "wal then recover exits 0" `Quick
          test_wal_roundtrip_exits_0;
        Alcotest.test_case "bad arrivals files exit 2" `Quick
          test_bad_arrivals_exit_2;
        Alcotest.test_case "arrivals file accepted" `Quick
          test_arrivals_accepted ] )
  ]
