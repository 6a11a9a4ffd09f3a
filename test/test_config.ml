(* Emma.Config: the consolidated knob record and the one shared CLI
   validation path (Config.of_cli) used by run, bench and serve. *)

module Config = Emma_engine.Config
module Faults = Emma_engine.Faults
module Json = Emma_util.Json

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let err name = function
  | Ok _ -> Alcotest.failf "%s: expected a validation error" name
  | Error e ->
      Alcotest.(check bool) (name ^ ": error message is non-empty") true
        (String.length e > 0);
      Alcotest.(check bool) (name ^ ": error is one line") false
        (String.contains e '\n')

let test_default () =
  let c = Config.default in
  Alcotest.(check bool) "compiled UDFs" true (c.Config.udf_mode = Config.Compiled);
  Alcotest.(check (option int)) "64-entry plan cache" (Some 64) c.Config.plan_cache;
  Alcotest.(check bool) "no chaos" true (c.Config.faults == Faults.none);
  Alcotest.(check (option int)) "unbounded admission" None c.Config.max_inflight;
  Alcotest.(check bool) "no spill" false c.Config.spill

let test_setters_functional () =
  let c = Config.default in
  let c' =
    Config.with_spill true
      (Config.with_mem_budget (Some 1e6)
         (Config.with_plan_cache None (Config.with_udf_mode Config.Interp c)))
  in
  Alcotest.(check bool) "original untouched" true
    (c.Config.spill = false && c.Config.plan_cache = Some 64);
  Alcotest.(check bool) "updated" true
    (c'.Config.spill && c'.Config.plan_cache = None
    && c'.Config.udf_mode = Config.Interp
    && c'.Config.mem_budget = Some 1e6)

let test_parse_udf_mode () =
  Alcotest.(check bool) "interp" true (ok (Config.parse_udf_mode "interp") = Config.Interp);
  Alcotest.(check bool) "compiled" true
    (ok (Config.parse_udf_mode "compiled") = Config.Compiled);
  err "bogus mode" (Config.parse_udf_mode "bogus")

let test_parse_plan_cache () =
  Alcotest.(check (option int)) "off" None (ok (Config.parse_plan_cache "off"));
  Alcotest.(check (option int)) "zero disables" None (ok (Config.parse_plan_cache "0"));
  Alcotest.(check (option int)) "capacity" (Some 16) (ok (Config.parse_plan_cache "16"));
  err "negative capacity" (Config.parse_plan_cache "-3");
  err "garbage" (Config.parse_plan_cache "0x")

let test_of_cli_happy () =
  let c =
    ok
      (Config.of_cli ~udf_mode:"interp" ~chaos_seed:7
         ~chaos_rates:"task=0.1" ~checkpoint_every:2 ~mem_per_slot:4096.0
         ~spill:true ~max_inflight:3 ~domains:4 ~plan_cache:"off" ())
  in
  Alcotest.(check bool) "udf mode" true (c.Config.udf_mode = Config.Interp);
  Alcotest.(check bool) "chaos on" true (c.Config.faults != Faults.none);
  Alcotest.(check (option int)) "checkpoint" (Some 2) c.Config.checkpoint_every;
  Alcotest.(check bool) "mem budget" true (c.Config.mem_budget = Some 4096.0);
  Alcotest.(check bool) "spill" true c.Config.spill;
  Alcotest.(check (option int)) "max inflight" (Some 3) c.Config.max_inflight;
  Alcotest.(check (option int)) "domains" (Some 4) c.Config.domains;
  Alcotest.(check (option int)) "plan cache off" None c.Config.plan_cache

let test_of_cli_defaults () =
  let c = ok (Config.of_cli ()) in
  Alcotest.(check bool) "no flags = default" true (c = Config.default)

let test_of_cli_rejections () =
  err "--udf-mode bogus" (Config.of_cli ~udf_mode:"bogus" ());
  err "--plan-cache -1" (Config.of_cli ~plan_cache:"-1" ());
  err "--checkpoint-every 0" (Config.of_cli ~checkpoint_every:0 ());
  err "--mem-per-slot -5" (Config.of_cli ~mem_per_slot:(-5.0) ());
  err "--mem-per-slot nan" (Config.of_cli ~mem_per_slot:Float.nan ());
  err "--max-inflight 0" (Config.of_cli ~max_inflight:0 ());
  err "--domains 0" (Config.of_cli ~domains:0 ());
  err "--chaos-rates without seed" (Config.of_cli ~chaos_rates:"0.1,0.0,0.0" ());
  err "malformed chaos rates" (Config.of_cli ~chaos_seed:1 ~chaos_rates:"a,b" ())

let test_parse_breaker () =
  Alcotest.(check bool) "off" true (ok (Config.parse_breaker "off") = None);
  (match ok (Config.parse_breaker "3") with
  | Some { Config.br_threshold = 3; br_cooldown_s = cd } ->
      Alcotest.(check bool) "default cool-down is positive" true (cd > 0.0)
  | _ -> Alcotest.fail "K alone should parse with the default cool-down");
  Alcotest.(check bool) "K:COOLDOWN" true
    (ok (Config.parse_breaker "5:12.5")
    = Some { Config.br_threshold = 5; br_cooldown_s = 12.5 });
  err "zero threshold" (Config.parse_breaker "0");
  err "negative threshold" (Config.parse_breaker "-2");
  err "zero cool-down" (Config.parse_breaker "3:0");
  err "negative cool-down" (Config.parse_breaker "3:-1");
  err "garbage" (Config.parse_breaker "many");
  err "garbage cool-down" (Config.parse_breaker "3:soon")

let test_of_cli_robustness_flags () =
  let c =
    ok
      (Config.of_cli ~timeout:30.0 ~deadline:2.5 ~max_queue:8 ~breaker:"3:20"
         ~drain_after:60.0 ())
  in
  Alcotest.(check (option (float 0.0))) "timeout" (Some 30.0) c.Config.timeout_s;
  Alcotest.(check (option (float 0.0))) "deadline" (Some 2.5) c.Config.deadline_s;
  Alcotest.(check (option int)) "max queue" (Some 8) c.Config.max_queue;
  Alcotest.(check bool) "breaker" true
    (c.Config.breaker = Some { Config.br_threshold = 3; br_cooldown_s = 20.0 });
  Alcotest.(check (option (float 0.0))) "drain after" (Some 60.0)
    c.Config.drain_after_s;
  (* defaults: everything off *)
  let d = ok (Config.of_cli ()) in
  Alcotest.(check bool) "robustness knobs default off" true
    (d.Config.timeout_s = None && d.Config.deadline_s = None
    && d.Config.max_queue = None && d.Config.breaker = None
    && d.Config.drain_after_s = None);
  (* rejections, one line each *)
  err "--timeout 0" (Config.of_cli ~timeout:0.0 ());
  err "--deadline 0" (Config.of_cli ~deadline:0.0 ());
  err "--deadline -1" (Config.of_cli ~deadline:(-1.0) ());
  err "--deadline nan" (Config.of_cli ~deadline:Float.nan ());
  err "--max-queue 0" (Config.of_cli ~max_queue:0 ());
  err "--breaker 0" (Config.of_cli ~breaker:"0" ());
  err "--breaker garbage" (Config.of_cli ~breaker:"lots" ());
  err "--drain-after -1" (Config.of_cli ~drain_after:(-1.0) ())

let test_of_cli_base () =
  let base = Config.with_plan_cache (Some 8) Config.default in
  let c = ok (Config.of_cli ~base ~spill:true ~mem_per_slot:64.0 ()) in
  Alcotest.(check (option int)) "base survives absent flags" (Some 8)
    c.Config.plan_cache;
  Alcotest.(check bool) "flag overrides" true c.Config.spill

let test_to_json () =
  match Json.parse (Json.to_string (Config.to_json Config.default)) with
  | Error e -> Alcotest.failf "config JSON does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "udf_mode" true
        (Json.member "udf_mode" j = Some (Json.Str "compiled"));
      Alcotest.(check bool) "plan_cache" true
        (Json.member "plan_cache" j = Some (Json.Int 64))

let suite =
  [ ( "config",
      [ Alcotest.test_case "default knobs" `Quick test_default;
        Alcotest.test_case "setters are functional" `Quick test_setters_functional;
        Alcotest.test_case "parse_udf_mode" `Quick test_parse_udf_mode;
        Alcotest.test_case "parse_plan_cache" `Quick test_parse_plan_cache;
        Alcotest.test_case "of_cli accepts the full flag set" `Quick test_of_cli_happy;
        Alcotest.test_case "of_cli with no flags is default" `Quick
          test_of_cli_defaults;
        Alcotest.test_case "of_cli rejects bad flags with one-line errors" `Quick
          test_of_cli_rejections;
        Alcotest.test_case "of_cli base config survives absent flags" `Quick
          test_of_cli_base;
        Alcotest.test_case "parse_breaker" `Quick test_parse_breaker;
        Alcotest.test_case "of_cli robustness flags" `Quick
          test_of_cli_robustness_flags;
        Alcotest.test_case "to_json is well-formed" `Quick test_to_json ] ) ]
