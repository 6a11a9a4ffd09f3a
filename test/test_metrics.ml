(* Metrics rendering and the machine-readable report path.

   to_rows/pp formatting is pinned (fixed precisions; OCaml's Printf
   always uses the C locale's dot decimal point), so the rendered rows
   are byte-stable across hosts — these tests pin the exact strings.
   to_json round-trips through the strict Json parser, and the Chrome
   escaper is exercised on adversarial strings. *)

module Metrics = Emma_engine.Metrics
module Json = Emma_util.Json

let sample () =
  let m = Metrics.create () in
  m.Metrics.sim_time_s <- 123.456;
  m.Metrics.shuffle_bytes <- 1.5e9;
  m.Metrics.broadcast_bytes <- 2048.0;
  m.Metrics.dfs_read_bytes <- 3.0e6;
  m.Metrics.dfs_write_bytes <- 999.0;
  m.Metrics.collect_bytes <- 1.0e12;
  m.Metrics.parallelize_bytes <- 0.0;
  m.Metrics.spilled_bytes <- 12345.0;
  m.Metrics.jobs <- 3;
  m.Metrics.stages <- 14;
  m.Metrics.recomputes <- 2;
  m.Metrics.cache_hits <- 5;
  m.Metrics.cache_losses <- 1;
  m.Metrics.udf_invocations <- 4242;
  m.Metrics.wall_time_s <- 0.1234567;
  m.Metrics.par_stages <- 9;
  m.Metrics.par_tasks <- 2880;
  m.Metrics.retries <- 7;
  m.Metrics.fetch_failures <- 3;
  m.Metrics.executor_losses <- 1;
  m.Metrics.blacklisted_nodes <- 2;
  m.Metrics.recomputed_partitions <- 320;
  m.Metrics.speculative_launches <- 6;
  m.Metrics.speculative_wins <- 4;
  m.Metrics.checkpoints <- 5;
  m.Metrics.checkpoint_bytes <- 4.5e6;
  m.Metrics.loop_restores <- 2;
  m.Metrics.mem_peak_bytes <- 6.4e7;
  m.Metrics.mem_spills <- 11;
  m.Metrics.mem_spill_bytes <- 2.5e9;
  m.Metrics.oom_kills <- 3;
  m.Metrics.cache_evictions <- 8;
  m.Metrics.evicted_bytes <- 1024.0;
  m.Metrics.jobs_queued <- 4;
  m.Metrics.queue_wait_s <- 4.26;
  m.Metrics.checkpoint_corruptions <- 1;
  m.Metrics.plan_cache_hits <- 9;
  m.Metrics.plan_cache_misses <- 2;
  m.Metrics.plan_cache_evictions <- 1;
  m.Metrics.wal_appends <- 12;
  m.Metrics.wal_bytes <- 2560.0;
  m.Metrics.wal_fsyncs <- 6;
  m.Metrics.recovery_replayed <- 1;
  m

let test_to_rows_pinned () =
  let rows = Metrics.to_rows (sample ()) in
  let check k v = Alcotest.(check (option string)) k (Some v) (List.assoc_opt k rows) in
  check "sim time" "123.5 s";
  check "shuffled" "1.50 GB";
  check "broadcast" "2.05 KB";
  check "dfs read" "3.00 MB";
  check "dfs write" "999 B";
  check "collected" "1.00 TB";
  check "jobs" "3";
  (* wall time is pinned at %.6f — six fractional digits, dot separator *)
  check "wall time" "0.123457 s";
  check "par tasks" "2880";
  check "retries" "7";
  check "fetch failures" "3";
  check "executor losses" "1";
  check "blacklisted" "2";
  check "recomputed parts" "320";
  check "spec launches" "6";
  check "spec wins" "4";
  check "checkpoints" "5";
  check "checkpoint bytes" "4.50 MB";
  check "loop restores" "2";
  check "mem peak" "64.00 MB";
  check "mem spills" "11";
  check "oom kills" "3";
  check "cache evictions" "8";
  check "evicted bytes" "1.02 KB";
  check "jobs queued" "4";
  check "queue wait" "4.3 s";
  check "ckpt corruptions" "1";
  check "plan hits" "9";
  check "plan misses" "2";
  check "plan evictions" "1";
  check "wal appends" "12";
  check "wal bytes" "2.56 KB";
  check "wal fsyncs" "6";
  check "recovery replayed" "1"

let test_pp_renders_rows () =
  let s = Format.asprintf "%a" Metrics.pp (sample ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pp mentions " ^ needle) true
        (Helpers.contains s needle))
    [ "sim time"; "123.5 s"; "wall time"; "0.123457 s" ]

let test_to_json_roundtrip () =
  let m = sample () in
  match Json.parse (Metrics.to_json_string m) with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok j ->
      let num k =
        match Json.member k j with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> Alcotest.failf "field %s missing" k
      in
      Alcotest.(check (float 1e-6)) "sim_time_s" 123.456 (num "sim_time_s");
      Alcotest.(check (float 0.0)) "shuffle_bytes" 1.5e9 (num "shuffle_bytes");
      Alcotest.(check (float 0.0)) "jobs" 3.0 (num "jobs");
      Alcotest.(check (float 0.0)) "udf_invocations" 4242.0 (num "udf_invocations");
      Alcotest.(check (float 1e-6)) "wall_time_s" 0.123457 (num "wall_time_s");
      Alcotest.(check (float 0.0)) "retries" 7.0 (num "retries");
      Alcotest.(check (float 0.0)) "executor_losses" 1.0 (num "executor_losses");
      Alcotest.(check (float 0.0)) "recomputed_partitions" 320.0
        (num "recomputed_partitions");
      Alcotest.(check (float 0.0)) "speculative_wins" 4.0 (num "speculative_wins");
      Alcotest.(check (float 1e-6)) "checkpoint_bytes" 4.5e6 (num "checkpoint_bytes");
      Alcotest.(check (float 0.0)) "loop_restores" 2.0 (num "loop_restores");
      Alcotest.(check (float 0.0)) "mem_peak_bytes" 6.4e7 (num "mem_peak_bytes");
      Alcotest.(check (float 0.0)) "mem_spills" 11.0 (num "mem_spills");
      Alcotest.(check (float 0.0)) "oom_kills" 3.0 (num "oom_kills");
      Alcotest.(check (float 0.0)) "cache_evictions" 8.0 (num "cache_evictions");
      Alcotest.(check (float 1e-6)) "queue_wait_s" 4.26 (num "queue_wait_s");
      Alcotest.(check (float 0.0)) "checkpoint_corruptions" 1.0
        (num "checkpoint_corruptions");
      Alcotest.(check (float 0.0)) "plan_cache_hits" 9.0 (num "plan_cache_hits");
      Alcotest.(check (float 0.0)) "plan_cache_misses" 2.0 (num "plan_cache_misses");
      Alcotest.(check (float 0.0)) "plan_cache_evictions" 1.0
        (num "plan_cache_evictions");
      Alcotest.(check (float 0.0)) "wal_appends" 12.0 (num "wal_appends");
      Alcotest.(check (float 0.0)) "wal_bytes" 2560.0 (num "wal_bytes");
      Alcotest.(check (float 0.0)) "wal_fsyncs" 6.0 (num "wal_fsyncs");
      Alcotest.(check (float 0.0)) "recovery_replayed" 1.0
        (num "recovery_replayed")

let test_json_float_pinned () =
  Alcotest.(check string) "floats render %.6f" "[0.100000,123.456700]"
    (Json.to_string (Json.List [ Json.Float 0.1; Json.Float 123.4567 ]));
  Alcotest.(check string) "non-finite floats render null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]))

(* ---------------------------------------------------------------- *)
(* The escaper under adversarial strings                              *)
(* ---------------------------------------------------------------- *)

let adversarial =
  [ {|plain|};
    {|with "quotes" inside|};
    "back\\slash and \"quote\"";
    "newline\nand\ttab\rand\bback\012feed";
    "control \001\002\031 chars";
    "unicode: héllo wörld — ∑ 日本語";
    "" ]

let test_escape_roundtrip () =
  List.iter
    (fun s ->
      let doc = Json.to_string (Json.Str s) in
      Alcotest.(check bool) ("valid: " ^ String.escaped s) true (Json.is_valid doc);
      match Json.parse doc with
      | Ok (Json.Str s') ->
          Alcotest.(check string) ("round-trip: " ^ String.escaped s) s s'
      | Ok _ -> Alcotest.fail "parsed to non-string"
      | Error e -> Alcotest.failf "parse failed on %s: %s" (String.escaped s) e)
    adversarial

let test_escape_exact () =
  Alcotest.(check string) "quote" {|\"|} (Json.escape {|"|});
  Alcotest.(check string) "backslash" {|\\|} (Json.escape {|\|});
  Alcotest.(check string) "newline" {|\n|} (Json.escape "\n");
  Alcotest.(check string) "tab" {|\t|} (Json.escape "\t");
  Alcotest.(check string) "nul" {|\u0000|} (Json.escape "\000");
  Alcotest.(check string) "utf8 passes through" "é" (Json.escape "é")

let test_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; {|{"a":}|}; "1 2"; {|"unterminated|}; "\"raw\nnewline\"" ]

let suite =
  [ ( "metrics",
      [ Alcotest.test_case "to_rows formatting pinned" `Quick test_to_rows_pinned;
        Alcotest.test_case "pp renders the rows" `Quick test_pp_renders_rows;
        Alcotest.test_case "to_json round-trips" `Quick test_to_json_roundtrip;
        Alcotest.test_case "json floats pinned %.6f" `Quick test_json_float_pinned;
        Alcotest.test_case "escape round-trips adversarial strings" `Quick
          test_escape_roundtrip;
        Alcotest.test_case "escape exact forms" `Quick test_escape_exact;
        Alcotest.test_case "parser rejects malformed input" `Quick
          test_parse_rejects_garbage ] ) ]
