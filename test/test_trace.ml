(* Tests for the span tracer and its engine/compiler instrumentation.

   Unit tests drive Trace directly with a deterministic injected clock;
   the property tests run random compiled pipelines with tracing on vs
   off at 1/2/4 domains and require byte-identical results and
   bit-identical cost metrics (tracing is pure observation — the cost
   model never sees it), plus well-formed span trees and valid Chrome
   JSON. *)

module Value = Emma_value.Value
module S = Emma_lang.Surface
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Trace = Emma_util.Trace
module Json = Emma_util.Json
module Pool = Emma_util.Pool
module Config = Emma_engine.Config
open Helpers

(* ---------------------------------------------------------------- *)
(* Unit: span mechanics under a deterministic clock                    *)
(* ---------------------------------------------------------------- *)

let counter_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let test_span_nesting () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  let r =
    Trace.span tr ~cat:"outer" "a" (fun () ->
        Trace.span tr "b" (fun () -> ());
        Trace.instant tr "tick";
        Trace.counter tr "bytes" 42.0;
        17)
  in
  Alcotest.(check int) "span returns the thunk's value" 17 r;
  let evs = Trace.events tr in
  Alcotest.(check int) "B a, B b, E b, I, C, E a" 6 (List.length evs);
  (match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "well_formed: %s" m);
  let names = List.map (fun e -> (e.Trace.ev_name, e.Trace.ev_ph)) evs in
  Alcotest.(check bool) "event order" true
    (names
    = [ ("a", Trace.B); ("b", Trace.B); ("b", Trace.E); ("tick", Trace.I);
        ("bytes", Trace.C); ("a", Trace.E) ])

let test_span_exception_balanced () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  (try Trace.span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  (match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "balanced after raise: %s" m);
  match List.rev (Trace.events tr) with
  | e :: _ ->
      Alcotest.(check bool) "end event tagged error" true
        (List.mem ("error", Trace.A_bool true) e.Trace.ev_args)
  | [] -> Alcotest.fail "no events"

let test_monotone_clamp () =
  (* a clock that goes backwards must still yield monotone timestamps *)
  let seq = ref [ 0.5; 0.1; 0.9; 0.2; 1.0 ] in
  let clock () =
    match !seq with
    | [] -> 2.0
    | t :: rest ->
        seq := rest;
        t
  in
  let tr = Trace.create ~clock () in
  Trace.span tr "a" (fun () -> Trace.span tr "b" (fun () -> Trace.instant tr "i"));
  match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "monotone: %s" m

let test_disabled_noop () =
  let r = Trace.span Trace.disabled "x" (fun () -> 3) in
  Alcotest.(check int) "disabled span runs thunk" 3 r;
  Trace.instant Trace.disabled "i";
  Trace.counter Trace.disabled "c" 1.0;
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (Trace.events Trace.disabled))

let test_chrome_json_valid () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  Trace.span tr ~cat:"compile" {|weird "name"
with newline \ and unicode é|}
    ~args:[ ("k", Trace.A_str "v\"\n"); ("n", Trace.A_float 1.5) ]
    (fun () -> Trace.instant tr "i");
  let doc = Trace.to_chrome_json tr in
  match Json.parse doc with
  | Error m -> Alcotest.failf "chrome JSON does not parse: %s" m
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check int) "B, I, E" 3 (List.length evs)
      | _ -> Alcotest.fail "traceEvents missing")

let test_text_tree () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  Trace.span tr "outer" (fun () -> Trace.span tr "inner" (fun () -> ()));
  let s = Trace.to_text_tree tr in
  Alcotest.(check bool) "mentions both spans" true
    (Helpers.contains s "outer" && Helpers.contains s "inner")

(* ---------------------------------------------------------------- *)
(* Property: tracing never changes results or cost metrics            *)
(* ---------------------------------------------------------------- *)

let laptop_rt () =
  Emma.
    { cluster = Cluster.laptop (); profile = Cluster.spark_like; timeout_s = None }

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* the cost view, plus the barrier and task counts: tracing on and off
   run at the same domain count, so these must agree as well *)
let metrics_sig (m : Metrics.t) = (Metrics.cost m, m.Metrics.par_stages, m.Metrics.par_tasks)

let run_at ~domains ~trace prog tables =
  with_pool domains (fun pool ->
      let algo = Emma.parallelize prog in
      let config = Config.(default |> with_pool (Some pool) |> with_trace (Some trace)) in
      let r = Emma.run_on_exn ~config (laptop_rt ()) algo ~tables in
      (Format.asprintf "%a" Value.pp r.Emma.value, metrics_sig r.Emma.metrics))

let prop_trace_invariant =
  qcheck_case "tracing on/off: identical results and cost metrics at 1/2/4 domains"
    ~count:20
    QCheck2.Gen.(pair Helpers.terminated_pipeline_gen Helpers.rows_gen)
    (fun (e, rows) ->
      let prog = S.program ~ret:e [] in
      let tables = [ ("rows", rows) ] in
      List.for_all
        (fun domains ->
          let off = run_at ~domains ~trace:Trace.disabled prog tables in
          let tr = Trace.create () in
          let on = run_at ~domains ~trace:tr prog tables in
          off = on
          && (match Trace.well_formed tr with Ok () -> true | Error _ -> false)
          && Json.is_valid (Trace.to_chrome_json tr))
        [ 1; 2; 4 ])

let prop_span_trees_well_formed =
  qcheck_case "engine span trees: balanced, monotone, valid Chrome JSON" ~count:15
    Helpers.rows_gen
    (fun rows ->
      let prog =
        S.program
          ~ret:
            S.(
              sum
                (map
                   (lam "x" (fun x -> field x "a"))
                   (with_filter (lam "x" (fun x -> field x "b" < int_ 3)) (read "rows"))))
          []
      in
      let tr = Trace.create () in
      let _ = run_at ~domains:4 ~trace:tr prog [ ("rows", rows) ] in
      (match Trace.well_formed tr with Ok () -> true | Error _ -> false)
      && Json.is_valid (Trace.to_chrome_json tr))

(* The CLI-visible contract: a traced q3-style run produces job, stage and
   task spans, and the compile phases land in the same tracer via the
   ambient global. *)
let test_span_categories () =
  let tr = Trace.create () in
  Trace.set_global tr;
  Fun.protect
    ~finally:(fun () -> Trace.set_global Trace.disabled)
    (fun () ->
      let prog =
        S.program
          ~ret:S.(count (for_ [ gen "x" (read "rows") ] ~yield:(var "x")))
          []
      in
      let rows = List.init 16 (fun i -> Helpers.row i (i mod 3)) in
      let algo = Emma.parallelize prog in
      let r = Emma.run_on_exn (laptop_rt ()) algo ~tables:[ ("rows", rows) ] in
      ignore r.Emma.value;
      let cats =
        List.sort_uniq compare
          (List.map (fun e -> e.Trace.ev_cat) (Trace.events tr))
      in
      List.iter
        (fun c ->
          Alcotest.(check bool) (Printf.sprintf "category %S present" c) true
            (List.mem c cats))
        [ "compile"; "job"; "stage"; "task" ])

(* Stage spans carry the host-only [minor_words] end argument on a
   one-domain pool and leave it out on more domains, where
   [Gc.minor_words] would miss the workers' allocation; the cost view is
   the same traced and untraced. *)
let test_stage_minor_words () =
  let prog =
    S.program
      ~ret:
        S.(
          for_
            [ gen "g" (group_by (lam "x" (fun x -> field x "b")) (read "rows")) ]
            ~yield:(sum (map (lam "x" (fun x -> field x "a")) (field (var "g") "values"))))
      []
  in
  let tables = [ ("rows", List.init 40 (fun i -> Helpers.row i (i mod 3))) ] in
  let stage_ends tr =
    List.filter
      (fun e -> e.Trace.ev_cat = "stage" && e.Trace.ev_name <> "barrier" && e.Trace.ev_ph = Trace.E)
      (Trace.events tr)
  in
  let minor_words e =
    match List.assoc_opt "minor_words" e.Trace.ev_args with
    | Some (Trace.A_float w) -> Some w
    | _ -> None
  in
  List.iter
    (fun domains ->
      let tr = Trace.create () in
      let traced = run_at ~domains ~trace:tr prog tables in
      Alcotest.(check bool)
        (Printf.sprintf "cost view traced = untraced at %d domains" domains)
        true
        (traced = run_at ~domains ~trace:Trace.disabled prog tables);
      let ends = stage_ends tr in
      Alcotest.(check bool) "some stage spans" true (ends <> []);
      List.iter
        (fun e ->
          match (domains, minor_words e) with
          | 1, Some w ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %.0f words > 0" e.Trace.ev_name w)
                true (w > 0.0)
          | 1, None -> Alcotest.failf "%s: no minor_words at 1 domain" e.Trace.ev_name
          | _, Some _ -> Alcotest.failf "%s: minor_words at %d domains" e.Trace.ev_name domains
          | _, None -> ())
        ends)
    [ 1; 2 ]

let suite =
  [ ( "trace",
      [ Alcotest.test_case "span nesting and event order" `Quick test_span_nesting;
        Alcotest.test_case "balanced on exception" `Quick test_span_exception_balanced;
        Alcotest.test_case "timestamps clamped monotone" `Quick test_monotone_clamp;
        Alcotest.test_case "disabled tracer is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "chrome JSON parses (adversarial names)" `Quick
          test_chrome_json_valid;
        Alcotest.test_case "text tree renders spans" `Quick test_text_tree;
        Alcotest.test_case "compile+run span categories" `Quick test_span_categories;
        Alcotest.test_case "stage minor_words at 1 domain only" `Quick test_stage_minor_words;
        prop_trace_invariant;
        prop_span_trees_well_formed ] ) ]
