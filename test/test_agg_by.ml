(* aggBy's map-side combine and reduce, against native evaluation.

   An aggBy folds each key's rows into an accumulator on the map side,
   then merges the partial accumulators of one key on the reduce side.
   These tests pin its results on algebras whose accumulators are easy to
   get wrong when they are updated in place: a fused multi-component step
   that raises half-way, a constant union whose result is one shared
   value, a union that returns an argument, and an input that is already
   partitioned by the key (no shuffle between combine and reduce). Each
   runs at 1, 2 and 4 domains with compiled UDFs and in interpreter mode,
   and must equal native [Eval]. *)

module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module S = Emma_lang.Surface
module Cluster = Emma_engine.Cluster
module Config = Emma_engine.Config
module Pool = Emma_util.Pool
open Helpers

let algebra ~empty ~single ~union =
  { Expr.f_empty = empty; f_single = single; f_union = union; f_tag = Expr.Tag_generic }

let agg_by key fns xs = Expr.AggBy (key, fns, xs)
let by_b = S.lam "x" (fun x -> S.field x "b")
let over_t fns = S.program ~ret:(agg_by by_b fns (S.read "t")) []

(* Rows {a; b} with [b] in 0..3; every key has rows in many partitions
   and several rows in some. *)
let rows = List.init 90 (fun i -> Helpers.row (i - 30) (i mod 4))

(* One engine run on a cluster that dispatches every barrier with rows,
   so the multi-domain runs really go through the pool. *)
let run_engine ~domains mode prog tables =
  let pool = Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let config = Config.(default |> with_pool (Some pool) |> with_udf_mode mode) in
      let rt = Emma.spark ~cluster:(Helpers.dispatching (Cluster.laptop ())) () in
      classify (fun () ->
          (Emma.run_on_exn ~config rt (Emma.parallelize prog) ~tables).Emma.value))

let runs =
  [ (1, Config.Compiled); (2, Config.Compiled); (4, Config.Compiled); (2, Config.Interp) ]

let run_name (domains, mode) =
  Printf.sprintf "%s at %d domains" (Config.udf_mode_to_string mode) domains

(* Every run gives native [Eval]'s value, or, when [Eval] raises, its
   classified error. *)
let check_native msg prog tables =
  let native = classify (fun () -> fst (Emma.run_native (Emma.parallelize prog) ~tables)) in
  List.iter
    (fun r ->
      let domains, mode = r in
      Alcotest.check outcome_testable
        (Printf.sprintf "%s, %s = native" msg (run_name r))
        native
        (run_engine ~domains mode prog tables))
    runs;
  native

(* Q1's shape: three components, each a projection of the accumulator
   plus the row's component, so the compiled step is fused. *)
let three ~second =
  algebra
    ~empty:S.(tup [ int_ 0; int_ 0; int_ 0 ])
    ~single:(S.lam "x" (fun x -> S.tup [ S.field x "a"; second x; S.int_ 1 ]))
    ~union:(S.lam2 "p" "q" (fun p q -> S.tup (List.init 3 (fun i -> S.(proj p i + proj q i)))))

let test_fused_raises_midway () =
  (* [x.a / (x.a - 7)] raises only on the row with [a = 7], the fifth row
     of key 1 in its partition: the key already has an accumulator, and
     the step has computed its first component when the second raises *)
  let second x = S.(field x "a" / (field x "a" - int_ 7)) in
  let prog = over_t (three ~second) in
  let safe = List.filter (fun r -> Value.field r "a" <> Value.Int 7) rows in
  (match check_native "without the raising row" prog [ ("t", safe) ] with
  | Val _ -> ()
  | Err m -> Alcotest.failf "native failed without the raising row: %s" m);
  match check_native "with the raising row" prog [ ("t", rows) ] with
  | Err m ->
      Alcotest.(check string)
        "the interpreter's error" "Type_error: div: integer division by zero" m
  | Val v -> Alcotest.failf "division by zero went unnoticed: %a" Value.pp v

let test_float_components () =
  (* halves: every partial sum is exact, so any association gives the
     same bits *)
  let second x = S.(to_float (field x "a") * float_ 0.5) in
  let prog = over_t (three ~second) in
  ignore (check_native "float sums" prog [ ("t", rows) ])

let test_co_partitioned () =
  (* the inner aggBy's output is hash-partitioned by [g.key], the outer
     aggBy's key: its combine output reaches the reduce unshuffled *)
  let inner = agg_by by_b (three ~second:(fun x -> S.(field x "a" * int_ 2))) (S.read "t") in
  let outer =
    agg_by
      (S.lam "g" (fun g -> S.field g "key"))
      (algebra
         ~empty:S.(tup [ int_ 0; int_ 0 ])
         ~single:(S.lam "g" (fun g -> S.tup [ S.proj (S.field g "agg") 0; S.int_ 1 ]))
         ~union:(S.lam2 "p" "q" (fun p q -> S.tup S.[ proj p 0 + proj q 0; proj p 1 + proj q 1 ])))
      inner
  in
  let tables = [ ("t", rows) ] in
  ignore (check_native "co-partitioned input" (S.program ~ret:outer []) tables);
  let shuffled e =
    let r = Emma.run_on_exn (Emma.spark ()) (Emma.parallelize (S.program ~ret:e [])) ~tables in
    r.Emma.metrics.Emma_engine.Metrics.shuffle_bytes
  in
  Alcotest.(check (float 0.0)) "the outer aggBy shuffles nothing" (shuffled inner) (shuffled outer)

let test_constant_union () =
  (* the union's body is a constant tuple: one static value that every
     call returns; [single] gives the same value for every row *)
  let fns =
    algebra
      ~empty:S.(tup [ int_ 0; int_ 1 ])
      ~single:(S.lam "x" (fun x -> S.tup S.[ field x "a" - field x "a"; int_ 1 ]))
      ~union:(S.lam2 "p" "q" (fun _ _ -> S.(tup [ int_ 0; int_ 1 ])))
  in
  ignore (check_native "constant union" (over_t fns) [ ("t", rows) ])

let test_argument_union () =
  (* the union returns its first argument: a map-side accumulator is
     then [empty] itself, shared by every key *)
  let fns =
    algebra
      ~empty:S.(tup [ int_ 0; int_ 1 ])
      ~single:(S.lam "x" (fun x -> S.tup S.[ field x "a" - field x "a"; int_ 1 ]))
      ~union:(S.lam2 "p" "q" (fun p _ -> p))
  in
  ignore (check_native "argument union" (over_t fns) [ ("t", rows) ])

let test_unfused_tuple_union () =
  (* [q] used twice and under an [If]: the step is not fused, and each
     row's single tuple is built *)
  let fns =
    algebra
      ~empty:S.(tup [ int_ 1000; int_ 0 ])
      ~single:(S.lam "x" (fun x -> S.tup [ S.field x "a"; S.int_ 1 ]))
      ~union:
        (S.lam2 "p" "q" (fun p q ->
             S.tup
               [ S.if_ S.(proj p 0 <= proj q 0) (S.proj p 0) (S.proj q 0);
                 S.(proj p 1 + proj q 1) ]))
  in
  ignore (check_native "unfused min and count" (over_t fns) [ ("t", rows) ])

(* The engine's fold order is part of its results, since later float
   folds associate in it (DESIGN, "Keyed tables"). The union
   [(p, q) => ((31 p._0 + q._0) mod 1000003)] makes each key's result
   depend on the order in which its rows and partials are merged, and a
   fingerprint of the output list depends on the output order; both are
   pinned, the same at every domain count and in either UDF mode. Over
   1000 keys, a partition's tables hold chains of several keys, whose
   order follows the insertion order. The outer aggBy's input is
   partitioned by its key, so its pairs reach the reduce unshuffled. *)
let test_fold_order_pinned () =
  let mix p q = S.tup [ S.((proj p 0 * int_ 31 + proj q 0) mod int_ 1000003) ] in
  let inner =
    agg_by by_b
      (algebra ~empty:S.(tup [ int_ 0 ])
         ~single:(S.lam "x" (fun x -> S.tup [ S.field x "a" ]))
         ~union:(S.lam2 "p" "q" mix))
      (S.read "t")
  in
  let outer =
    agg_by
      (S.lam "g" (fun g -> S.field g "key"))
      (algebra ~empty:S.(tup [ int_ 0 ])
         ~single:(S.lam "g" (fun g -> S.tup [ S.proj (S.field g "agg") 0 ]))
         ~union:(S.lam2 "p" "q" mix))
      inner
  in
  let tables = [ ("t", List.init 3000 (fun i -> Helpers.row i (i * 7919 mod 1000))) ] in
  let fingerprint = function
    | Val (Value.Bag rs) ->
        List.fold_left
          (fun h r ->
            ((h * 1000003) + Hashtbl.hash (Format.asprintf "%a" Value.pp r)) land 0x3FFFFFFF)
          0 rs
    | Val v -> Alcotest.failf "not a bag: %a" Value.pp v
    | Err m -> Alcotest.failf "failed: %s" m
  in
  List.iter
    (fun (name, e, pinned) ->
      List.iter
        (fun r ->
          let domains, mode = r in
          Alcotest.(check int)
            (Printf.sprintf "%s, %s" name (run_name r))
            pinned
            (fingerprint (run_engine ~domains mode (S.program ~ret:e []) tables)))
        runs)
    [ ("shuffled", inner, 807327143); ("co-partitioned", outer, 807327143) ]

let suite =
  [ ( "agg_by",
      [ Alcotest.test_case "fused step raising mid-way = interpreter" `Quick
          test_fused_raises_midway;
        Alcotest.test_case "float components = native" `Quick test_float_components;
        Alcotest.test_case "co-partitioned input = native" `Quick test_co_partitioned;
        Alcotest.test_case "constant tuple union = native" `Quick test_constant_union;
        Alcotest.test_case "argument-returning union = native" `Quick test_argument_union;
        Alcotest.test_case "unfused tuple union = native" `Quick test_unfused_tuple_union;
        Alcotest.test_case "fold and output order pinned" `Quick test_fold_order_pinned ] ) ]
