(* E12 (extension): staged UDF compilation — real wall clock, like E9.
   Every other experiment reports cost-model seconds; this one measures
   what `--udf-mode compiled` actually buys on the host clock.

   The workload is an arithmetic-heavy chain of elementwise maps whose
   bodies interleave per-tuple arithmetic with subcomputations over
   driver-captured coefficients — the shape where the tree-walking
   interpreter pays a tag dispatch plus environment lookups per node per
   tuple and re-computes the capture-only subterms every time, while the
   staged closures pay one closure call per dynamic node and fold the
   capture-only subterms to literals at compile time. Both UDF modes run
   over the same rows; the contract checked while measuring:

   - results are Value-identical between modes;
   - every cost-model metric (sim_time_s, shuffle/broadcast bytes,
     stages, jobs, even udf_invocations) is bit-identical between modes
     AND across 1/2/4 domains — only wall_time_s may move;
   - compiled wall clock beats interpreted by at least [target_speedup]
     (the acceptance bar pinned in BENCH_udf_compile.json).

   The measured runs use a 1-domain pool so the wall clocks compare
   per-tuple execution, not scheduling noise; each mode takes the best
   of [reps] runs. *)

module Value = Emma_value.Value
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Pool = Emma_util.Pool
module Prng = Emma_util.Prng
module Json = Emma_util.Json
module S = Emma_lang.Surface

let n_rows = 12_000
let chain_len = try int_of_string (Sys.getenv "EMMA_UDF_CHAIN") with Not_found -> 6
let reps = try int_of_string (Sys.getenv "EMMA_UDF_REPS") with Not_found -> 3
let target_speedup = 5.0

let gen_rows ~seed =
  let g = Prng.create seed in
  List.init n_rows (fun _ ->
      Value.record
        [ ("a", Value.Int (Prng.int_in g (-1000) 1000));
          ("b", Value.Int (Prng.int_in g 1 63)) ])

(* Driver-bound coefficients: [Sinline] never inlines into lambda bodies,
   so inside the UDFs these stay broadcast variables. The interpreter
   resolves and re-computes with them per tuple; the staged compiler
   resolves them ONCE at udf-compile time, and every subterm built only
   from captures and literals constant-folds away entirely — the
   partial-evaluation payoff the staging pass exists for. *)
let coeffs = [ ("c1", 17); ("c2", 29); ("c3", 41); ("c4", 53) ]

(* One elementwise transform: per-tuple arithmetic interleaved with
   capture-only subcomputations (k1/k2/k3). Normalization substitutes the
   lets, so every [k] reference expands to its whole subtree — work the
   interpreter repeats per tuple per occurrence and the staged compiler
   folds to a literal. All divisors are non-zero constants. *)
let xform_body x =
  let v = S.var in
  S.let_ "k1" S.(((v "c1" * v "c1") + (v "c2" * int_ 19) + int_ 7) mod int_ 97)
  @@ fun k1 ->
  S.let_ "k2" S.(((v "c3" * v "c4") + (k1 * v "c2") + int_ 23) mod int_ 89)
  @@ fun k2 ->
  S.let_ "k3" S.(((k1 * k2) + (v "c1" * int_ 13) + min2 k1 k2) mod int_ 83)
  @@ fun k3 ->
  S.let_ "a" (S.field x "a") @@ fun a ->
  S.let_ "b" (S.field x "b") @@ fun b ->
  S.let_ "t1" S.((a * k1) + (b * k2) + k3) @@ fun t1 ->
  S.let_ "t2" S.(((t1 * v "c2") + (a * b) + (t1 mod int_ 97)) mod int_ 10007)
  @@ fun t2 ->
  S.let_ "t3" S.(((t2 * k2) + (t1 mod int_ 89) + (b * k3)) mod int_ 7919)
  @@ fun t3 ->
  S.record
    [ ("a", S.(((t3 * k1) + (t2 mod int_ 101) + a) mod int_ 10007));
      ("b", S.(((b + (t3 mod int_ 61)) mod int_ 62) + int_ 1)) ]

let xform e = S.map (S.lam "x" xform_body) e

let program =
  let rec chain n e = if n = 0 then e else chain (n - 1) (xform e) in
  S.program
    ~ret:
      S.(
        sum (map (lam "x" (fun x -> field x "a")) (var "out"))
        + count (var "out"))
    (List.map (fun (n, c) -> S.s_let n (S.int_ c)) coeffs
    @ [ S.s_let "out"
          (S.with_filter
             (S.lam "x" (fun x -> S.(field x "a" mod int_ 89 <> int_ 0)))
             (chain chain_len (S.read "nums"))) ])

(* one physical node, many slots: partitioned work, no simulated network *)
let cluster = { (Cluster.laptop ()) with Cluster.nodes = 1; slots_per_node = 16 }

let cost_fields (m : Metrics.t) =
  ( m.Metrics.sim_time_s,
    m.Metrics.shuffle_bytes,
    m.Metrics.broadcast_bytes,
    m.Metrics.stages,
    m.Metrics.jobs,
    m.Metrics.udf_invocations )

let run_mode ~pool ~udf_mode algo tables =
  let rt = Emma.{ cluster; profile = Cluster.spark_like; timeout_s = None } in
  let config = Emma.Config.(default |> with_udf_mode udf_mode |> with_pool (Some pool)) in
  let r = Emma.run_on_exn ~config rt algo ~tables in
  (r.Emma.value, r.Emma.metrics)

let mode_name = function Engine.Interp -> "interp" | Engine.Compiled -> "compiled"

let debug_raw rows =
  (* raw per-tuple throughput of the two evaluators, engine excluded *)
  let module Eval = Emma_lang.Eval in
  let module Compile = Emma_lang.Compile in
  let ctx = Eval.create_ctx () in
  Eval.register_table ctx "nums" rows;
  let rec chain n e = if n = 0 then e else chain (n - 1) (xform e) in
  let chained = chain chain_len (S.read "nums") in
  let e =
    S.sum
      (S.map
         (S.lam "x" (fun x -> S.field x "a"))
         (S.with_filter
            (S.lam "x" (fun x -> S.(field x "a" mod int_ 89 <> int_ 0)))
            chained))
  in
  let time f =
    let t0 = Sys.time () in
    let v = f () in
    (Sys.time () -. t0, v)
  in
  let base =
    List.fold_left
      (fun acc (n, c) -> Eval.bind n (Eval.V (Value.Int c)) acc)
      Eval.empty_env coeffs
  in
  let ti, vi = time (fun () -> Eval.eval_value ctx base e) in
  let tc, vc = time (fun () -> Compile.value ctx base e) in
  Printf.printf "debug-raw: interp=%.3fs compiled=%.3fs ratio=%.2fx same=%b\n%!" ti
    tc (ti /. tc) (Value.equal vi vc);
  let module Pipeline = Emma_compiler.Pipeline in
  Printf.printf "debug-size: source=%d normalized=%d\n%!"
    (Pipeline.program_size program)
    (Pipeline.program_size (Pipeline.normalized program))

let run () =
  if Sys.getenv_opt "EMMA_UDF_DEBUG" <> None then debug_raw (gen_rows ~seed:42);
  Exp_common.section
    "E12: staged UDF compilation — real wall clock, interp vs compiled (extension)";
  Printf.printf
    "(%d-map chain of arithmetic UDFs over %d rows, driver-bound coefficients \
     partially evaluated at compile time; acceptance bar %.0fx)\n"
    chain_len n_rows target_speedup;
  let rows = gen_rows ~seed:42 in
  let tables = [ ("nums", rows) ] in
  let algo = Emma.parallelize program in
  (* contract: value + cost-model bit-identity across modes and domains *)
  let reference = ref None in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      List.iter
        (fun udf_mode ->
          let v, m = run_mode ~pool ~udf_mode algo tables in
          if Sys.getenv_opt "EMMA_UDF_DEBUG" <> None then
            Printf.printf "debug: %s %dd: udfs=%d jobs=%d stages=%d wall=%.3f\n%!"
              (mode_name udf_mode) domains m.Metrics.udf_invocations
              m.Metrics.jobs m.Metrics.stages m.Metrics.wall_time_s;
          match !reference with
          | None -> reference := Some (v, cost_fields m)
          | Some (v0, c0) ->
              if not (Value.equal v0 v) then
                failwith
                  (Printf.sprintf "udf: result differs (%s, %d domains)"
                     (mode_name udf_mode) domains);
              if c0 <> cost_fields m then
                failwith
                  (Printf.sprintf "udf: cost metrics differ (%s, %d domains)"
                     (mode_name udf_mode) domains))
        [ Engine.Interp; Engine.Compiled ])
    [ 1; 2; 4 ];
  (* wall clock: best of [reps] per mode on a 1-domain pool *)
  let best_wall udf_mode =
    let pool = Pool.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    List.fold_left
      (fun best _ ->
        let _, m = run_mode ~pool ~udf_mode algo tables in
        min best m.Metrics.wall_time_s)
      infinity
      (List.init reps Fun.id)
  in
  let interp_wall = best_wall Engine.Interp in
  let compiled_wall = best_wall Engine.Compiled in
  let speedup = interp_wall /. compiled_wall in
  Emma_util.Tbl.print
    ~title:"per-tuple UDF execution (cost model bit-identical at every row)"
    ~header:[ "udf mode"; "wall clock"; "speedup" ]
    [ [ "interp"; Printf.sprintf "%.3f s" interp_wall; "1.00x" ];
      [ "compiled";
        Printf.sprintf "%.3f s" compiled_wall;
        Printf.sprintf "%.2fx" speedup ] ];
  let passed = speedup >= target_speedup in
  Printf.printf "acceptance: %.2fx %s %.0fx target — %s\n" speedup
    (if passed then ">=" else "<")
    target_speedup
    (if passed then "ok" else "FAIL");
  (* pin the measurement for the acceptance gate *)
  let json =
    Json.Obj
      [ ("experiment", Json.Str "udf_compile");
        ("bench", Json.Str "E12 map-chain, deep arithmetic UDF bodies");
        ("rows", Json.Int n_rows);
        ("chain_len", Json.Int chain_len);
        ("reps", Json.Int reps);
        ("interp_wall_s", Json.Float interp_wall);
        ("compiled_wall_s", Json.Float compiled_wall);
        ("speedup", Json.Float speedup);
        ("target_speedup", Json.Float target_speedup);
        ("target_met", Json.Bool passed);
        ("cost_model_bit_identical", Json.Bool true);
        ("domains_checked", Json.List [ Json.Int 1; Json.Int 2; Json.Int 4 ]) ]
  in
  let path = "BENCH_udf_compile.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "measurement written to %s\n" path;
  if not passed then failwith "udf: compiled mode missed the wall-clock target"
