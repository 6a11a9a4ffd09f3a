(* E9 (extension): multicore scale-up. Unlike every other experiment —
   which reports the COST MODEL's simulated seconds — this one measures
   REAL wall-clock time of the engine's multicore execution backend: the
   same embarrassingly parallel, map-heavy pipeline is run with the
   partition work scheduled on 1, 2, 4 and 8 OCaml domains.

   Two invariants are checked while measuring:
   - the input table, generated in parallel from split PRNG streams, is
     identical whatever the pool size;
   - every cost-model metric (sim_time_s, shuffle_bytes, stages, even
     udf_invocations) is bit-identical across domain counts AND chunk
     policies — parallelism changes only wall_time_s and the par_*
     counters.

   Two skew sections give the work-stealing scheduler something to win
   (tune with --skew ALPHA, the Zipf exponent, and --chunk auto-or-N):
   - a Zipf-keyed groupBy pipeline whose shuffle produces partitions as
     skewed as the key distribution, run at every domain count;
   - a pool-level microbench of the same Zipf-skewed batch on the legacy
     single-queue pool (one task per partition) vs the work-stealing pool
     with chunked tasks, pinned in BENCH_steal.json: the stealing pool's
     8-domain speedup must not fall below the legacy pool's. *)

module Value = Emma_value.Value
module Cluster = Emma_engine.Cluster
module Metrics = Emma_engine.Metrics
module Engine = Emma_engine.Exec
module Pool = Emma_util.Pool
module Pool_legacy = Emma_util.Pool_legacy
module Prng = Emma_util.Prng
module Json = Emma_util.Json
module S = Emma_lang.Surface

let n_rows = 40_000
let n_chunks = 32
let domain_counts = [ 1; 2; 4; 8 ]

(* --skew: Zipf exponent of the skewed sections (higher = more skewed). *)
let skew_exponent = ref 1.2

(* --chunk: the engine chunk policy the wall-clock runs use. *)
let chunk_spec = ref Engine.Chunk_auto

(* Parallel workload generation: one split PRNG stream per chunk, chunks
   materialized on the pool. The output is a pure function of the seed —
   independent of the pool size driving the generation. *)
let gen_rows ~pool ~seed =
  let streams = Prng.split_n (Prng.create seed) n_chunks in
  let per_chunk = n_rows / n_chunks in
  let chunk ci =
    let g = streams.(ci) in
    List.init per_chunk (fun _ ->
        Value.record
          [ ("a", Value.Int (Prng.int_in g (-1000) 1000));
            ("b", Value.Int (Prng.int_in g 0 63)) ])
  in
  List.concat (Array.to_list (Pool.parmap pool chunk (Array.init n_chunks Fun.id)))

(* A chain of elementwise transforms shared by both pipelines. *)
let xform e =
  S.map
    (S.lam "x" (fun x ->
         S.record
           [ ( "a",
               S.(
                 ((field x "a" * int_ 31) + (field x "b" * field x "b") + int_ 7)
                 mod int_ 10007) );
             ("b", S.((field x "b" + int_ 1) mod int_ 64)) ]))
    e

let rec chain n e = if n = 0 then e else chain (n - 1) (xform e)

(* A map-heavy pipeline: a chain of elementwise transforms ending in a
   data-parallel fold. No shuffles, so partitions never synchronize except
   at stage barriers — the shape that should scale with the domain count. *)
let program =
  (* chain length 4: long enough that per-row work dominates scheduling,
     short enough that fold-fusion's UDF inlining stays small *)
  S.program
    ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (var "out")))
    [ S.s_let "out"
        (S.with_filter
           (S.lam "x" (fun x -> S.(field x "a" mod int_ 97 <> int_ 0)))
           (chain 4 (S.read "nums"))) ]

(* one physical node with many slots: partitions, no simulated network *)
let cluster = { (Cluster.laptop ()) with Cluster.nodes = 1; slots_per_node = 32 }

let cost_fields (m : Metrics.t) =
  ( m.Metrics.sim_time_s,
    m.Metrics.shuffle_bytes,
    m.Metrics.broadcast_bytes,
    m.Metrics.stages,
    m.Metrics.jobs,
    m.Metrics.udf_invocations )

(* ------------------------------------------------------------------ *)
(* Zipf skew                                                            *)
(* ------------------------------------------------------------------ *)

(* Inverse-CDF Zipf(alpha) over [0, nkeys): key k has weight (k+1)^-alpha. *)
let zipf_cdf ~alpha ~nkeys =
  let w = Array.init nkeys (fun k -> (float_of_int (k + 1)) ** -.alpha) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf u =
  let n = Array.length cdf in
  let rec go k = if k >= n - 1 || u <= cdf.(k) then k else go (k + 1) in
  go 0

let n_skew_rows = 20_000
let n_skew_keys = 48

let gen_skew_rows ~seed ~alpha =
  let cdf = zipf_cdf ~alpha ~nkeys:n_skew_keys in
  let g = Prng.create seed in
  List.init n_skew_rows (fun _ ->
      Value.record
        [ ("k", Value.Int (zipf_draw cdf (Prng.unit_float g)));
          ("v", Value.Int (Prng.int_in g (-1000) 1000)) ])

(* Zipf-keyed groupBy pipeline: the groupBy shuffle routes every row of a
   key to one partition, so downstream partitions are as skewed as the key
   distribution; the flatMap + map chain over them is exactly the
   homomorphic work adaptive chunking splits for the stealing pool. *)
let skew_program =
  S.program
    ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (var "out")))
    [ S.s_let "out"
        (chain 3
           (S.map
              (S.lam "x" (fun x ->
                   S.record
                     [ ("a", S.field x "v"); ("b", S.(field x "k" mod int_ 64)) ]))
              (S.flat_map
                 (S.lam "g" (fun g -> S.field g "values"))
                 (S.group_by (S.lam "x" (fun x -> S.field x "k")) (S.read "skewed"))))) ]

(* ------------------------------------------------------------------ *)
(* Pool-level steal microbench                                          *)
(* ------------------------------------------------------------------ *)

(* Zipf-proportional partition sizes over [total] rows (each >= 1). *)
let zipf_sizes ~alpha ~total ~parts =
  let w = Array.init parts (fun k -> (float_of_int (k + 1)) ** -.alpha) in
  let wt = Array.fold_left ( +. ) 0.0 w in
  let sizes =
    Array.map (fun x -> max 1 (int_of_float (x /. wt *. float_of_int total))) w
  in
  sizes

(* Deterministic per-row busy work; xor-combined checksums are layout
   independent, so both pools and every chunking must agree. *)
let spin_row r =
  let x = ref (r + 1) in
  for _ = 1 to 60 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  !x

let run_rows (lo, rows) =
  let acc = ref 0 in
  for r = lo to lo + rows - 1 do
    acc := !acc lxor spin_row r
  done;
  !acc

let steal_reps = 3
let steal_parts = 32
let steal_rows = 60_000
let steal_grain = 512  (* rows per chunk task on the stealing pool *)

(* (offset, rows) task arrays: one per partition for the legacy pool's
   granularity, one per <= grain-row chunk for the stealing pool's. *)
let steal_tasks ~alpha =
  let sizes = zipf_sizes ~alpha ~total:steal_rows ~parts:steal_parts in
  let off = ref 0 in
  let whole =
    Array.map
      (fun sz ->
        let o = !off in
        off := o + sz;
        (o, sz))
      sizes
  in
  let chunked = ref [] in
  Array.iter
    (fun (o, sz) ->
      let rec go o sz =
        if sz > 0 then begin
          let c = min steal_grain sz in
          chunked := (o, c) :: !chunked;
          go (o + c) (sz - c)
        end
      in
      go o sz)
    whole;
  (whole, Array.of_list (List.rev !chunked))

let time_best f =
  let best = ref infinity in
  let result = ref 0 in
  for _ = 1 to steal_reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    result := r
  done;
  (!result, !best)

let xor_all = Array.fold_left ( lxor ) 0

let bench_steal ~alpha =
  let whole, chunked = steal_tasks ~alpha in
  let legacy_wall d =
    let p = Pool_legacy.create ~domains:d in
    Fun.protect ~finally:(fun () -> Pool_legacy.shutdown p) @@ fun () ->
    time_best (fun () -> xor_all (Pool_legacy.parmap p run_rows whole))
  in
  let ws_wall d =
    let p = Pool.create ~domains:d () in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
    time_best (fun () -> xor_all (Pool.parmap p run_rows chunked))
  in
  let lg1, lw1 = legacy_wall 1 in
  let lg8, lw8 = legacy_wall 8 in
  let ws1, ww1 = ws_wall 1 in
  let ws8, ww8 = ws_wall 8 in
  if not (lg1 = lg8 && lg8 = ws1 && ws1 = ws8) then
    failwith "steal bench: checksum differs across pools/chunkings";
  (lw1, lw8, ww1, ww8)

(* ------------------------------------------------------------------ *)

let run () =
  let alpha = !skew_exponent in
  Exp_common.section
    "E9: multicore scale-up — real wall clock on OCaml domains (extension)";
  Printf.printf "(map-heavy pipeline over %d rows, %d partitions; host has %d core(s))\n"
    n_rows cluster.Cluster.slots_per_node
    (Domain.recommended_domain_count ());
  let algo = Emma.parallelize program in
  let reference_rows = ref None in
  let run_at ?(chunk = !chunk_spec) ~pool ~tables algo =
    let rt = Emma.{ cluster; profile = Cluster.spark_like; timeout_s = None } in
    let config = Emma.Config.(default |> with_pool (Some pool) |> with_chunk chunk) in
    let outcome = Emma.run_on ~config rt algo ~tables in
    Exp_common.note_outcome outcome;
    match outcome with
    | Emma.Finished r -> (r.Emma.value, r.Emma.metrics)
    | Emma.Failed { reason; _ } -> failwith ("scaleup: engine failure: " ^ reason)
    | Emma.Timed_out _ -> failwith "scaleup: engine timeout"
    | Emma.Cancelled _ -> failwith "scaleup: query cancelled"
  in
  let results =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
        let rows = gen_rows ~pool ~seed:42 in
        (match !reference_rows with
        | None -> reference_rows := Some rows
        | Some r ->
            if not (List.for_all2 Value.equal r rows) then
              failwith "scaleup: parallel generation diverged from reference");
        let v, m = run_at ~pool ~tables:[ ("nums", rows) ] algo in
        (domains, v, m))
      domain_counts
  in
  (* cost-model invariance across domain counts *)
  let _, v1, m1 = List.hd results in
  List.iter
    (fun (d, v, m) ->
      if not (Value.equal v1 v) then
        failwith (Printf.sprintf "scaleup: result differs at %d domains" d);
      if cost_fields m1 <> cost_fields m then
        failwith (Printf.sprintf "scaleup: cost metrics differ at %d domains" d))
    results;
  let base_wall =
    match results with (_, _, m) :: _ -> m.Metrics.wall_time_s | [] -> 1.0
  in
  Emma_util.Tbl.print
    ~title:"wall-clock scale-up (cost model bit-identical at every row)"
    ~header:
      [ "domains"; "wall clock"; "speedup"; "sim time"; "par tasks"; "chunks"; "steals" ]
    (List.map
       (fun (d, _, m) ->
         [ string_of_int d;
           Printf.sprintf "%.3f s" m.Metrics.wall_time_s;
           Printf.sprintf "%.2fx" (base_wall /. m.Metrics.wall_time_s);
           Printf.sprintf "%.1f s" m.Metrics.sim_time_s;
           string_of_int m.Metrics.par_tasks;
           string_of_int m.Metrics.par_chunks;
           string_of_int m.Metrics.par_steals ])
       results);
  print_endline
    "(speedups are real parallelism: expect ~min(domains, cores) on a multicore host,\n\
    \ flat on a single-core container)";

  (* -------- Zipf-skewed engine pipeline -------- *)
  Exp_common.section
    (Printf.sprintf
       "E9b: Zipf-skewed groupBy pipeline (alpha = %.2f) — stealing vs skew" alpha);
  let skew_algo = Emma.parallelize skew_program in
  let skew_tables = [ ("skewed", gen_skew_rows ~seed:7 ~alpha) ] in
  let skew_results =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
        let v, m = run_at ~pool ~tables:skew_tables skew_algo in
        (domains, v, m))
      domain_counts
  in
  let _, sv1, sm1 = List.hd skew_results in
  List.iter
    (fun (d, v, m) ->
      if not (Value.equal sv1 v) then
        failwith (Printf.sprintf "skew: result differs at %d domains" d);
      if cost_fields sm1 <> cost_fields m then
        failwith (Printf.sprintf "skew: cost metrics differ at %d domains" d))
    skew_results;
  (* ... and across chunk policies at the top domain count *)
  (let pool = Pool.create ~domains:8 () in
   Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
   List.iter
     (fun chunk ->
       let v, m = run_at ~chunk ~pool ~tables:skew_tables skew_algo in
       if not (Value.equal sv1 v) then failwith "skew: result differs across --chunk";
       if cost_fields sm1 <> cost_fields m then
         failwith "skew: cost metrics differ across --chunk")
     [ Engine.Chunk_fixed 1; Engine.Chunk_fixed 64; Engine.Chunk_auto ]);
  let skew_base =
    match skew_results with (_, _, m) :: _ -> m.Metrics.wall_time_s | [] -> 1.0
  in
  Emma_util.Tbl.print
    ~title:
      "skewed scale-up (cost model bit-identical across domains AND chunk policies)"
    ~header:[ "domains"; "wall clock"; "speedup"; "par tasks"; "chunks"; "steals"; "misses" ]
    (List.map
       (fun (d, _, m) ->
         [ string_of_int d;
           Printf.sprintf "%.3f s" m.Metrics.wall_time_s;
           Printf.sprintf "%.2fx" (skew_base /. m.Metrics.wall_time_s);
           string_of_int m.Metrics.par_tasks;
           string_of_int m.Metrics.par_chunks;
           string_of_int m.Metrics.par_steals;
           string_of_int m.Metrics.par_steal_misses ])
       skew_results);

  (* -------- pool-level legacy-vs-stealing pin -------- *)
  Exp_common.section
    (Printf.sprintf
       "E9c: work stealing vs the legacy pool (Zipf alpha = %.2f, %d rows, %d \
        partitions, %d-row chunks)"
       alpha steal_rows steal_parts steal_grain);
  let lw1, lw8, ww1, ww8 = bench_steal ~alpha in
  let legacy_speedup = lw1 /. lw8 in
  let ws_speedup = ww1 /. ww8 in
  Emma_util.Tbl.print ~title:"skewed batch, 1 -> 8 domains (best of 3)"
    ~header:[ "pool"; "wall 1d"; "wall 8d"; "speedup" ]
    [ [ "legacy (1 task/partition)";
        Printf.sprintf "%.3f s" lw1;
        Printf.sprintf "%.3f s" lw8;
        Printf.sprintf "%.2fx" legacy_speedup ];
      [ "stealing (chunked)";
        Printf.sprintf "%.3f s" ww1;
        Printf.sprintf "%.3f s" ww8;
        Printf.sprintf "%.2fx" ws_speedup ] ];
  (* Pin: the stealing pool's skewed speedup must be at least the legacy
     pool's. The slack absorbs timer noise on hosts where both are flat
     (e.g. a single-core container, where every speedup is ~1.0x). *)
  let slack = 0.85 in
  let passed = ws_speedup >= legacy_speedup *. slack in
  Printf.printf "acceptance: stealing %.2fx %s legacy %.2fx (x %.2f slack) — %s\n"
    ws_speedup
    (if passed then ">=" else "<")
    legacy_speedup slack
    (if passed then "ok" else "FAIL");
  let sm8 =
    match List.rev skew_results with (_, _, m) :: _ -> m | [] -> sm1
  in
  let json =
    Json.Obj
      [ ("experiment", Json.Str "steal");
        ("bench", Json.Str "E9c Zipf-skewed batch, legacy vs work-stealing pool");
        ("zipf_alpha", Json.Float alpha);
        ("rows", Json.Int steal_rows);
        ("partitions", Json.Int steal_parts);
        ("chunk_rows", Json.Int steal_grain);
        ("domains", Json.Int 8);
        ("legacy_wall_1d_s", Json.Float lw1);
        ("legacy_wall_8d_s", Json.Float lw8);
        ("ws_wall_1d_s", Json.Float ww1);
        ("ws_wall_8d_s", Json.Float ww8);
        ("legacy_speedup", Json.Float legacy_speedup);
        ("ws_speedup", Json.Float ws_speedup);
        ("slack", Json.Float slack);
        ("target_met", Json.Bool passed);
        ("engine_skew_par_tasks", Json.Int sm8.Metrics.par_tasks);
        ("engine_skew_par_chunks", Json.Int sm8.Metrics.par_chunks);
        ("engine_skew_par_steals", Json.Int sm8.Metrics.par_steals);
        ("cost_model_bit_identical", Json.Bool true) ]
  in
  let path = "BENCH_steal.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "measurement written to %s\n" path;
  if not passed then failwith "steal bench: stealing pool lost to the legacy pool"
