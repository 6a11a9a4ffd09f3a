(* The programs the workloads submit, with inputs drawn from the run's seed.

   Every program receives only generated tables; the seed moves the data,
   never its size, so op times and allocation stay comparable across
   seeds. *)

module Value = Emma.Value
module W = Emma_workloads
module Pr = Emma_programs

type prog = {
  name : string;
  program : Emma.Expr.program;
  tables : (string * Value.t list) list;
}

let tpch ~seed sf =
  let cfg = W.Tpch_gen.of_scale_factor sf in
  ( W.Tpch_gen.lineitem ~seed cfg,
    W.Tpch_gen.orders ~seed cfg,
    W.Tpch_gen.customer ~seed cfg )

(* The paper's programs, each input scaled so that one submit takes about
   the same host time on one domain: similar op sizes keep the latency
   percentiles of the mixed op stream off a cliff. *)
let batch ~seed =
  let lineitem, orders, customer = tpch ~seed 0.0021 in
  let points = W.Points_gen.default ~n_points:700 ~k:3 in
  (* lighter-tailed degrees than the generator's default (Pareto 1.8):
     with a heavy tail the edge count, and so the op's work, swings with
     the seed *)
  let graph = { (W.Graph_gen.default ~n_vertices:260) with alpha = 4.0 } in
  let cc_graph = { (W.Graph_gen.default ~n_vertices:560) with alpha = 4.0 } in
  let emails =
    { (W.Email_gen.paper_config ~physical_emails:5_300) with
      body_bytes_avg = 4_000;
      server_info_bytes = 1_000 }
  in
  let keyed = W.Keyed_gen.paper_config ~n_tuples:30_000 (W.Keyed_gen.pareto ~n_keys:100) in
  [ { name = "spam";
      program = Pr.Spam_workflow.program Pr.Spam_workflow.default_params;
      tables =
        [ ("emails_raw", W.Email_gen.emails ~seed emails);
          ("blacklist_raw", W.Email_gen.blacklist ~seed emails) ] };
    { name = "kmeans";
      (* a fixed iteration count: convergence would make the op's work
         depend on the seed's data *)
      program = Pr.Kmeans.program { Pr.Kmeans.default_params with epsilon = -1.0; max_iters = 10 };
      tables =
        [ ("points", W.Points_gen.points ~seed points);
          ("centroids0", W.Points_gen.initial_centroids ~seed points) ] };
    { name = "pagerank";
      program = Pr.Pagerank.program (Pr.Pagerank.default_params ~n_pages:260);
      tables = [ ("vertices", W.Graph_gen.adjacency ~seed graph) ] };
    { name = "cc";
      program = Pr.Connected_components.program Pr.Connected_components.default_params;
      tables = [ ("vertices", W.Graph_gen.undirected_adjacency ~seed cc_graph) ] };
    { name = "q1";
      program = Pr.Tpch_q1.program Pr.Tpch_q1.default_params;
      tables = [ ("lineitem", lineitem) ] };
    { name = "q3";
      program = Pr.Tpch_q3.program Pr.Tpch_q3.default_params;
      tables = [ ("customer", customer); ("orders", orders); ("lineitem", lineitem) ] };
    { name = "q4";
      program = Pr.Tpch_q4.program Pr.Tpch_q4.default_params;
      tables = [ ("orders", orders); ("lineitem", lineitem) ] };
    { name = "group-min";
      program = Pr.Group_min.program Pr.Group_min.default_params;
      tables = [ ("dataset", W.Keyed_gen.tuples ~seed keyed) ] } ]

let batch_names = [ "spam"; "kmeans"; "pagerank"; "cc"; "q1"; "q3"; "q4"; "group-min" ]

(* The small built-in queries `emma serve` offers by default. *)
let serve ~seed =
  let lineitem, orders, customer = tpch ~seed 0.001 in
  let g = Emma_util.Prng.create seed in
  let vocab = [| "emma"; "bag"; "fold"; "join"; "group"; "plan"; "cache"; "lane" |] in
  let docs =
    List.init 200 (fun _ ->
        String.concat " "
          (List.init 8 (fun _ -> vocab.(Emma_util.Prng.int_in g 0 (Array.length vocab - 1)))))
  in
  let keyed = W.Keyed_gen.paper_config ~n_tuples:4_000 (W.Keyed_gen.uniform ~n_keys:64) in
  [ { name = "q1";
      program = Pr.Tpch_q1.program Pr.Tpch_q1.default_params;
      tables = [ ("lineitem", lineitem) ] };
    { name = "q3";
      program = Pr.Tpch_q3.program Pr.Tpch_q3.default_params;
      tables = [ ("customer", customer); ("orders", orders); ("lineitem", lineitem) ] };
    { name = "wordcount";
      program = Pr.Wordcount.program Pr.Wordcount.default_params;
      tables = [ ("docs", Pr.Wordcount.docs_of_strings docs) ] };
    { name = "group-min";
      program = Pr.Group_min.program Pr.Group_min.default_params;
      tables = [ ("dataset", W.Keyed_gen.tuples ~seed keyed) ] } ]

(* The expected value of a program, from the native DataBag evaluator:
   the source program run on the host, with no compiler involved. *)
let expected p = Emma.Eval.eval_program (Emma.Session.make_ctx p.tables) p.program

(* Value equality up to float rounding: the engine combines partial sums
   in another order than the native evaluator. Bags compare as sorted
   multisets. *)
let rec approx_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      x = y || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Vector x, Value.Vector y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun x y -> approx_equal (Value.float x) (Value.float y)) x y
  | Value.Tuple x, Value.Tuple y ->
      Array.length x = Array.length y && Array.for_all2 approx_equal x y
  | Value.Record x, Value.Record y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun (n, u) (m, v) -> String.equal n m && approx_equal u v) x y
  | Value.Option (Some x), Value.Option (Some y) -> approx_equal x y
  | Value.Bag x, Value.Bag y ->
      List.length x = List.length y
      && List.for_all2 approx_equal (List.sort Value.compare x) (List.sort Value.compare y)
  | _ -> Value.equal a b
