module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module P = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Pdata = Emma_engine.Pdata

(* ---- Plan helpers ---------------------------------------------------- *)

let key_udf field = P.udf_of_expr (Expr.Lam ("x", Expr.Field (Expr.Var "x", field)))

let test_udf_alpha_equal () =
  let a = P.udf_of_expr (Expr.Lam ("x", Expr.Field (Expr.Var "x", "ip"))) in
  let b = P.udf_of_expr (Expr.Lam ("y", Expr.Field (Expr.Var "y", "ip"))) in
  let c = P.udf_of_expr (Expr.Lam ("x", Expr.Field (Expr.Var "x", "id"))) in
  Alcotest.(check bool) "alpha-equal keys" true (P.udf_alpha_equal a b);
  Alcotest.(check bool) "different fields differ" false (P.udf_alpha_equal a c)

let test_udf_eta_expansion () =
  (* a non-lambda UDF argument is eta-expanded *)
  let u = P.udf_of_expr (Expr.Var "f") in
  match u.P.body with
  | Expr.App (Expr.Var "f", Expr.Var p) when p = u.P.param -> ()
  | _ -> Alcotest.fail "expected eta expansion"

let test_result_kind () =
  let fold_fns =
    Expr.
      { f_empty = Const (Value.Int 0);
        f_single = Lam ("x", Var "x");
        f_union = Lam ("a", Lam ("b", Prim (Emma_lang.Prim.Add, [ Var "a"; Var "b" ])));
        f_tag = Tag_sum }
  in
  Alcotest.(check bool) "read is a bag" true (P.result_kind (P.Read "t") = P.Rbag);
  Alcotest.(check bool) "fold is scalar" true
    (P.result_kind (P.Fold (fold_fns, P.Read "t")) = P.Rscalar);
  Alcotest.(check bool) "cache preserves kind" true
    (P.result_kind (P.Cache (P.Read "t")) = P.Rbag);
  Alcotest.(check bool) "stateful create" true
    (P.result_kind (P.Stateful_create { key = key_udf "id"; init = P.Read "t" }) = P.Rstateful)

let test_scanned_and_counts () =
  let p =
    P.Union (P.Scan "a", P.Filter (key_udf "f", P.Scan "b"))
  in
  Alcotest.(check (list string)) "scans collected" [ "a"; "b" ]
    (List.sort compare (P.scanned_vars p));
  Alcotest.(check int) "node count" 4 (P.node_count p)

let test_plan_pp_total () =
  (* the printer must handle every constructor without raising *)
  let fns =
    Expr.
      { f_empty = Const (Value.Int 0);
        f_single = Lam ("x", Var "x");
        f_union = Lam ("a", Lam ("b", Var "a"));
        f_tag = Tag_generic }
  in
  let plans =
    [ P.Read "t"; P.Scan "x"; P.Local (Expr.BagOf []);
      P.Map (key_udf "f", P.Read "t");
      P.Flat_map (key_udf "f", P.Read "t");
      P.Filter (key_udf "f", P.Read "t");
      P.Join { kind = P.Inner; lkey = key_udf "k"; rkey = key_udf "k"; left = P.Read "a"; right = P.Read "b" };
      P.Join { kind = P.Semi; lkey = key_udf "k"; rkey = key_udf "k"; left = P.Read "a"; right = P.Read "b" };
      P.Join { kind = P.Anti; lkey = key_udf "k"; rkey = key_udf "k"; left = P.Read "a"; right = P.Read "b" };
      P.Cross (P.Read "a", P.Read "b");
      P.Group_by (key_udf "k", P.Read "t");
      P.Agg_by { key = key_udf "k"; fold = fns; input = P.Read "t" };
      P.Fold (fns, P.Read "t");
      P.Union (P.Read "a", P.Read "b");
      P.Minus (P.Read "a", P.Read "b");
      P.Distinct (P.Read "t");
      P.Cache (P.Read "t");
      P.Partition_by (key_udf "k", P.Read "t");
      P.Stateful_create { key = key_udf "id"; init = P.Read "t" };
      P.Stateful_read "s";
      P.Stateful_update { state = "s"; udf = key_udf "f" };
      P.Stateful_update_msgs
        { state = "s";
          msg_key = key_udf "id";
          messages = P.Read "m";
          udf = P.udf2_of_expr (Expr.Lam ("a", Expr.Lam ("b", Expr.Var "a"))) } ]
  in
  List.iter (fun p -> Alcotest.(check bool) "prints" true (String.length (P.to_string p) > 0)) plans

let test_cprog_pp_and_helpers () =
  let rhs = Cprog.rhs_of_plan (P.Read "t") in
  Alcotest.(check bool) "plan_of_rhs round trip" true
    (match Cprog.plan_of_rhs rhs with Some (P.Read "t") -> true | _ -> false);
  let prog =
    Cprog.
      { cbody =
          [ CLet ("x", rhs);
            CWhile (rhs_of_expr (Expr.Const (Value.Bool false)), [ CAssign ("x", rhs) ]) ];
        cret = Cprog.rhs_of_expr (Expr.Var "x") }
  in
  Alcotest.(check bool) "cprog prints" true (String.length (Cprog.to_string prog) > 0);
  let depths = ref [] in
  Cprog.iter_stmts_with_depth (fun d _ -> depths := d :: !depths) prog;
  Alcotest.(check (list int)) "loop body depth" [ 0; 0; 1 ] (List.sort compare !depths)

(* ---- Pdata ----------------------------------------------------------- *)

let test_pdata_roundtrip () =
  let vs = List.init 10 Value.int in
  let pd = Pdata.of_list ~nparts:4 vs in
  Alcotest.(check int) "4 partitions" 4 (Pdata.nparts pd);
  Alcotest.(check int) "records" 10 (Pdata.records pd);
  Helpers.check_bag "round trip" vs (Pdata.to_list pd)

let test_pdata_mult_propagation () =
  let vs = List.init 8 Value.int in
  let pd = Pdata.of_list ~rmult:10.0 ~bmult:20.0 ~nparts:2 vs in
  Alcotest.(check (float 1e-9)) "logical records" 80.0 (Pdata.logical_records pd);
  Alcotest.(check (float 1e-9)) "logical bytes" (20.0 *. Pdata.bytes pd) (Pdata.logical_bytes pd);
  let u = Pdata.union pd (Pdata.of_list ~nparts:2 vs) in
  Alcotest.(check (float 1e-9)) "union takes max" 10.0 u.Pdata.rmult

let test_pdata_key_property () =
  let key = P.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
  let home = abs (Value.hash (Value.int 1)) mod 2 in
  let parts = Array.init 2 (fun i -> if i = home then [ Value.int 1 ] else []) in
  let pd = Pdata.make ~part_key:key ~rmult:1.0 ~bmult:1.0 parts in
  Alcotest.(check bool) "make without a key" false
    (Pdata.co_partitioned (Pdata.make ~rmult:1.0 ~bmult:1.0 parts) key);
  Alcotest.(check bool) "make ~part_key keeps key" true (Pdata.co_partitioned pd key);
  Alcotest.(check bool) "union clears key" false
    (Pdata.co_partitioned (Pdata.union pd pd) key)

(* ---- Cached stats ----------------------------------------------------- *)

(* Values of every size class: blobs (declared sizes), nested bags,
   vectors, tuples, strings and scalars. *)
let value_gen =
  QCheck2.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Value.unit;
                 map Value.bool bool;
                 map Value.int (int_range (-50) 50);
                 map Value.string (string_size (int_bound 8));
                 map (fun b -> Value.blob ~bytes:b ~tag:0) (int_bound 100_000);
                 map (fun l -> Value.vector (Array.of_list l)) (list_size (int_bound 5) float) ]
           in
           if n <= 0 then leaf
           else
             frequency
               [ (3, leaf);
                 (1, map Value.bag (list_size (int_bound 4) (self (n - 1))));
                 (1, map Value.tuple (list_size (int_bound 3) (self (n - 1)))) ]))

(* Partition arrays with empty partitions among them. *)
let parts_gen =
  QCheck2.Gen.(
    map Array.of_list
      (list_size (int_range 1 6)
         (frequency [ (1, return []); (3, list_size (int_bound 6) value_gen) ])))

(* The walks the stats replace, exactly as the engine used to do them. *)
let walk_part_bytes (pd : Pdata.t) =
  Array.map
    (fun p -> List.fold_left (fun acc v -> acc +. float_of_int (Value.byte_size v)) 0.0 p)
    pd.Pdata.parts

let walk_largest (pd : Pdata.t) =
  Array.fold_left
    (fun acc part ->
      List.fold_left (fun acc v -> max acc (float_of_int (Value.byte_size v))) acc part)
    0.0 pd.Pdata.parts

let walk_records (pd : Pdata.t) =
  Array.fold_left (fun acc p -> acc + List.length p) 0 pd.Pdata.parts

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let stats_match (pd : Pdata.t) =
  let walked = walk_part_bytes pd in
  let bytes = Array.fold_left ( +. ) 0.0 walked in
  Pdata.records pd = walk_records pd
  && Pdata.part_bytes pd |> Array.map float_of_int |> Array.for_all2 same_float walked
  && same_float (float_of_int (Pdata.max_elem_bytes pd)) (walk_largest pd)
  && same_float (Pdata.bytes pd) bytes
  && same_float (Pdata.logical_bytes pd) (bytes *. pd.Pdata.bmult)
  && same_float (Pdata.logical_records pd) (float_of_int (walk_records pd) *. pd.Pdata.rmult)

(* [of_list]'s layout with the partitions sliced on the domain pool, as
   the engine builds a large [Read] or driver bag. *)
let pooled_round_robin pool nparts vs =
  Emma_util.Pool.parinit pool nparts (Pdata.round_robin ~nparts vs)

let test_round_robin_layout =
  Helpers.qcheck_case ~count:200 "round_robin slices on the pool = of_list layout"
    QCheck2.Gen.(pair (int_range 1 9) (list_size (int_bound 40) (map Value.int small_int)))
    (fun (n, vs) ->
      let expected = (Pdata.of_list ~nparts:n vs).Pdata.parts in
      pooled_round_robin (Emma_util.Pool.default ()) n vs = expected)

(* Every way to build a collection, applied to two random inputs. *)
let constructions (parts, parts') =
  let pool = Emma_util.Pool.default () in
  let vs = List.concat (Array.to_list parts) in
  let n = Array.length parts in
  let key = key_udf "k" in
  let fresh () = Pdata.make ~rmult:3.0 ~bmult:1.5 parts in
  let forced () =
    let pd = fresh () in
    Pdata.force_stats pd;
    pd
  in
  let other () =
    Pdata.of_list ~bmult:2.0 ~nparts:(n + 1) (List.concat (Array.to_list parts'))
  in
  [ ("make", fresh ());
    ("of_list", Pdata.of_list ~rmult:2.0 ~bmult:4.0 ~nparts:n vs);
    ("round_robin pooled", Pdata.make ~rmult:2.0 ~bmult:4.0 (pooled_round_robin pool n vs));
    ("make ~part_key", Pdata.make ~part_key:key ~rmult:3.0 ~bmult:1.5 parts);
    ("union", Pdata.union (fresh ()) (other ()));
    ("with_mult", Pdata.with_mult ~rmult:7.0 ~bmult:0.25 (forced ()));
    ("with_mult unforced", Pdata.with_mult ~rmult:7.0 ~bmult:0.25 (fresh ())) ]

let test_stats_equal_walk =
  Helpers.qcheck_case ~count:200 "cached stats == a fresh walk"
    QCheck2.Gen.(pair parts_gen parts_gen)
    (fun inputs ->
      List.for_all
        (fun (name, pd) -> stats_match pd || QCheck2.Test.fail_reportf "%s: stats differ" name)
        (constructions inputs))

let suite =
  [ ( "plan",
      [ Alcotest.test_case "udf alpha equality" `Quick test_udf_alpha_equal;
        Alcotest.test_case "udf eta expansion" `Quick test_udf_eta_expansion;
        Alcotest.test_case "result kinds" `Quick test_result_kind;
        Alcotest.test_case "scans and counts" `Quick test_scanned_and_counts;
        Alcotest.test_case "plan printer total" `Quick test_plan_pp_total;
        Alcotest.test_case "cprog helpers" `Quick test_cprog_pp_and_helpers ] );
    ( "pdata",
      [ Alcotest.test_case "round trip" `Quick test_pdata_roundtrip;
        Alcotest.test_case "multiplier propagation" `Quick test_pdata_mult_propagation;
        Alcotest.test_case "key property" `Quick test_pdata_key_property;
        test_round_robin_layout;
        test_stats_equal_walk ] ) ]
