module Databag = Emma_databag.Databag
module Stateful_bag = Emma_databag.Stateful_bag

let bag_int = Alcotest.testable (Databag.pp Fmt.int) (Databag.equal_as_bags ~cmp:Int.compare)

let test_constructors () =
  Alcotest.check bag_int "of_list round trip"
    (Databag.of_list [ 1; 2; 3 ])
    (Databag.union (Databag.singleton 1) (Databag.of_list [ 2; 3 ]));
  Alcotest.(check int) "size" 3 (Databag.size (Databag.of_list [ 1; 1; 2 ]));
  Alcotest.(check bool) "empty is empty" true (Databag.is_empty Databag.empty);
  Alcotest.(check bool) "union with empty" true
    (Databag.equal_as_bags (Databag.union Databag.empty (Databag.singleton 5))
       (Databag.singleton 5))

let test_fold_aliases () =
  let xs = Databag.of_list [ 3.0; 5.0; 7.0 ] in
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Databag.sum xs);
  Alcotest.(check (float 1e-9)) "product" 105.0 (Databag.product xs);
  Alcotest.(check int) "count" 2 (Databag.count (fun x -> x > 4.0) xs);
  Alcotest.(check bool) "exists" true (Databag.exists (fun x -> x = 5.0) xs);
  Alcotest.(check bool) "forall" false (Databag.for_all (fun x -> x > 4.0) xs);
  Alcotest.(check (option (float 1e-9))) "min_by" (Some 3.0) (Databag.min_by Fun.id xs);
  Alcotest.(check (option (float 1e-9))) "max_by" (Some 7.0) (Databag.max_by Fun.id xs);
  Alcotest.(check (option (float 1e-9))) "min on empty" None (Databag.min_by Fun.id Databag.empty)

let test_monad_ops () =
  let xs = Databag.of_list [ 1; 2; 3 ] in
  Alcotest.check bag_int "map" (Databag.of_list [ 2; 4; 6 ]) (Databag.map (fun x -> 2 * x) xs);
  Alcotest.check bag_int "filter" (Databag.of_list [ 2; 3 ])
    (Databag.filter (fun x -> x > 1) xs);
  Alcotest.check bag_int "flat_map"
    (Databag.of_list [ 1; 1; 2; 2; 3; 3 ])
    (Databag.flat_map (fun x -> Databag.of_list [ x; x ]) xs)

let test_group_by () =
  let xs = Databag.of_list [ 1; 2; 3; 4; 5 ] in
  let groups = Databag.group_by (fun x -> x mod 2) xs in
  Alcotest.(check int) "two groups" 2 (Databag.size groups);
  let evens =
    Databag.to_list groups
    |> List.find (fun (g : (_, _) Databag.grp) -> g.key = 0)
  in
  Alcotest.check bag_int "even group values" (Databag.of_list [ 2; 4 ]) evens.values

let test_minus_distinct () =
  let xs = Databag.of_list [ 1; 1; 2; 3 ] in
  Alcotest.check bag_int "minus cancels one occurrence"
    (Databag.of_list [ 1; 3 ])
    (Databag.minus xs (Databag.of_list [ 1; 2; 9 ]));
  Alcotest.check bag_int "distinct" (Databag.of_list [ 1; 2; 3 ]) (Databag.distinct xs)

(* Fold well-definedness: the result must not depend on the union-tree
   shape when (e, s, u) satisfy the unit/assoc/comm equations. *)
let prop_fold_shape_independent =
  Helpers.qcheck_case "fold is union-tree-shape independent"
    QCheck2.Gen.(list_size (int_bound 30) (int_range (-100) 100))
    (fun xs ->
      let bag = Databag.of_list xs in
      let left_deep = Databag.rebalance_left bag in
      let fold b = Databag.fold ~empty:0 ~single:(fun x -> x) ~union:( + ) b in
      fold bag = fold left_deep
      && Databag.size bag = Databag.size left_deep
      && Databag.min_opt bag = Databag.min_opt left_deep)

(* [fold_array] must fold [of_array]'s tree without changing anything a
   fold can observe. The union here parenthesises, so it reveals the
   association; both callbacks log their calls, so the log reveals the
   call order. *)
type call = Single of int | Union of string * string

let folds_alike arr =
  let fold_with f =
    let log = ref [] in
    let single x =
      log := Single x :: !log;
      string_of_int x
    in
    let union a b =
      log := Union (a, b) :: !log;
      "(" ^ a ^ " " ^ b ^ ")"
    in
    let r = f ~empty:"e" ~single ~union in
    (r, List.rev !log)
  in
  let via_tree = fold_with (fun ~empty ~single ~union ->
      Databag.fold ~empty ~single ~union (Databag.of_array arr))
  in
  via_tree = fold_with (fun ~empty ~single ~union -> Databag.fold_array ~empty ~single ~union arr)

let test_fold_array_small () =
  for n = 0 to 64 do
    Alcotest.(check bool) (Printf.sprintf "size %d" n) true (folds_alike (Array.init n Fun.id))
  done

let prop_fold_array =
  Helpers.qcheck_case "fold_array = fold of_array (shape and call order)"
    QCheck2.Gen.(array_size (int_bound 3000) small_int)
    folds_alike

let prop_union_commutative =
  Helpers.qcheck_case "union is commutative up to bag equality"
    QCheck2.Gen.(pair (list_size (int_bound 10) small_int) (list_size (int_bound 10) small_int))
    (fun (xs, ys) ->
      let a = Databag.of_list xs and b = Databag.of_list ys in
      Databag.equal_as_bags (Databag.union a b) (Databag.union b a))

let prop_group_by_partitions =
  Helpers.qcheck_case "group_by partitions the input"
    QCheck2.Gen.(list_size (int_bound 20) (int_range 0 10))
    (fun xs ->
      let bag = Databag.of_list xs in
      let groups = Databag.group_by (fun x -> x mod 3) bag in
      let reassembled =
        Databag.to_list groups
        |> List.concat_map (fun (g : (_, _) Databag.grp) -> Databag.to_list g.values)
      in
      Databag.equal_as_bags bag (Databag.of_list reassembled)
      && Databag.to_list groups
         |> List.for_all (fun (g : (_, _) Databag.grp) ->
                Databag.for_all (fun x -> x mod 3 = g.key) g.values))

let prop_minus_size =
  Helpers.qcheck_case "minus multiset arithmetic"
    QCheck2.Gen.(pair (list_size (int_bound 15) (int_bound 5)) (list_size (int_bound 15) (int_bound 5)))
    (fun (xs, ys) ->
      let count v l = List.length (List.filter (Int.equal v) l) in
      let diff = Databag.to_list (Databag.minus (Databag.of_list xs) (Databag.of_list ys)) in
      List.for_all (fun v -> count v diff = max 0 (count v xs - count v ys)) [ 0; 1; 2; 3; 4; 5 ])

(* ---- StatefulBag ---------------------------------------------------- *)

type cell = { id : int; v : int }

let test_stateful_update () =
  let init = Databag.of_list [ { id = 1; v = 10 }; { id = 2; v = 20 } ] in
  let st = Stateful_bag.create ~key:(fun c -> c.id) init in
  let delta = Stateful_bag.update st (fun c -> if c.v > 15 then Some { c with v = 0 } else None) in
  Alcotest.(check int) "one change" 1 (Databag.size delta);
  Alcotest.(check (option int)) "state updated" (Some 0)
    (Option.map (fun c -> c.v) (Stateful_bag.find st 2));
  Alcotest.(check (option int)) "other unchanged" (Some 10)
    (Option.map (fun c -> c.v) (Stateful_bag.find st 1))

let test_stateful_messages () =
  let init = Databag.of_list [ { id = 1; v = 0 }; { id = 2; v = 0 } ] in
  let st = Stateful_bag.create ~key:(fun c -> c.id) init in
  let msgs = Databag.of_list [ (1, 5); (1, 7); (9, 100) ] in
  let delta =
    Stateful_bag.update_with_messages st ~msg_key:fst msgs (fun c (_, m) ->
        Some { c with v = c.v + m })
  in
  Alcotest.(check int) "one element changed (deduplicated in delta)" 1 (Databag.size delta);
  Alcotest.(check (option int)) "messages threaded" (Some 12)
    (Option.map (fun c -> c.v) (Stateful_bag.find st 1));
  Alcotest.(check (option int)) "unmatched message dropped" (Some 0)
    (Option.map (fun c -> c.v) (Stateful_bag.find st 2))

let test_stateful_duplicate_key () =
  let init = Databag.of_list [ { id = 1; v = 0 }; { id = 1; v = 1 } ] in
  match Stateful_bag.create ~key:(fun c -> c.id) init with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on duplicate keys"

let suite =
  [ ( "databag",
      [ Alcotest.test_case "constructors" `Quick test_constructors;
        Alcotest.test_case "fold aliases" `Quick test_fold_aliases;
        Alcotest.test_case "monad ops" `Quick test_monad_ops;
        Alcotest.test_case "group_by" `Quick test_group_by;
        Alcotest.test_case "minus/distinct" `Quick test_minus_distinct;
        prop_fold_shape_independent;
        Alcotest.test_case "fold_array sizes 0-64" `Quick test_fold_array_small;
        prop_fold_array;
        prop_union_commutative;
        prop_group_by_partitions;
        prop_minus_size ] );
    ( "stateful_bag",
      [ Alcotest.test_case "point-wise update" `Quick test_stateful_update;
        Alcotest.test_case "update with messages" `Quick test_stateful_messages;
        Alcotest.test_case "duplicate key rejected" `Quick test_stateful_duplicate_key ] ) ]
