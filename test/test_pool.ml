(* Unit tests for the worker-Domain pool: parmap correctness on edge-case
   sizes, deterministic exception propagation that leaves the pool
   reusable, idempotent shutdown that joins every domain, and nested
   parmap (which must not deadlock thanks to caller participation) — plus
   a scheduling-adversarial layer for the work-stealing deques: random
   nested-parmap trees with random durations at 1/2/4/8 domains, random
   failure sets, a stolen-chunk exception case, a 1000-tiny-batch stress,
   and differential runs against a sequential left-to-right map. *)

module Pool = Emma_util.Pool

let with_pool domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let ints n = Array.init n Fun.id

let test_parmap_empty () =
  with_pool 4 (fun p ->
      Alcotest.(check (array int)) "empty in, empty out" [||]
        (Pool.parmap p (fun x -> x * 2) [||]))

let test_parmap_singleton () =
  with_pool 4 (fun p ->
      Alcotest.(check (array int)) "one element" [| 14 |]
        (Pool.parmap p (fun x -> x * 2) [| 7 |]))

let test_parmap_matches_sequential () =
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          List.iter
            (fun n ->
              let xs = ints n in
              Alcotest.(check (array int))
                (Printf.sprintf "%d domains, %d tasks" domains n)
                (Array.map (fun x -> (x * x) + 1) xs)
                (Pool.parmap p (fun x -> (x * x) + 1) xs))
            [ 0; 1; 2; 3; 7; 64; 257 ]))
    [ 1; 2; 4 ]

(* parmap must preserve index order, not completion order *)
let test_parmap_order_independent_of_timing () =
  with_pool 4 (fun p ->
      let xs = ints 50 in
      let slow_then_fast i =
        if i < 5 then (for _ = 0 to 200_000 do ignore (Sys.opaque_identity i) done);
        i * 10
      in
      Alcotest.(check (array int)) "index order preserved"
        (Array.map (fun i -> i * 10) xs)
        (Pool.parmap p slow_then_fast xs))

let test_float_results () =
  (* regression: the result array must be allocated compatibly with
     OCaml's unboxed float-array representation *)
  with_pool 2 (fun p ->
      Alcotest.(check (array (float 1e-9))) "float results" [| 0.5; 1.5; 2.5; 3.5 |]
        (Pool.parmap p (fun i -> float_of_int i +. 0.5) (ints 4)))

exception Boom of int

let test_exception_lowest_index () =
  with_pool 4 (fun p ->
      (* several tasks fail; the one a sequential left-to-right run would
         hit first must be the one re-raised *)
      let f i = if i mod 3 = 2 then raise (Boom i) else i in
      (match Pool.parmap p f (ints 20) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest failing index" 2 i);
      (* and the pool must remain fully usable afterwards *)
      Alcotest.(check (array int)) "pool reusable after exception"
        (Array.map succ (ints 100))
        (Pool.parmap p succ (ints 100)))

let test_exception_sequential_path () =
  (* the 1-domain fallback raises the same exception at the same index *)
  with_pool 1 (fun p ->
      match Pool.parmap p (fun i -> if i >= 1 then raise (Boom i) else i) (ints 5) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest failing index" 1 i)

let test_nested_parmap () =
  (* outer tasks each submit an inner batch; every worker can be blocked
     inside an outer task, so this deadlocks unless submitters drain their
     own batches *)
  with_pool 2 (fun p ->
      let inner j = Array.fold_left ( + ) 0 (Pool.parmap p (fun x -> x * j) (ints 10)) in
      let got = Pool.parmap p inner (ints 8) in
      Alcotest.(check (array int)) "nested totals"
        (Array.map (fun j -> 45 * j) (ints 8))
        got)

let test_deeply_nested_parmap () =
  with_pool 4 (fun p ->
      let rec depth d =
        if d = 0 then 1
        else Array.fold_left ( + ) 0 (Pool.parmap p (fun _ -> depth (d - 1)) (ints 3))
      in
      Alcotest.(check int) "3^4 leaves" 81 (depth 4))

let test_shutdown_idempotent () =
  let p = Pool.create ~domains:4 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* after shutdown the pool degrades to sequential execution rather than
     hanging on dead workers *)
  Alcotest.(check (array int)) "parmap after shutdown is sequential"
    (Array.map succ (ints 10))
    (Pool.parmap p succ (ints 10))

let test_shutdown_joins () =
  (* create/shutdown many pools; if shutdown leaked running domains this
     would exhaust the runtime's domain limit and Domain.spawn would raise *)
  for _ = 1 to 200 do
    let p = Pool.create ~domains:4 () in
    ignore (Pool.parmap p succ (ints 8));
    Pool.shutdown p
  done

let test_default_pool_switch () =
  let before = Pool.default_domains () in
  Fun.protect ~finally:(fun () -> Pool.set_default_domains before) @@ fun () ->
  Pool.set_default_domains 3;
  Alcotest.(check int) "size recorded" 3 (Pool.default_domains ());
  Alcotest.(check int) "pool built at that size" 3 (Pool.size (Pool.default ()));
  Pool.set_default_domains 1;
  Alcotest.(check int) "resize rebuilds" 1 (Pool.size (Pool.default ()))

(* ------------------------------------------------------------------ *)
(* Scheduling-adversarial suite                                         *)
(* ------------------------------------------------------------------ *)

(* Shared long-lived pools for the qcheck properties: stealing needs real
   worker domains, but creating pools per generated input would dominate
   the run. Shutdown is idempotent, so at_exit cleanup is safe. *)
let pool_at =
  let tbl = Hashtbl.create 4 in
  fun d ->
    match Hashtbl.find_opt tbl d with
    | Some p -> p
    | None ->
        let p = Pool.create ~domains:d () in
        Hashtbl.add tbl d p;
        at_exit (fun () -> Pool.shutdown p);
        p

let adversarial_domains = [ 1; 2; 4; 8 ]

(* Busy work whose duration the generators randomize: long enough that a
   worker can be mid-task while its deque is robbed, short enough that
   thousands of tasks stay fast. *)
let spin k =
  for _ = 1 to k * 40 do
    ignore (Sys.opaque_identity k)
  done

(* Random nested-parmap trees: inner nodes fan out through the pool under
   test (every level can steal from every other), leaves spin a random
   duration. The value is a pure function of the tree, so any scheduling
   divergence — a lost task, a duplicated steal, a misordered result —
   shows up against the sequential reference. *)
type tree = Leaf of int | Node of tree list

let rec tree_ref = function
  | Leaf k -> k
  | Node ts -> List.fold_left (fun acc t -> acc + tree_ref t) 0 ts

let rec tree_eval p = function
  | Leaf k ->
      spin k;
      k
  | Node ts ->
      Array.fold_left ( + ) 0
        (Pool.parmap p (tree_eval p) (Array.of_list ts))

let tree_gen =
  let open QCheck2.Gen in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then map (fun k -> Leaf k) (int_bound 60)
         else
           frequency
             [ (1, map (fun k -> Leaf k) (int_bound 60));
               (3, map (fun ts -> Node ts) (list_size (int_range 1 4) (self (n - 1))))
             ])

let test_random_trees_deterministic =
  Helpers.qcheck_case "random nested trees agree at 1/2/4/8 domains" ~count:60
    tree_gen (fun t ->
      let expect = tree_ref t in
      List.for_all (fun d -> tree_eval (pool_at d) t = expect) adversarial_domains)

(* Random failure sets: whichever domain observes a failure first — owner
   or thief — the exception propagated must be the one a sequential
   left-to-right run hits first, and the pool must stay usable. *)
let failure_gen =
  QCheck2.Gen.(
    pair (int_range 1 48) (list_size (int_range 1 6) (pair (int_bound 47) (int_bound 30))))

let test_random_failures_lowest_index =
  Helpers.qcheck_case "random failure sets raise the lowest index" ~count:60
    failure_gen (fun (n, fails) ->
      let fails = List.filter (fun (i, _) -> i < n) fails in
      let f i =
        match List.assoc_opt i fails with
        | Some delay ->
            spin delay;
            raise (Boom i)
        | None ->
            spin (i mod 7);
            i
      in
      List.for_all
        (fun d ->
          let p = pool_at d in
          let got =
            match Pool.parmap p f (ints n) with
            | rs -> `Ok (Array.to_list rs)
            | exception Boom i -> `Boom i
          in
          let expect =
            match fails with
            | [] -> `Ok (List.init n (fun i -> i))
            | _ :: _ -> `Boom (List.fold_left (fun a (i, _) -> min a i) max_int fails)
          in
          (* reusable immediately after, whatever happened *)
          got = expect
          && Pool.parmap p succ (ints 16) = Array.map succ (ints 16))
        adversarial_domains)

(* Differential against a sequential [Array.map], which runs left to right
   and so raises at the lowest failing index, the pool's contract: same
   batch, same outcome — results or exception choice. *)
let test_differential_vs_sequential =
  Helpers.qcheck_case "work-stealing pool ≡ left-to-right map" ~count:60 failure_gen
    (fun (n, fails) ->
      let fails = List.filter (fun (i, _) -> i < n) fails in
      let f i =
        match List.assoc_opt i fails with
        | Some delay ->
            spin delay;
            raise (Boom i)
        | None -> (i * i) + 1
      in
      let run map = match map f (ints n) with
        | rs -> `Ok (Array.to_list rs)
        | exception Boom i -> `Boom i
      in
      run Array.map = run (Pool.parmap (pool_at 4)))

(* Same property at 8 oversubscribed domains, where preemption makes the
   steal schedule maximally chaotic. *)
let test_differential_vs_sequential_8 =
  Helpers.qcheck_case "work-stealing pool ≡ left-to-right map (8 domains)" ~count:40
    failure_gen (fun (n, fails) ->
      let fails = List.filter (fun (i, _) -> i < n) fails in
      let f i =
        match List.assoc_opt i fails with
        | Some delay ->
            spin delay;
            raise (Boom i)
        | None -> i * 3
      in
      let run map = match map f (ints n) with
        | rs -> `Ok (Array.to_list rs)
        | exception Boom i -> `Boom i
      in
      run Array.map = run (Pool.parmap (pool_at 8)))

(* Random durations must never leak into result ORDER: parmap returns by
   task index, not completion order, whatever got stolen. *)
let durations_gen =
  QCheck2.Gen.(list_size (int_range 1 64) (int_bound 40))

let test_random_durations_preserve_order =
  Helpers.qcheck_case "random durations: results in index order" ~count:60
    durations_gen (fun durations ->
      let work = Array.of_list durations in
      let f i =
        spin work.(i);
        i * 1000
      in
      List.for_all
        (fun d ->
          Pool.parmap (pool_at d) f (ints (Array.length work))
          = Array.init (Array.length work) (fun i -> i * 1000))
        adversarial_domains)

(* The victim-order seed steers who steals what — it must never steer
   results or exception choice. *)
let seeded_at =
  let tbl = Hashtbl.create 4 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some p -> p
    | None ->
        let p = Pool.create ~seed ~domains:4 () in
        Hashtbl.add tbl seed p;
        at_exit (fun () -> Pool.shutdown p);
        p

let test_seed_invisible =
  Helpers.qcheck_case "victim-order seed never affects results" ~count:40
    failure_gen (fun (n, fails) ->
      let fails = List.filter (fun (i, _) -> i < n) fails in
      let f i =
        match List.assoc_opt i fails with
        | Some delay ->
            spin delay;
            raise (Boom i)
        | None -> i + 7
      in
      let run p = match Pool.parmap p f (ints n) with
        | rs -> `Ok (Array.to_list rs)
        | exception Boom i -> `Boom i
      in
      let reference = run (seeded_at 100) in
      List.for_all (fun seed -> run (seeded_at seed) = reference) [ 200; 300 ])

(* A slow first task parks the submitting domain while idle workers steal
   the tail; a failure in a stolen task must still lose to nothing — the
   lowest FAILING index wins, however early the steal observed its Boom. *)
let test_exception_in_stolen_chunk () =
  let p = pool_at 8 in
  let f i =
    if i = 0 then spin 2_000 (* pin the submitter: the tail gets stolen *)
    else if i = 5 then (spin 50; raise (Boom 5))
    else if i = 29 then raise (Boom 29);
    i
  in
  (match Pool.parmap p f (ints 32) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing index, not first observed" 5 i);
  Alcotest.(check (array int)) "pool reusable after failed batch"
    (Array.map succ (ints 64))
    (Pool.parmap p succ (ints 64))

(* Only a stolen-range task fails. *)
let test_exception_only_in_tail () =
  let p = pool_at 8 in
  let f i =
    if i = 0 then spin 2_000 else if i = 30 then raise (Boom 30);
    i
  in
  (match Pool.parmap p f (ints 32) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "tail failure propagates" 30 i);
  Alcotest.(check (array int)) "pool reusable"
    (Array.map succ (ints 8))
    (Pool.parmap p succ (ints 8))

(* 1000 tiny batches: the wakeup/sleep path (pending counter + broadcast)
   is exercised far more often than the steady-state steal path; a lost
   wakeup deadlocks, a stale batch pointer corrupts a later result. *)
let test_thousand_tiny_batches () =
  let p = pool_at 8 in
  for round = 1 to 1000 do
    let n = round mod 4 in
    let got = Pool.parmap p (fun i -> i + round) (ints n) in
    if got <> Array.map (fun i -> i + round) (ints n) then
      Alcotest.failf "round %d corrupted" round
  done

(* Every task of every batch is counted exactly once, stolen or not. *)
let test_tasks_counted_once () =
  let p = pool_at 8 in
  let before = (Pool.stats p).Pool.tasks_run in
  ignore (Pool.parmap p (fun i -> spin (i mod 11); i) (ints 64));
  let after = (Pool.stats p).Pool.tasks_run in
  Alcotest.(check int) "64 tasks claimed exactly once" 64 (after - before)

(* Steal statistics are cumulative and non-negative — the cursor the
   engine diffs against (Exec.account_steals) depends on monotonicity. *)
let test_stats_monotone () =
  let p = pool_at 8 in
  let s0 = Pool.stats p in
  ignore (Pool.parmap p (fun i -> spin (i mod 13); i) (ints 200));
  let s1 = Pool.stats p in
  Alcotest.(check bool) "tasks monotone" true (s1.Pool.tasks_run >= s0.Pool.tasks_run + 200);
  Alcotest.(check bool) "steals monotone" true (s1.Pool.steals >= s0.Pool.steals);
  Alcotest.(check bool) "misses monotone" true
    (s1.Pool.steal_misses >= s0.Pool.steal_misses);
  ignore (Pool.parmap p Fun.id (ints 10));
  let s2 = Pool.stats p in
  Alcotest.(check bool) "still monotone" true
    (s2.Pool.tasks_run >= s1.Pool.tasks_run + 10 && s2.Pool.steals >= s1.Pool.steals)

(* A big balanced batch: nothing skewed to win, nothing allowed to lose. *)
let test_large_balanced_batch () =
  let p = pool_at 8 in
  Alcotest.(check (array int)) "2000 tasks"
    (Array.init 2000 (fun i -> (i * 7) mod 1009))
    (Pool.parmap p (fun i -> (i * 7) mod 1009) (ints 2000))

(* Unboxed float results survive the stealing path too. *)
let test_float_results_stolen () =
  let p = pool_at 8 in
  Alcotest.(check (array (float 1e-9))) "float results under stealing"
    (Array.init 64 (fun i -> float_of_int i *. 0.25))
    (Pool.parmap p (fun i -> spin (i mod 5); float_of_int i *. 0.25) (ints 64))

(* An inner batch's failure surfaces through its outer task, and the
   OUTER batch then applies the lowest-index rule to its own indices. *)
let test_nested_failure_propagates () =
  let p = pool_at 4 in
  let inner outer_i inner_i =
    if outer_i >= 2 && inner_i = outer_i + 1 then raise (Boom (outer_i * 10 + inner_i));
    inner_i
  in
  let outer i = Array.fold_left ( + ) 0 (Pool.parmap p (inner i) (ints 8)) in
  (match Pool.parmap p outer (ints 6) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom v ->
      (* outer 2 is the lowest failing outer task; its inner batch fails
         first (and only) at inner index 3 *)
      Alcotest.(check int) "outer 2 / inner 3" 23 v);
  Alcotest.(check (array int)) "pool reusable after nested failure"
    (Array.map succ (ints 12))
    (Pool.parmap p succ (ints 12))

(* The tier-1 domain knob: honored up to 8, clamped above so a wild value
   cannot exhaust the runtime's domain limit. *)
let test_test_domains_clamped () =
  let ceiling = max 8 (Domain.recommended_domain_count ()) in
  Alcotest.(check bool) "within [1, ceiling]" true
    (Helpers.test_domains >= 1 && Helpers.test_domains <= ceiling)

let suite =
  [ ( "pool",
      [ Alcotest.test_case "parmap empty" `Quick test_parmap_empty;
        Alcotest.test_case "parmap singleton" `Quick test_parmap_singleton;
        Alcotest.test_case "parmap matches sequential" `Quick test_parmap_matches_sequential;
        Alcotest.test_case "order independent of timing" `Quick
          test_parmap_order_independent_of_timing;
        Alcotest.test_case "float results" `Quick test_float_results;
        Alcotest.test_case "exception: lowest index, pool reusable" `Quick
          test_exception_lowest_index;
        Alcotest.test_case "exception: sequential path agrees" `Quick
          test_exception_sequential_path;
        Alcotest.test_case "nested parmap" `Quick test_nested_parmap;
        Alcotest.test_case "deeply nested parmap" `Quick test_deeply_nested_parmap;
        Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        Alcotest.test_case "shutdown joins domains" `Quick test_shutdown_joins;
        Alcotest.test_case "default pool switch" `Quick test_default_pool_switch ] );
    ( "pool adversarial",
      [ test_random_trees_deterministic;
        test_random_failures_lowest_index;
        test_differential_vs_sequential;
        test_differential_vs_sequential_8;
        test_random_durations_preserve_order;
        test_seed_invisible;
        Alcotest.test_case "exception in stolen chunk" `Quick
          test_exception_in_stolen_chunk;
        Alcotest.test_case "exception only in stolen tail" `Quick
          test_exception_only_in_tail;
        Alcotest.test_case "nested failure propagates outer-lowest" `Quick
          test_nested_failure_propagates;
        Alcotest.test_case "1000 tiny batches" `Quick test_thousand_tiny_batches;
        Alcotest.test_case "large balanced batch" `Quick test_large_balanced_batch;
        Alcotest.test_case "float results under stealing" `Quick
          test_float_results_stolen;
        Alcotest.test_case "tasks counted exactly once" `Quick
          test_tasks_counted_once;
        Alcotest.test_case "steal stats monotone" `Quick test_stats_monotone;
        Alcotest.test_case "EMMA_TEST_DOMAINS clamped" `Quick
          test_test_domains_clamped ] ) ]
