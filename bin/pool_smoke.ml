(* pool-smoke gate: a short scheduling stress of the domain pool at 8
   (oversubscribed) domains. Exercises the three properties the tier-1
   adversarial suite checks at length — nested-parmap deadlock freedom,
   deterministic lowest-index exception choice, and wakeup correctness
   over many tiny batches — plus a differential pass against a sequential
   left-to-right map. Any mismatch, unexpected exception, or hang
   (the alias runs under dune's timeout-free build, so a deadlock shows up
   as a wedged CI step) exits non-zero and fails `make pool-smoke`. *)

module Pool = Emma_util.Pool

exception Boom of int

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let ints n = Array.init n Fun.id

let spin k =
  for _ = 1 to k * 40 do
    ignore (Sys.opaque_identity k)
  done

(* nested trees: every level fans out through the same pool *)
let rec tree_sum p depth width =
  if depth = 0 then 1
  else
    Array.fold_left ( + ) 0
      (Pool.parmap p (fun i -> spin i; tree_sum p (depth - 1) width) (ints width))

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let () =
  let p = Pool.create ~domains:8 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  (* 1. nested parmap trees must terminate with the exact leaf count *)
  check "nested trees (depth 4, width 3)" (tree_sum p 4 3 = pow 3 4);
  check "nested trees (depth 2, width 8)" (tree_sum p 2 8 = pow 8 2);

  (* 2. 1000 tiny batches: wakeup/sleep churn, sizes 0-3 *)
  let tiny_ok = ref true in
  for round = 1 to 1000 do
    let n = round mod 4 in
    if Pool.parmap p (fun i -> i + round) (ints n)
       <> Array.map (fun i -> i + round) (ints n)
    then tiny_ok := false
  done;
  check "1000 tiny batches" !tiny_ok;

  (* 3. exception storm: random failure sets, lowest index must win and
     the pool must stay usable between storms *)
  let storm_ok = ref true in
  for round = 1 to 50 do
    let n = 16 + (round mod 17) in
    let f i = if (i + round) mod 5 = 0 then (spin i; raise (Boom i)) else i in
    let lowest =
      let rec go i = if (i + round) mod 5 = 0 then i else go (i + 1) in
      go 0
    in
    (match Pool.parmap p f (ints n) with
    | _ -> if lowest < n then storm_ok := false
    | exception Boom i -> if i <> lowest then storm_ok := false);
    if Pool.parmap p succ (ints 8) <> Array.map succ (ints 8) then storm_ok := false
  done;
  check "exception storm: lowest index, pool reusable" !storm_ok;

  (* 4. differential vs a sequential map: results, or the lowest failing
     index *)
  let diff_ok = ref true in
  for round = 1 to 20 do
    let n = 1 + (round * 7 mod 40) in
    let f i = if round mod 4 = 0 && i = n / 2 then raise (Boom i) else (i * i) + round in
    let run map = match map f (ints n) with
      | rs -> `Ok (Array.to_list rs)
      | exception Boom i -> `Boom i
    in
    if run Array.map <> run (Pool.parmap p) then diff_ok := false
  done;
  check "pool ≡ sequential map" !diff_ok;

  if !failures > 0 then begin
    Printf.printf "pool-smoke: %d FAILURE(S)\n" !failures;
    exit 1
  end;
  print_endline "pool-smoke: all checks passed"
