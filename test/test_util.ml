module Prng = Emma_util.Prng
module Vec = Emma_util.Vec
module Dist = Emma_util.Dist
module Tbl = Emma_util.Tbl

(* ---- PRNG ----------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_copy_independent () =
  let a = Prng.create 1 in
  let _ = Prng.next_int64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b);
  let _ = Prng.next_int64 a in
  (* advancing one does not affect the other *)
  let b1 = Prng.next_int64 b and b2 = Prng.next_int64 b in
  Alcotest.(check bool) "streams diverge independently" true (b1 <> b2)

let test_prng_split () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let prop_int_in_bounds =
  Helpers.qcheck_case "Prng.int stays in bounds" ~count:200
    QCheck2.Gen.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prop_int_in_range =
  Helpers.qcheck_case "Prng.int_in inclusive range" ~count:200
    QCheck2.Gen.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.create seed in
      let x = Prng.int_in rng lo (lo + span) in
      x >= lo && x <= lo + span)

let prop_unit_float_range =
  Helpers.qcheck_case "unit_float in [0,1)" ~count:200 QCheck2.Gen.small_int (fun seed ->
      let rng = Prng.create seed in
      let x = Prng.unit_float rng in
      x >= 0.0 && x < 1.0)

let test_gaussian_moments () =
  let rng = Prng.create 3 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Prng.gaussian rng ~mean:10.0 ~stddev:2.0) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n
  in
  Alcotest.(check bool) "mean ≈ 10" true (Float.abs (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev ≈ 2" true (Float.abs (sqrt var -. 2.0) < 0.1)

let test_pareto_min () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let x = Prng.pareto rng ~alpha:1.5 ~x_min:2.0 in
    if x < 2.0 then Alcotest.fail "pareto below x_min"
  done

let test_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

(* ---- Vec ------------------------------------------------------------ *)

let test_vec_ops () =
  let a = [| 1.0; 2.0 |] and b = [| 3.0; 4.0 |] in
  Alcotest.(check bool) "add" true (Vec.equal (Vec.add a b) [| 4.0; 6.0 |]);
  Alcotest.(check bool) "sub" true (Vec.equal (Vec.sub b a) [| 2.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "dot" 11.0 (Vec.dot a b);
  Alcotest.(check (float 1e-9)) "dist" (sqrt 8.0) (Vec.dist a b);
  Alcotest.(check bool) "scale" true (Vec.equal (Vec.scale 2.0 a) [| 2.0; 4.0 |]);
  Alcotest.(check bool) "div" true (Vec.equal (Vec.div_scalar b 2.0) [| 1.5; 2.0 |])

(* [dist] reports a mismatch under [sub]'s name: it is the norm of
   [sub a b]. *)
let test_vec_dim_mismatch () =
  let a = [| 1.0 |] and b = [| 1.0; 2.0 |] in
  List.iter
    (fun (name, f, expected) ->
      match f () with
      | () -> Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument m -> Alcotest.(check string) name expected m)
    [ ("add", (fun () -> ignore (Vec.add a b)), "Vec.add: dimension mismatch (1 vs 2)");
      ("sub", (fun () -> ignore (Vec.sub b a)), "Vec.sub: dimension mismatch (2 vs 1)");
      ("dist", (fun () -> ignore (Vec.dist a b)), "Vec.sub: dimension mismatch (1 vs 2)") ]

(* The kernels' reference definitions: each result is built by
   [Array.mapi]/[Array.map], and the distance is the norm of the
   difference, summed left to right. The kernels must agree bit for bit,
   signed zeros, infinities and NaNs included, and raise the same message on
   a dimension mismatch. *)
module Vec_ref = struct
  let check_dim a b name =
    if Array.length a <> Array.length b then
      invalid_arg
        (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a)
           (Array.length b))

  let add a b =
    check_dim a b "add";
    Array.mapi (fun i x -> x +. b.(i)) a

  let sub a b =
    check_dim a b "sub";
    Array.mapi (fun i x -> x -. b.(i)) a

  let scale c a = Array.map (fun x -> c *. x) a
  let div_scalar a c = Array.map (fun x -> x /. c) a

  let dist a b =
    let d = sub a b in
    let acc = ref 0.0 in
    for i = 0 to Array.length d - 1 do
      acc := !acc +. (d.(i) *. d.(i))
    done;
    sqrt !acc
end

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

(* Both return [eq]-equal results, or both raise [Invalid_argument] with
   the same message. *)
let agree eq f g =
  let run h = match h () with v -> Ok v | exception Invalid_argument m -> Error m in
  match (run f, run g) with
  | Ok x, Ok y -> eq x y
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* One NaN payload only: when both operands of [+.] or [*.] are NaNs,
   which payload survives depends on the operand order the code generator
   picks, which IEEE 754 leaves open and which no comparison, hash or
   printer can see. A NaN against a number, and the NaN an invalid
   operation makes, are deterministic and covered. *)
let float_gen =
  QCheck2.Gen.(
    frequency
      [ (6, float_range (-1e3) 1e3);
        (2, map (fun x -> if Float.is_nan x then nan else x) float);
        ( 2,
          oneofl
            [ 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float; Float.max_float; 1e-310 ] )
      ])

let prop_vec_kernels =
  let vec n = QCheck2.Gen.array_size (QCheck2.Gen.return n) float_gen in
  Helpers.qcheck_case "vec kernels match their reference bit for bit" ~count:500
    QCheck2.Gen.(
      int_range 0 9 >>= fun n ->
      int_range 0 9 >>= fun m ->
      let m = if m < 3 then n else m in
      quad (vec n) (vec n) (vec m) float_gen)
    (fun (a, b, c, s) ->
      List.for_all
        (fun (x, y) ->
          agree same_vec (fun () -> Vec.add x y) (fun () -> Vec_ref.add x y)
          && agree same_vec (fun () -> Vec.sub x y) (fun () -> Vec_ref.sub x y)
          && agree same_bits (fun () -> Vec.dist x y) (fun () -> Vec_ref.dist x y))
        [ (a, b); (a, c); (c, a) ]
      && agree same_vec (fun () -> Vec.scale s a) (fun () -> Vec_ref.scale s a)
      && agree same_vec (fun () -> Vec.div_scalar a s) (fun () -> Vec_ref.div_scalar a s))

(* ---- Dist ----------------------------------------------------------- *)

let test_dist_in_range () =
  let rng = Prng.create 6 in
  List.iter
    (fun d ->
      for _ = 1 to 500 do
        let k = Dist.draw d rng in
        if k < 0 || k >= 100 then Alcotest.failf "%s out of range: %d" (Dist.name d) k
      done)
    [ Dist.Uniform { n_keys = 100 };
      Dist.Gaussian { n_keys = 100; stddev_frac = 0.05 };
      Dist.Pareto { n_keys = 100; hot_frac = 0.35 } ]

let test_pareto_hot_key () =
  let rng = Prng.create 7 in
  let h = Dist.histogram (Dist.Pareto { n_keys = 100; hot_frac = 0.35 }) rng ~samples:20_000 in
  let frac0 = float_of_int h.(0) /. 20_000.0 in
  Alcotest.(check bool) "≈35% of draws on key 0" true (Float.abs (frac0 -. 0.35) < 0.03)

let test_uniform_flat () =
  let rng = Prng.create 8 in
  let h = Dist.histogram (Dist.Uniform { n_keys = 10 }) rng ~samples:50_000 in
  Array.iter
    (fun c ->
      let frac = float_of_int c /. 50_000.0 in
      Alcotest.(check bool) "each key ≈10%" true (Float.abs (frac -. 0.1) < 0.02))
    h

let test_gaussian_concentrated () =
  let rng = Prng.create 9 in
  let h = Dist.histogram (Dist.Gaussian { n_keys = 100; stddev_frac = 0.05 }) rng ~samples:20_000 in
  (* the central ±2σ band holds most of the mass *)
  let central = ref 0 in
  for k = 40 to 60 do
    central := !central + h.(k)
  done;
  Alcotest.(check bool) "mass concentrated around the center" true
    (float_of_int !central /. 20_000.0 > 0.9)

(* ---- Tbl ------------------------------------------------------------ *)

let test_tbl_render () =
  let s = Tbl.render ~title:"t" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "contains title" true (String.length s > 0);
  (* short rows are padded, long cells widen columns *)
  Alcotest.(check bool) "contains padded cell" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 8))

let suite =
  [ ( "util",
      [ Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
        Alcotest.test_case "prng split" `Quick test_prng_split;
        prop_int_in_bounds;
        prop_int_in_range;
        prop_unit_float_range;
        Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        Alcotest.test_case "pareto min" `Quick test_pareto_min;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "vec ops" `Quick test_vec_ops;
        Alcotest.test_case "vec dim mismatch" `Quick test_vec_dim_mismatch;
        prop_vec_kernels;
        Alcotest.test_case "dist in range" `Quick test_dist_in_range;
        Alcotest.test_case "pareto hot key ≈35%" `Quick test_pareto_hot_key;
        Alcotest.test_case "uniform flat" `Quick test_uniform_flat;
        Alcotest.test_case "gaussian concentrated" `Quick test_gaussian_concentrated;
        Alcotest.test_case "tbl render" `Quick test_tbl_render ] ) ]
