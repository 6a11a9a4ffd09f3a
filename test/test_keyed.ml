(* Differential tests for [Keyed] against Stdlib [Hashtbl]: the engine's
   keyed operators emit their output by folding these tables, and later
   float folds associate in that order, so [Keyed] must fold, iterate,
   find and copy exactly as an unseeded [(Value.t, _) Hashtbl.t] built by
   the same calls. *)

module Value = Emma_value.Value
module Keyed = Emma_engine.Keyed

(* Keys of every [Value.t] shape, including floats that [compare] calls
   equal while their bits differ (0.0 and -0.0, every NaN), keys equal
   across indices (distinct objects, same value) and nested bags. *)
let key_of_index i =
  let j = i / 11 in
  match i mod 11 with
  | 0 -> Value.Int (j - 100)
  | 1 -> Value.String (string_of_int j)
  | 2 -> (
      match j mod 6 with
      | 0 -> Value.Float Float.nan
      | 1 -> Value.Float 0.0
      | 2 -> Value.Float (-0.0)
      | 3 -> Value.Float (Int64.float_of_bits 0x7FF0_0000_0000_0001L)
      | _ -> Value.Float (float_of_int j /. 4.0))
  | 3 -> Value.Tuple [| Value.Int j; Value.String "t" |]
  | 4 ->
      Value.Record
        [| ("a", Value.Int (j / 2)); ("b", Value.Float (if j mod 2 = 0 then 0.0 else -0.0)) |]
  | 5 -> Value.Option (if j mod 5 = 0 then None else Some (Value.Int j))
  | 6 -> Value.Vector [| float_of_int j; -0.0 |]
  | 7 -> Value.Bag [ Value.Int j; Value.Bag [ Value.String "x"; Value.Int (j mod 3) ] ]
  | 8 -> if j mod 3 = 0 then Value.Unit else Value.Bool (j mod 2 = 0)
  | 9 -> Value.Blob { bytes = j; tag = j mod 5 }
  | _ -> Value.Int (j mod 7)

type op =
  | Replace of int * int
  | Upsert of int * int
  | Update of int * int
  | Update_all of int
  | Probe of int

let merge v x = ((v * 31) + x) land 0xFFFF
let step v x = if (v + x) mod 3 = 0 then None else Some ((v + x) land 0xFFFF)

(* The same calls on both tables; [false] as soon as a result differs. *)
let apply keys kt (ht : (Value.t, int ref) Hashtbl.t) = function
  | Replace (i, x) ->
      Keyed.replace kt keys.(i) x;
      Hashtbl.replace ht keys.(i) (ref x);
      true
  | Upsert (i, x) ->
      Keyed.upsert kt keys.(i) x ~init:Fun.id ~merge;
      (match Hashtbl.find_opt ht keys.(i) with
      | Some r -> r := merge !r x
      | None -> Hashtbl.add ht keys.(i) (ref x));
      true
  | Update (i, x) ->
      let expected =
        match Hashtbl.find_opt ht keys.(i) with
        | None -> None
        | Some r ->
            let o = step !r x in
            Option.iter (fun v -> r := v) o;
            o
      in
      Keyed.update kt keys.(i) x step = expected
  | Update_all x ->
      let delta = ref [] in
      Hashtbl.iter
        (fun _ r ->
          match step !r x with
          | Some v ->
              r := v;
              delta := v :: !delta
          | None -> ())
        ht;
      Keyed.update_all (fun v -> step v x) kt = !delta
  | Probe i ->
      let k = keys.(i) in
      Keyed.mem kt k = Hashtbl.mem ht k
      && Keyed.find_or kt k (-1) = (match Hashtbl.find_opt ht k with Some r -> !r | None -> -1)

(* Both tables hold the very key objects the calls passed, so keys compare
   physically: a [replace] that kept the old key instead of the new one
   (say 0.0 for -0.0) shows up here. *)
let same_bindings kb hb =
  List.length kb = List.length hb && List.for_all2 (fun (k, v) (k', v') -> k == k' && v = v') kb hb

let keyed_fold kt = List.rev (Keyed.fold (fun k v acc -> (k, v) :: acc) kt [])
let keyed_iter kt =
  let l = ref [] in
  Keyed.iter (fun k v -> l := (k, v) :: !l) kt;
  List.rev !l

let stdlib_fold ht = List.rev (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ht [])
let stdlib_iter ht =
  let l = ref [] in
  Hashtbl.iter (fun k r -> l := (k, !r) :: !l) ht;
  List.rev !l

let matches kt ht =
  same_bindings (keyed_fold kt) (stdlib_fold ht)
  && same_bindings (keyed_iter kt) (stdlib_iter ht)

let op_gen ~pool =
  QCheck2.Gen.(
    let key = int_bound (pool - 1) and x = int_bound 1000 in
    frequency
      [ (3, map2 (fun i x -> Replace (i, x)) key x);
        (6, map2 (fun i x -> Upsert (i, x)) key x);
        (2, map2 (fun i x -> Update (i, x)) key x);
        (1, map (fun x -> Update_all x) x);
        (2, map (fun i -> Probe i) key) ])

(* Every call's result, then fold and iter order after the whole
   sequence, then [copy]: same order as the original, and detached from
   it both ways. *)
let differential ~initial ~pool ~max_ops ~count =
  Helpers.qcheck_case ~count
    (Printf.sprintf "Keyed = Hashtbl, initial size %d, up to %d calls" initial max_ops)
    (* shrinking a list of thousands of calls takes longer than reading it *)
    QCheck2.Gen.(no_shrink (list_size (int_range (max_ops * 3 / 4) max_ops) (op_gen ~pool)))
    (fun ops ->
      let keys = Array.init pool key_of_index in
      let kt = Keyed.create initial and ht = Hashtbl.create ~random:false initial in
      List.for_all (apply keys kt ht) ops
      && matches kt ht
      && Array.for_all (fun k -> apply keys kt ht (Probe k)) (Array.init pool Fun.id)
      &&
      let before = keyed_fold kt in
      let c = Keyed.copy kt in
      same_bindings (keyed_fold c) before
      && same_bindings (keyed_fold c) (stdlib_fold (Hashtbl.copy ht))
      && begin
           Array.iteri (fun i k -> if i mod 2 = 0 then Keyed.upsert c k 1 ~init:Fun.id ~merge) keys;
           ignore (Keyed.update_all (fun _ -> Some 0) kt);
           same_bindings (keyed_fold c)
             (let h = Hashtbl.copy ht in
              Hashtbl.filter_map_inplace (fun _ r -> Some (ref !r)) h;
              Array.iteri
                (fun i k ->
                  if i mod 2 = 0 then
                    match Hashtbl.find_opt h k with
                    | Some r -> r := merge !r 1
                    | None -> Hashtbl.add h k (ref 1))
                keys;
              stdlib_fold h)
           && List.for_all (fun (_, v) -> v = 0) (keyed_fold kt)
         end
      (* reset (grown or not, depending on the draw), then the same calls
         again: as a fresh Hashtbl built by them *)
      &&
      let ht = Hashtbl.create ~random:false initial in
      Keyed.reset kt;
      List.for_all (apply keys kt ht) ops && matches kt ht)

(* Sizes the engine passes today (64 for groupBy and aggBy, a partition's
   length for stateful bags, 16 for changed sets, 1024 for broadcast key
   sets), filled with a few keys and with enough to resize twice (past 4
   and past 8 times the initial bucket count). *)
let test_sizes () =
  List.iter
    (fun (initial, buckets) ->
      List.iter
        (fun n ->
          let kt = Keyed.create initial and ht = Hashtbl.create ~random:false initial in
          for i = 0 to n - 1 do
            let k = Value.Int i in
            Keyed.replace kt k i;
            Hashtbl.replace ht k (ref i)
          done;
          Alcotest.(check bool)
            (Printf.sprintf "create %d, %d keys: same order" initial n)
            true (matches kt ht))
        [ 1; 3; 9; 17; 40; (8 * buckets) + 7 ])
    [ (0, 16); (5, 16); (16, 16); (17, 32); (64, 64); (1024, 1024) ]

(* A table reset after it grew past two resizes, and one reset without
   growing, each fold (and fold in reverse) exactly like a fresh Hashtbl
   built by the same later calls: a first batch of keys, then after the
   reset a second, overlapping batch. *)
let test_reset () =
  List.iter
    (fun (initial, buckets) ->
      List.iter
        (fun (first, second) ->
          let kt = Keyed.create initial in
          for i = 0 to first - 1 do
            Keyed.replace kt (key_of_index i) i
          done;
          Keyed.reset kt;
          let ht = Hashtbl.create ~random:false initial in
          for i = 0 to second - 1 do
            let k = key_of_index ((i * 7) mod (first + second)) in
            Keyed.upsert kt k i ~init:Fun.id ~merge;
            match Hashtbl.find_opt ht k with
            | Some r -> r := merge !r i
            | None -> Hashtbl.add ht k (ref i)
          done;
          let name = Printf.sprintf "create %d, %d keys, reset, %d calls" initial first second in
          Alcotest.(check int) (name ^ ": length") (Hashtbl.length ht) (Keyed.length kt);
          Alcotest.(check bool) (name ^ ": same order") true (matches kt ht);
          Alcotest.(check bool)
            (name ^ ": fold_rev reverses fold")
            true
            (same_bindings
               (Keyed.fold_rev (fun k v acc -> (k, v) :: acc) kt [])
               (keyed_fold kt)))
        [ ((8 * buckets) + 7, 40);
          ((8 * buckets) + 7, (8 * buckets) + 3);
          (buckets / 2, 40);
          (buckets / 2, (8 * buckets) + 3);
          (0, 9) ])
    [ (16, 16); (64, 64) ]

(* An empty table has no buckets: creating and folding one allocates only
   its three-field header. *)
let test_empty_allocation () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty () =
    let t : int Keyed.t = Keyed.create 64 in
    ignore (Sys.opaque_identity (Keyed.fold (fun _ v acc -> v + acc) t 0))
  in
  ignore (words empty);
  let w = words empty -. words ignore in
  Alcotest.(check bool) (Printf.sprintf "empty table: %.0f <= 4 words" w) true (w <= 4.0)

let suite =
  [ ( "keyed",
      [ Alcotest.test_case "initial sizes and resizes" `Quick test_sizes;
        Alcotest.test_case "empty table allocates no buckets" `Quick test_empty_allocation;
        Alcotest.test_case "reset folds as a fresh table" `Quick test_reset;
        differential ~initial:16 ~pool:300 ~max_ops:400 ~count:100;
        differential ~initial:64 ~pool:1000 ~max_ops:1500 ~count:30;
        differential ~initial:1024 ~pool:12000 ~max_ops:16000 ~count:5 ] ) ]
