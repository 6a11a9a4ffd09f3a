(* Bags in union representation (paper §2.2.1, AlgBag-Union). The concrete
   tree shape is an implementation detail; all observations go through
   [fold], whose well-definedness conditions make the shape unobservable. *)

type 'a t =
  | Emp
  | Sng of 'a
  | Uni of 'a t * 'a t

let empty = Emp
let singleton x = Sng x

let union a b =
  match (a, b) with
  | Emp, b -> b
  | a, Emp -> a
  | a, b -> Uni (a, b)

let plus = union

(* The fold of a balanced union tree over [arr], without building it. The
   tree is balanced so that fold recursion depth is logarithmic, and
   [of_array] is this fold with the constructors, so [fold (of_array arr)]
   makes the same [single]/[union] calls in the same order. *)
let fold_array ~empty ~single ~union arr =
  let rec go lo hi =
    if hi - lo = 1 then single arr.(lo)
    else
      let mid = (lo + hi) / 2 in
      union (go lo mid) (go mid hi)
  in
  if Array.length arr = 0 then empty else go 0 (Array.length arr)

let of_array arr = fold_array ~empty:Emp ~single:singleton ~union arr

let of_list xs = of_array (Array.of_list xs)
let of_seq s = of_array (Array.of_seq s)

let fold ~empty ~single ~union xs =
  let rec go = function
    | Emp -> empty
    | Sng x -> single x
    | Uni (l, r) -> union (go l) (go r)
  in
  go xs

let to_list xs =
  (* Accumulator-based flatten: avoids quadratic list appends. *)
  let rec go acc = function
    | Emp -> acc
    | Sng x -> x :: acc
    | Uni (l, r) -> go (go acc r) l
  in
  go [] xs

let to_array xs = Array.of_list (to_list xs)
let to_seq xs = List.to_seq (to_list xs)

let map f xs = fold ~empty:Emp ~single:(fun x -> Sng (f x)) ~union xs
let flat_map f xs = fold ~empty:Emp ~single:f ~union xs
let filter p xs = fold ~empty:Emp ~single:(fun x -> if p x then Sng x else Emp) ~union xs

type ('k, 'v) grp = { key : 'k; values : 'v }

let group_by ?(cmp = Stdlib.compare) key xs =
  let elems = to_list xs in
  let tagged = List.map (fun x -> (key x, x)) elems in
  let sorted = List.stable_sort (fun (k1, _) (k2, _) -> cmp k1 k2) tagged in
  let rec split_groups = function
    | [] -> []
    | (k, x) :: rest ->
        let same, others = List.partition (fun (k', _) -> cmp k k' = 0) rest in
        { key = k; values = of_list (x :: List.map snd same) } :: split_groups others
  in
  of_list (split_groups sorted)

let minus ?(cmp = Stdlib.compare) xs ys =
  let remaining = ref (List.sort cmp (to_list ys)) in
  let cancel x =
    (* Remove one occurrence of [x] from the subtrahend if present. *)
    let rec go = function
      | [] -> None
      | y :: rest when cmp x y = 0 -> Some rest
      | y :: rest -> Option.map (fun r -> y :: r) (go rest)
    in
    match go !remaining with
    | Some rest ->
        remaining := rest;
        false
    | None -> true
  in
  of_list (List.filter cancel (to_list xs))

let distinct ?(cmp = Stdlib.compare) xs =
  let sorted = List.sort cmp (to_list xs) in
  let rec dedup = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: (y :: _ as rest) -> if cmp x y = 0 then dedup rest else x :: dedup rest
  in
  of_list (dedup sorted)

let size xs = fold ~empty:0 ~single:(fun _ -> 1) ~union:( + ) xs
let is_empty xs = fold ~empty:true ~single:(fun _ -> false) ~union:( && ) xs
let sum xs = fold ~empty:0.0 ~single:Fun.id ~union:( +. ) xs
let sum_int xs = fold ~empty:0 ~single:Fun.id ~union:( + ) xs
let sum_by f xs = fold ~empty:0.0 ~single:f ~union:( +. ) xs
let product xs = fold ~empty:1.0 ~single:Fun.id ~union:( *. ) xs
let count p xs = fold ~empty:0 ~single:(fun x -> if p x then 1 else 0) ~union:( + ) xs
let exists p xs = fold ~empty:false ~single:p ~union:( || ) xs
let for_all p xs = fold ~empty:true ~single:p ~union:( && ) xs

let opt_merge better a b =
  match (a, b) with
  | None, o | o, None -> o
  | Some x, Some y -> Some (if better x y then x else y)

let min_by f xs =
  let better (fx, _) (fy, _) = fx <= fy in
  fold ~empty:None ~single:(fun x -> Some (f x, x)) ~union:(opt_merge better) xs
  |> Option.map snd

let max_by f xs =
  let better (fx, _) (fy, _) = fx >= fy in
  fold ~empty:None ~single:(fun x -> Some (f x, x)) ~union:(opt_merge better) xs
  |> Option.map snd

let min_opt ?(cmp = Stdlib.compare) xs =
  fold ~empty:None ~single:Option.some ~union:(opt_merge (fun x y -> cmp x y <= 0)) xs

let max_opt ?(cmp = Stdlib.compare) xs =
  fold ~empty:None ~single:Option.some ~union:(opt_merge (fun x y -> cmp x y >= 0)) xs

let equal_as_bags ?(cmp = Stdlib.compare) xs ys =
  let a = List.sort cmp (to_list xs) and b = List.sort cmp (to_list ys) in
  List.length a = List.length b && List.for_all2 (fun x y -> cmp x y = 0) a b

let depth xs =
  let rec go = function
    | Emp | Sng _ -> 1
    | Uni (l, r) -> 1 + max (go l) (go r)
  in
  go xs

let rebalance_left xs =
  List.fold_left (fun acc x -> union acc (Sng x)) Emp (to_list xs)

let pp pp_elt ppf xs =
  Format.fprintf ppf "{{%a}}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_elt)
    (to_list xs)
