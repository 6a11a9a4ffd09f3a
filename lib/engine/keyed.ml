(* Stdlib Hashtbl's layout, specialised to Value.t keys. The chain walks
   are top-level functions that take the key as an argument: a local
   [let rec] capturing the key would allocate a closure per lookup. *)

module Value = Emma_value.Value

type 'a bucket =
  | Empty
  | Cons of { mutable key : Value.t; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable buckets : 'a bucket array;  (* [||] until the first insertion *)
  initial : int;
}

let rec power_2_above x n =
  if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n = { size = 0; buckets = [||]; initial = power_2_above 16 n }
let length t = t.size

(* No binding is ever removed, so a table with no bindings has only
   empty buckets. A grown bucket array is dropped, not cleared: the next
   insertion makes one of the initial size, as in a fresh table. *)
let reset t =
  if t.size > 0 then begin
    if Array.length t.buckets = t.initial then Array.fill t.buckets 0 t.initial Empty
    else t.buckets <- [||];
    t.size <- 0
  end

(* [compare a b = 0], with the two commonest key shapes decided without
   the polymorphic compare: a different constructor never compares
   equal. *)
let equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | String x, String y -> String.equal x y
  | (Int _ | String _), _ | _, (Int _ | String _) -> false
  | _ -> compare a b = 0

let rec find_in key = function
  | Empty -> Empty
  | Cons c as cell -> if equal key c.key then cell else find_in key c.next

(* the binding of [key], whose hash is [h], or [Empty] *)
let find_hashed t h key =
  let b = t.buckets in
  let n = Array.length b in
  if n = 0 then Empty else find_in key b.(h land (n - 1))

let find_cell t key = find_hashed t (Hashtbl.hash key) key

(* Doubling, as Stdlib's in-place resize: old buckets in index order, each
   chain front to back, appended at the tail of its new bucket. *)
let rec rehash ndata tails mask = function
  | Empty -> ()
  | Cons c as cell ->
      let i = Hashtbl.hash c.key land mask in
      (match tails.(i) with Empty -> ndata.(i) <- cell | Cons tail -> tail.next <- cell);
      tails.(i) <- cell;
      rehash ndata tails mask c.next

let resize t =
  let odata = t.buckets in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty and tails = Array.make nsize Empty in
    t.buckets <- ndata;
    Array.iter (rehash ndata tails (nsize - 1)) odata;
    Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
  end

let insert t h key data =
  if Array.length t.buckets = 0 then t.buckets <- Array.make t.initial Empty;
  let b = t.buckets in
  let i = h land (Array.length b - 1) in
  b.(i) <- Cons { key; data; next = b.(i) };
  t.size <- t.size + 1;
  if t.size > Array.length b lsl 1 then resize t

let replace t key data =
  let h = Hashtbl.hash key in
  match find_hashed t h key with
  | Cons c ->
      c.key <- key;
      c.data <- data
  | Empty -> insert t h key data

let mem t key = match find_cell t key with Cons _ -> true | Empty -> false
let find_or t key default = match find_cell t key with Cons c -> c.data | Empty -> default

let upsert t key x ~init ~merge =
  let h = Hashtbl.hash key in
  match find_hashed t h key with
  | Cons c -> c.data <- merge c.data x
  | Empty -> insert t h key (init x)

let update t key x f =
  match find_cell t key with
  | Cons c -> (
      match f c.data x with
      | Some d as r ->
          c.data <- d;
          r
      | None -> None)
  | Empty -> None

let rec fold_chain f acc = function
  | Empty -> acc
  | Cons c -> fold_chain f (f c.key c.data acc) c.next

let rec fold_from f b i acc =
  if i = Array.length b then acc else fold_from f b (i + 1) (fold_chain f acc b.(i))

let fold f t init = fold_from f t.buckets 0 init

(* Not tail-recursive: a chain holds about two bindings on average. *)
let rec fold_chain_rev f acc = function
  | Empty -> acc
  | Cons c -> f c.key c.data (fold_chain_rev f acc c.next)

let rec fold_rev_from f b i acc =
  if i < 0 then acc else fold_rev_from f b (i - 1) (fold_chain_rev f acc b.(i))

let fold_rev f t init = fold_rev_from f t.buckets (Array.length t.buckets - 1) init

let rec iter_chain f = function
  | Empty -> ()
  | Cons c ->
      f c.key c.data;
      iter_chain f c.next

let iter f t =
  let b = t.buckets in
  for i = 0 to Array.length b - 1 do
    iter_chain f b.(i)
  done

let rec update_chain f acc = function
  | Empty -> acc
  | Cons c ->
      let acc =
        match f c.data with
        | Some d ->
            c.data <- d;
            d :: acc
        | None -> acc
      in
      update_chain f acc c.next

let update_all f t =
  let b = t.buckets in
  let acc = ref [] in
  for i = 0 to Array.length b - 1 do
    acc := update_chain f !acc b.(i)
  done;
  !acc

(* Fresh cells, same chain order: each copy is linked at the tail of the
   one before it. *)
let rec copy_tail prev = function
  | Empty -> ()
  | Cons { key; data; next } ->
      let cell = Cons { key; data; next = Empty } in
      (match prev with Cons p -> p.next <- cell | Empty -> assert false);
      copy_tail cell next

let copy_chain = function
  | Empty -> Empty
  | Cons { key; data; next } ->
      let head = Cons { key; data; next = Empty } in
      copy_tail head next;
      head

let copy t = { t with buckets = Array.map copy_chain t.buckets }
