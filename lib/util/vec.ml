type t = float array

let zeros n = Array.make n 0.0

let check_dim a b name =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

(* Each kernel fills a fresh [Array.create_float] in one loop: no closure
   and no temporary array, so the result is all it allocates. *)
let add a b =
  check_dim a b "add";
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    r.(i) <- a.(i) +. b.(i)
  done;
  r

let sub a b =
  check_dim a b "sub";
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    r.(i) <- a.(i) -. b.(i)
  done;
  r

let scale c a =
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    r.(i) <- c *. a.(i)
  done;
  r

let div_scalar a c =
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    r.(i) <- a.(i) /. c
  done;
  r

let dot a b =
  check_dim a b "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* The norm of [sub a b], summed in the same order, without building the
   difference; a mismatch reports [sub]'s name. *)
let dist a b =
  check_dim a b "sub";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a b
