type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Tuple of t array
  | Record of (string * t) array
  | Option of t option
  | Vector of float array
  | Bag of t list
  | Blob of { bytes : int; tag : int }

exception Type_error of string

let type_name = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Tuple _ -> "tuple"
  | Record _ -> "record"
  | Option _ -> "option"
  | Vector _ -> "vector"
  | Bag _ -> "bag"
  | Blob _ -> "blob"

let type_error expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (type_name v)))

let unit = Unit
let vtrue = Bool true
let vfalse = Bool false
let bool b = if b then vtrue else vfalse
let int n = Int n
let float f = Float f
let string s = String s
let tuple vs = Tuple (Array.of_list vs)
let record fields = Record (Array.of_list fields)
let some v = Option (Some v)
let none = Option None
let vector a = Vector a
let bag vs = Bag vs
let blob ~bytes ~tag = Blob { bytes; tag }

let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_int = function Int n -> n | v -> type_error "int" v
let to_float = function Float f -> f | v -> type_error "float" v

let to_number = function
  | Int n -> float_of_int n
  | Float f -> f
  | v -> type_error "number" v

let to_string_exn = function String s -> s | v -> type_error "string" v
let to_bag = function Bag vs -> vs | v -> type_error "bag" v
let to_vector = function Vector a -> a | v -> type_error "vector" v
let to_option = function Option o -> o | v -> type_error "option" v

let proj v i =
  match v with
  | Tuple a when i >= 0 && i < Array.length a -> a.(i)
  | Tuple a ->
      raise (Type_error (Printf.sprintf "tuple projection .%d out of bounds (arity %d)" i (Array.length a)))
  | v -> type_error "tuple" v

let rec field_slot fields name i =
  if i >= Array.length fields then -1
  else if String.equal (fst fields.(i)) name then i
  else field_slot fields name (i + 1)

let no_field name = raise (Type_error (Printf.sprintf "record has no field %S" name))

let field v name =
  match v with
  | Record fields ->
      let i = field_slot fields name 0 in
      if i < 0 then no_field name else snd fields.(i)
  | v -> type_error "record" v

let field_hinted hint v name =
  match v with
  | Record fields ->
      (* One read of the hint: a concurrent rewrite can make it stale,
         which costs a rescan, never a wrong field. *)
      let i = !hint in
      if i >= 0 && i < Array.length fields && String.equal (fst fields.(i)) name then
        snd fields.(i)
      else begin
        let j = field_slot fields name 0 in
        if j < 0 then no_field name;
        hint := j;
        snd fields.(j)
      end
  | v -> type_error "record" v

let set_field v name fv =
  match v with
  | Record fields ->
      if not (Array.exists (fun (n, _) -> String.equal n name) fields) then
        raise (Type_error (Printf.sprintf "record has no field %S" name));
      Record (Array.map (fun (n, old) -> if String.equal n name then (n, fv) else (n, old)) fields)
  | v -> type_error "record" v

(* Constructor rank for the total order across different shapes. *)
let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4
  | Tuple _ -> 5
  | Record _ -> 6
  | Option _ -> 7
  | Vector _ -> 8
  | Bag _ -> 9
  | Blob _ -> 10

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Tuple x, Tuple y -> compare_arrays x y
  | Record x, Record y -> compare_fields x y
  | Option None, Option None -> 0
  | Option None, Option (Some _) -> -1
  | Option (Some _), Option None -> 1
  | Option (Some x), Option (Some y) -> compare x y
  | Vector x, Vector y -> compare_float_arrays x y
  | Bag x, Bag y ->
      (* Bags are unordered: compare as sorted multisets. *)
      compare_lists (List.sort compare x) (List.sort compare y)
  | Blob x, Blob y ->
      let c = Int.compare x.bytes y.bytes in
      if c <> 0 then c else Int.compare x.tag y.tag
  | _ -> Int.compare (rank a) (rank b)

and compare_arrays x y =
  let c = Int.compare (Array.length x) (Array.length y) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length x then 0
      else
        let c = compare x.(i) y.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

and compare_fields x y =
  let c = Int.compare (Array.length x) (Array.length y) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length x then 0
      else
        let nx, vx = x.(i) and ny, vy = y.(i) in
        let c = String.compare nx ny in
        if c <> 0 then c
        else
          let c = compare vx vy in
          if c <> 0 then c else go (i + 1)
    in
    go 0

and compare_float_arrays x y =
  let c = Int.compare (Array.length x) (Array.length y) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length x then 0
      else
        let c = Float.compare x.(i) y.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

and compare_lists x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | a :: x', b :: y' ->
      let c = compare a b in
      if c <> 0 then c else compare_lists x' y'

let equal a b = compare a b = 0

let combine h1 h2 = (h1 * 31) + h2

let rec hash v =
  match v with
  | Unit -> 17
  | Bool b -> if b then 23 else 29
  | Int n -> combine 3 (Hashtbl.hash n)
  | Float f -> combine 5 (Hashtbl.hash f)
  | String s -> combine 7 (Hashtbl.hash s)
  | Tuple a -> Array.fold_left (fun acc x -> combine acc (hash x)) 11 a
  | Record fields ->
      Array.fold_left (fun acc (n, x) -> combine (combine acc (Hashtbl.hash n)) (hash x)) 13 fields
  | Option None -> 37
  | Option (Some x) -> combine 41 (hash x)
  | Vector a -> Array.fold_left (fun acc x -> combine acc (Hashtbl.hash x)) 43 a
  | Bag vs ->
      (* Order-independent: sum of element hashes. *)
      List.fold_left (fun acc x -> acc + hash x) 47 vs
  | Blob { bytes; tag } -> combine (combine 53 bytes) tag

let rec byte_size = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 8
  | String s -> 8 + String.length s
  | Tuple a -> Array.fold_left (fun acc v -> acc + byte_size v) 8 a
  | Record fields -> Array.fold_left (fun acc (_, v) -> acc + byte_size v) 8 fields
  | Option None -> 1
  | Option (Some v) -> 1 + byte_size v
  | Vector a -> 8 + (8 * Array.length a)
  | Bag vs -> List.fold_left (fun acc v -> acc + byte_size v) 16 vs
  | Blob { bytes; _ } -> bytes

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s
  | Tuple a -> Fmt.pf ppf "(%a)" pp_comma_array a
  | Record fields ->
      Fmt.pf ppf "{%a}"
        (Fmt.array ~sep:(Fmt.any ", ") (fun ppf (n, v) -> Fmt.pf ppf "%s=%a" n pp v))
        fields
  | Option None -> Fmt.string ppf "None"
  | Option (Some v) -> Fmt.pf ppf "Some %a" pp v
  | Vector a -> Fmt.pf ppf "vec[%a]" (Fmt.array ~sep:(Fmt.any "; ") Fmt.float) a
  | Bag vs -> Fmt.pf ppf "{{%a}}" (Fmt.list ~sep:(Fmt.any ", ") pp) vs
  | Blob { bytes; tag } -> Fmt.pf ppf "<blob#%d:%dB>" tag bytes

and pp_comma_array ppf a = Fmt.array ~sep:(Fmt.any ", ") pp ppf a

let to_display v = Fmt.str "%a" pp v
