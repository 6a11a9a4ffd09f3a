module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan

type stats = {
  records : int;
  bytes : int;
  part_bytes : int array;
  max_elem_bytes : int;
}

type t = {
  parts : Value.t list array;
  part_key : Plan.udf option;
  rmult : float;
  bmult : float;
  stats : stats Lazy.t;
}

(* One pass over every value: sizes each element once. *)
let compute_stats parts =
  let records = ref 0 and largest = ref 0 in
  let rec sum acc = function
    | [] -> acc
    | v :: rest ->
        incr records;
        let b = Value.byte_size v in
        if b > !largest then largest := b;
        sum (acc + b) rest
  in
  let part_bytes = Array.map (sum 0) parts in
  { records = !records;
    bytes = Array.fold_left ( + ) 0 part_bytes;
    part_bytes;
    max_elem_bytes = !largest }

let make ?part_key ~rmult ~bmult parts =
  { parts; part_key; rmult; bmult; stats = lazy (compute_stats parts) }

let nparts t = Array.length t.parts

let of_list ?(rmult = 1.0) ?(bmult = 1.0) ~nparts vs =
  let n = max 1 nparts in
  let parts = Array.make n [] in
  List.iteri (fun i v -> parts.(i mod n) <- v :: parts.(i mod n)) vs;
  make ~rmult ~bmult (Array.map List.rev parts)

(* Partition [r] of [of_list]'s layout, read by index stride from one
   shared array. *)
let round_robin ~nparts vs =
  let arr = Array.of_list vs in
  let len = Array.length arr in
  fun r ->
    let rec go i acc = if i < r then acc else go (i - nparts) (arr.(i) :: acc) in
    if len > r then go (r + ((len - 1 - r) / nparts * nparts)) [] else []

let with_mult ~rmult ~bmult t = { t with rmult; bmult }
let stats t = Lazy.force t.stats
let force_stats t = ignore (stats t)

let to_list t = List.concat (Array.to_list t.parts)
let records t = (stats t).records
let logical_records t = float_of_int (records t) *. t.rmult
let bytes t = float_of_int (stats t).bytes
let logical_bytes t = bytes t *. t.bmult
let part_bytes t = (stats t).part_bytes
let max_elem_bytes t = (stats t).max_elem_bytes

let co_partitioned t key =
  match t.part_key with
  | Some k -> Plan.udf_alpha_equal k key
  | None -> false

let union a b =
  let n = max (nparts a) (nparts b) in
  let part t i = if i < nparts t then t.parts.(i) else [] in
  make
    ~rmult:(Float.max a.rmult b.rmult)
    ~bmult:(Float.max a.bmult b.bmult)
    (Array.init n (fun i -> part a i @ part b i))
