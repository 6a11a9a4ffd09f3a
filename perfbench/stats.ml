(* Order statistics used by the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the [ceil (pct/100 * n)]-th smallest sample,
   computed in integers so that e.g. p90 of 110 samples is rank 99 exactly.
   A percentile is only reported when at least [min_beyond] samples lie
   above its rank; otherwise the tail it summarises is too thin to repeat. *)
let min_beyond = 10

let percentile (a : float array) ~pct =
  let n = Array.length a in
  if pct < 1 || pct > 100 then invalid_arg "Stats.percentile: pct out of 1..100";
  let rank = ((pct * n) + 99) / 100 in
  if n = 0 || n - rank < min_beyond then None else Some a.(rank - 1)

(* Arithmetic median (mean of the middle pair on even counts), as Python's
   [statistics.median]. *)
let median (a : float array) =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by Python's [statistics.quantiles (data, n=4)] (the default
   "exclusive" method), so spreads computed here agree with the ones a
   Python harness computes from the same values. *)
let quartiles (a : float array) =
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.0
  in
  (q 1, q 2, q 3)
