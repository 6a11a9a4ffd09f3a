(* Tests of the benchmark's own helpers: percentiles, quartiles and the
   allocation count. *)

module Stats = Perfbench.Stats
module Alloc = Perfbench.Alloc

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close a b = Float.abs (a -. b) < 1e-12

let samples n = Stats.sorted (List.init n (fun i -> float (n - i)))

let percentiles () =
  (* nearest rank: p90 of 1..100 is the 90th smallest, with exactly 10
     samples beyond it *)
  check "p90 of 100 samples" (Stats.percentile (samples 100) ~pct:90 = Some 90.0);
  check "p50 of 100 samples" (Stats.percentile (samples 100) ~pct:50 = Some 50.0);
  check "p90 needs 10 samples beyond it" (Stats.percentile (samples 99) ~pct:90 = None);
  (* rank ceil(0.9 * 110) = 99 is computed in integers, not floats *)
  check "p90 of 110 samples" (Stats.percentile (samples 110) ~pct:90 = Some 99.0);
  check "p50 of 21 samples" (Stats.percentile (samples 21) ~pct:50 = Some 11.0);
  check "p50 of 19 samples has too thin a tail" (Stats.percentile (samples 19) ~pct:50 = None);
  check "no samples" (Stats.percentile [||] ~pct:50 = None)

(* expected values from Python: statistics.quantiles(data, n=4) *)
let quartiles () =
  let q = Stats.quartiles (Stats.sorted [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ]) in
  check "quartiles of 1..10" (q = (2.75, 5.5, 8.25));
  let q1, q2, q3 = Stats.quartiles (Stats.sorted [ 0.3; 0.1; 0.2; 0.4 ]) in
  check "quartiles of 4 samples" (close q1 0.125 && close q2 0.25 && close q3 0.375);
  let q1, _, q3 = Stats.quartiles [| 1.0; 2.0 |] in
  check "quartiles extrapolate on 2 samples" (close q1 0.75 && close q3 2.25);
  check "median of an even count" (Stats.median [| 1.0; 2.0; 3.0; 4.0 |] = 2.5)

let allocation () =
  (* a list of n ints is n cons cells of 3 words each *)
  let build n = List.init n Fun.id in
  let kept = ref [] in
  let op () = kept := build 100_000 in
  let _, a = Alloc.measure ~all_domains:false op in
  let _, b = Alloc.measure ~all_domains:false op in
  check "one-domain allocation repeats exactly" (a = b);
  check "one-domain allocation counts the cells"
    (a.Alloc.minor_words >= 300_000.0 && a.Alloc.minor_words < 301_000.0);
  check "what stays alive is promoted" (a.Alloc.promoted_words >= 300_000.0);
  let garbage () = ignore (Sys.opaque_identity (build 1_000)) in
  let _, g = Alloc.measure ~all_domains:false garbage in
  check "short-lived data is not promoted" (g.Alloc.promoted_words < 100.0);
  (* the other domain's allocation is invisible to Gc but not to the
     summed event rings *)
  let two_domains () =
    let d = Domain.spawn (fun () -> ignore (Sys.opaque_identity (build 200_000))) in
    ignore (Sys.opaque_identity (build 100_000));
    Domain.join d
  in
  let _, all = Alloc.measure ~all_domains:true two_domains in
  check "all-domain allocation counts both domains"
    (all.Alloc.minor_words >= 900_000.0 && all.Alloc.minor_words < 910_000.0);
  let _, one = Alloc.measure ~all_domains:true op in
  check "all-domain allocation agrees with Gc on one domain"
    (Float.abs (one.Alloc.minor_words -. a.Alloc.minor_words) < 1_000.0)

let () =
  percentiles ();
  quartiles ();
  allocation ();
  if !failures > 0 then exit 1
