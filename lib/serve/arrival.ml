(* Arrival traces: the scripted input of serve's deterministic
   simulation. A trace is an
   ordered list of (arrival time, tenant, query name); the position in
   the list is the submission id, the deterministic tie-break everywhere
   downstream. *)

module Prng = Emma_util.Prng

type event = { at_s : float; tenant : string; query : string }

(* One event per line: `<at_s> <tenant> <query>`, `#` comments and blank
   lines ignored. %.6f matches the repo's pinned float rendering, so
   to_string/of_string round-trips byte-stably. *)
let to_string events =
  String.concat ""
    (List.map
       (fun e -> Printf.sprintf "%.6f %s %s\n" e.at_s e.tenant e.query)
       events)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match String.split_on_char ' ' (String.trim line)
              |> List.filter (fun w -> w <> "")
        with
        | [] -> go acc (lineno + 1) rest
        | [ at; tenant; query ] -> (
            match float_of_string_opt at with
            | Some at_s when Float.is_finite at_s && at_s >= 0.0 ->
                go ({ at_s; tenant; query } :: acc) (lineno + 1) rest
            | _ ->
                Error
                  (Printf.sprintf
                     "arrival trace line %d: %S is not a non-negative arrival \
                      time"
                     lineno at))
        | _ ->
            Error
              (Printf.sprintf
                 "arrival trace line %d: expected `<at_s> <tenant> <query>'"
                 lineno))
  in
  go [] 1 lines

(* Zipf(alpha) draw over ranks 0..n-1 by inverse CDF on precomputed
   cumulative weights: rank r carries weight (r+1)^-alpha, so the first
   entries dominate — the repeat-heavy popularity law the plan cache is
   designed for. *)
let zipf_cdf ~alpha n =
  let w = Array.init n (fun r -> (float_of_int (r + 1)) ** -.alpha) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick g cdf =
  let u = Prng.unit_float g in
  let n = Array.length cdf in
  let rec find i = if i >= n - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

let generate ~seed ~rate ~alpha ~tenants ~queries ~n =
  if tenants = [] || queries = [] || n < 0 then
    invalid_arg "Arrival.generate: need tenants, queries and n >= 0";
  if not (rate > 0.0) then invalid_arg "Arrival.generate: rate must be > 0";
  let g = Prng.create seed in
  let tn = Array.of_list tenants and qs = Array.of_list queries in
  let tcdf = zipf_cdf ~alpha (Array.length tn) in
  let qcdf = zipf_cdf ~alpha (Array.length qs) in
  let clock = ref 0.0 in
  List.init n (fun _ ->
      clock := !clock +. Prng.exponential g ~rate;
      let tenant = tn.(zipf_pick g tcdf) in
      let query = qs.(zipf_pick g qcdf) in
      { at_s = !clock; tenant; query })
