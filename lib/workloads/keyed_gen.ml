module Value = Emma_value.Value
module Prng = Emma_util.Prng
module Dist = Emma_util.Dist

type config = {
  n_tuples : int;
  n_keys : int;
  dist : Dist.t;
  payload_min : int;
  payload_max : int;
}

let n_keys_of = function
  | Dist.Uniform { n_keys } | Dist.Gaussian { n_keys; _ } | Dist.Pareto { n_keys; _ } ->
      n_keys

let paper_config ~n_tuples dist =
  { n_tuples; n_keys = n_keys_of dist; dist; payload_min = 3; payload_max = 10 }

let uniform ~n_keys = Dist.Uniform { n_keys }
let gaussian ~n_keys = Dist.Gaussian { n_keys; stddev_frac = 0.25 }
let pareto ~n_keys = Dist.Pareto { n_keys; hot_frac = 0.35 }

let tuples ~seed cfg =
  let rng = Prng.create seed in
  List.init cfg.n_tuples (fun _ ->
      let key = Dist.draw cfg.dist rng in
      let value = Prng.int rng 1_000_000 in
      let payload = Prng.string rng ~len:(Prng.int_in rng cfg.payload_min cfg.payload_max) in
      Value.record
        [ ("key", Value.Int key); ("value", Value.Int value); ("payload", Value.String payload) ])
