(** Keyed tuples for the fold-group fusion scalability study (paper
    Appendix B): each tuple is a key (drawn from a configurable
    distribution), an integer value, and a small 3-10 character unicode
    payload; each execution unit receives 5 M tuples (~125 MB). *)

type config = {
  n_tuples : int;
  n_keys : int;
  dist : Emma_util.Dist.t;
  payload_min : int;
  payload_max : int;
}

val paper_config : n_tuples:int -> Emma_util.Dist.t -> config
(** 3-10 character payloads over the given key distribution. *)

val uniform : n_keys:int -> Emma_util.Dist.t
val gaussian : n_keys:int -> Emma_util.Dist.t
val pareto : n_keys:int -> Emma_util.Dist.t
(** The paper's three distributions; Pareto assigns ~35% of tuples to one
    key. *)

val tuples : seed:int -> config -> Emma_value.Value.t list
(** Records [{key; value; payload}]. *)
