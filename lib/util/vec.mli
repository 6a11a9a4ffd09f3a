(** Small dense float vectors, used by the k-means workloads and the linear
    algebra example layer. The kernels allocate only their result, and
    check dimensions. *)

type t = float array

val zeros : int -> t

val add : t -> t -> t
(** Component-wise sum. Raises [Invalid_argument] on dimension mismatch. *)

val sub : t -> t -> t
val scale : float -> t -> t
val div_scalar : t -> float -> t
val dot : t -> t -> float

val dist : t -> t -> float
(** Euclidean distance: the norm of [sub a b], summed left to right, with
    [sub]'s dimension check and message. *)

val equal : ?eps:float -> t -> t -> bool
(** Component-wise comparison within [eps] (default [1e-9]). *)
