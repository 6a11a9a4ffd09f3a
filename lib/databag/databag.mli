(** Homogeneous collections with bag semantics — the paper's core [DataBag]
    abstraction (Listing 3), implemented natively in the host language so
    programs can be developed and debugged locally (paper §3.1, "Host
    Language Execution").

    The representation is the paper's {e union representation}
    ([AlgBag-Union], §2.2.1): a bag is a tree of [emp] / [sng x] /
    [uni l r] constructor applications, and every native computation is
    {e structural recursion} ([fold], §2.2.2) over that tree. Because bags
    are equivalence classes of such trees modulo unit/associativity/
    commutativity, the concrete tree shape is unobservable through this
    interface as long as fold arguments satisfy the well-definedness
    conditions ([u] associative, commutative, with unit [e]); the property
    test-suite checks this for all exported aliases. *)

type 'a t

(** {1 Constructors (the union algebra)} *)

val empty : 'a t
val singleton : 'a -> 'a t

val union : 'a t -> 'a t -> 'a t
(** [union] is the paper's [uni] — also exposed as [plus] in the Listing 3
    API. O(1). *)

val of_list : 'a list -> 'a t
(** Builds a balanced union tree over singletons. *)

val of_array : 'a array -> 'a t
val of_seq : 'a Seq.t -> 'a t

(** {1 Conversion ([fetch])} *)

val to_list : 'a t -> 'a list
(** Element order is the left-to-right leaf order of the current tree and
    carries no semantic meaning. *)

val to_array : 'a t -> 'a array
val to_seq : 'a t -> 'a Seq.t

(** {1 Structural recursion} *)

val fold : empty:'b -> single:('a -> 'b) -> union:('b -> 'b -> 'b) -> 'a t -> 'b
(** [fold ~empty ~single ~union xs] substitutes the three arguments for the
    constructors of the tree representing [xs] and evaluates it. The result
    is independent of the tree shape iff [union] is associative and
    commutative with unit [empty] (§2.2.2, well-definedness conditions). *)

val fold_array : empty:'b -> single:('a -> 'b) -> union:('b -> 'b -> 'b) -> 'a array -> 'b
(** [fold_array ~empty ~single ~union arr] is [fold ~empty ~single ~union
    (of_array arr)] without building the tree. It has the same shape and the
    same call order: [empty] only for an empty array, otherwise [single] at
    the leaves and [union] over the halves [lo, mid) and [mid, hi) with
    [mid = (lo + hi) / 2], each [union]'s arguments evaluated in the order
    [fold]'s are. So the result is the same even when [union] is neither
    associative nor commutative, and so is the first exception raised. *)

(** {1 Monad operators (enable comprehension syntax)} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val flat_map : ('a -> 'b t) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t

(** {1 Nesting} *)

type ('k, 'v) grp = { key : 'k; values : 'v }
(** A group produced by [group_by]: the paper's [Grp] type. [values] is a
    full [DataBag], not an iterator — nesting is first-class. *)

val group_by : ?cmp:('k -> 'k -> int) -> ('a -> 'k) -> 'a t -> ('k, 'a t) grp t
(** Groups elements by key. [cmp] defaults to the polymorphic compare; pass
    an explicit comparator for keys with non-structural equality. The order
    of groups and of values within each group is unspecified. *)

(** {1 Difference, union, duplicate removal} *)

val plus : 'a t -> 'a t -> 'a t
(** Alias for [union] (Listing 3 name). *)

val minus : ?cmp:('a -> 'a -> int) -> 'a t -> 'a t -> 'a t
(** Multiset difference: each occurrence in the subtrahend cancels one
    occurrence in the minuend. *)

val distinct : ?cmp:('a -> 'a -> int) -> 'a t -> 'a t

(** {1 Aggregates — aliases for various folds} *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val sum : float t -> float
val sum_int : int t -> int
val sum_by : ('a -> float) -> 'a t -> float
val product : float t -> float
val count : ('a -> bool) -> 'a t -> int
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val min_by : ('a -> float) -> 'a t -> 'a option
val max_by : ('a -> float) -> 'a t -> 'a option
val min_opt : ?cmp:('a -> 'a -> int) -> 'a t -> 'a option
val max_opt : ?cmp:('a -> 'a -> int) -> 'a t -> 'a option

(** {1 Miscellaneous} *)

val equal_as_bags : ?cmp:('a -> 'a -> int) -> 'a t -> 'a t -> bool
(** Multiset equality: same elements with the same multiplicities,
    regardless of tree shape or element order. *)

val depth : 'a t -> int
(** Height of the underlying union tree; exposed for tests that check fold
    is shape-independent. *)

val rebalance_left : 'a t -> 'a t
(** Reassociates the tree into a left-deep chain ([AlgBag-Ins] shape)
    without changing the bag value; exposed for the same tests. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
