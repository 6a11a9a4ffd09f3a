(** The engine's one hash table over {!Emma_value.Value.t} keys: every keyed
    operator (groupBy, aggBy combine and reduce, join indexes, semi- and
    anti-join key sets, stateful bags) builds its per-partition table here.

    {b Stdlib order.} {!fold} and {!iter} visit bindings in exactly the
    order a Stdlib [(Value.t, _) Hashtbl.t] built by the same calls would:
    same bucket index ([Hashtbl.hash k land (buckets - 1)], the unseeded
    hash), same initial bucket count ([create n] has the smallest power of
    two >= max 16 n), insertion at the bucket head, doubling when the
    size passes twice the bucket count with chain order kept, and keys
    equal when [compare k k' = 0]. Operator output is built by folding
    these tables, and later float folds associate in that order, so the
    order is part of the engine's results.

    {b Allocation.} An empty table is a three-field record: the bucket
    array is made on the first insertion, so a partition that receives no
    rows costs no buckets. A key is bound at most once, in one mutable
    cell, so {!upsert} and {!update} change a bound value in place (no
    [ref], no [Some]) and hash the key once for the lookup and the
    insertion.

    {b Reuse.} A task that builds one table per partition may build them
    all in one table, calling {!reset} between partitions: a reset table
    folds exactly like a fresh [create] of the same size built by the
    same later calls. The engine's aggBy gives each barrier task one
    combine table and one reduce table this way, so a task allocates one
    bucket array, not one per partition.

    Adding to a table while folding or iterating over it is unspecified. *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table that will start with [max 16 n] buckets
    (rounded up to a power of two), as [Hashtbl.create n] does. *)

val length : 'a t -> int
(** The number of bindings. *)

val reset : 'a t -> unit
(** Removes every binding. A bucket array of the initial size is kept
    and cleared; one that grew is dropped, so the next insertion makes
    one of the initial size. Either way the table then folds exactly like
    a fresh [create n] (the [n] it was created with) built by the same
    later calls. *)

val replace : 'a t -> Emma_value.Value.t -> 'a -> unit
(** [Hashtbl.replace]: overwrite the key and value of the binding of an
    equal key in place, or add one. *)

val mem : 'a t -> Emma_value.Value.t -> bool

val find_or : 'a t -> Emma_value.Value.t -> 'a -> 'a
(** [find_or t k default] is the value bound to [k], or [default]. *)

val upsert : 'a t -> Emma_value.Value.t -> 'b -> init:('b -> 'a) -> merge:('a -> 'b -> 'a) -> unit
(** [upsert t k x ~init ~merge] binds [k] to [merge v x] in place if [k]
    is bound to [v], and otherwise adds [k] bound to [init x]: a
    [find_opt] followed by an [add] on a miss, hashing [k] once. *)

val update : 'a t -> Emma_value.Value.t -> 'b -> ('a -> 'b -> 'a option) -> 'a option
(** [update t k x f]: if [k] is bound to [v] and [f v x] is [Some v'],
    [k] is bound to [v'] in place. Returns [f v x], or [None] when [k] is
    unbound. *)

val update_all : ('a -> 'a option) -> 'a t -> 'a list
(** Applies [f] to every bound value in {!iter} order, storing each
    [Some v'] in place. Returns the stored values, last visited first. *)

val fold : (Emma_value.Value.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val fold_rev : (Emma_value.Value.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** {!fold} visiting the bindings in the reverse order: consing each one
    builds a list in {!fold}'s order. *)

val iter : (Emma_value.Value.t -> 'a -> unit) -> 'a t -> unit

val copy : 'a t -> 'a t
(** A table with fresh binding cells in the same buckets and chain order
    (values are shared): it folds exactly as the original, and updates
    to either leave the other alone. *)
