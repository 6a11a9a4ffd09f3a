(** Graph analytics on top of the DataBag API — with {!Emma_matrix.Matrix},
    the second domain library the paper's §7 names as Emma's growth path.
    Graphs are DataBags of edge records [{src; dst}]; every operation below
    is an ordinary Emma expression, so it flows through comprehension
    normalization, join extraction and fold-group fusion like any user
    program: triangle counting, for instance, becomes an equi-join plus a
    semi-join with a composite key. *)

module Expr = Emma_lang.Expr

(** {1 Value-level constructors} *)

val edge : int -> int -> Emma_value.Value.t
val edges_of_list : (int * int) list -> Emma_value.Value.t list

val edges_of_adjacency : Emma_value.Value.t list -> Emma_value.Value.t list
(** Convert the workload generators' [{id; neighbors}] records to edges. *)

(** {1 Expression-level operations over edge bags} *)

val reverse : Expr.expr -> Expr.expr
(** Swap every edge (element-wise map). *)

val undirect : Expr.expr -> Expr.expr
(** Symmetric closure with duplicate elimination. *)

val out_degrees : Expr.expr -> Expr.expr
(** [{id; degree}] per source vertex (fused group-count). Vertices with no
    outgoing edges are absent. *)

val vertices : Expr.expr -> Expr.expr
(** Distinct vertex ids occurring in any edge. *)

val edge_count : Expr.expr -> Expr.expr
(** Scalar: the number of edges. *)

val triangle_count : Expr.expr -> Expr.expr
(** Scalar: the number of directed triangles [a→b→c→a] closed by an edge.
    Built as a join of the edge bag with itself on [e1.dst == e2.src]
    followed by an exists check for the closing edge — the compiler turns
    the latter into a semi-join on the composite [(src, dst)] key. For an
    undirected (symmetrized) graph, each undirected triangle is counted
    six times. *)

val two_hop_neighbors : Expr.expr -> Expr.expr
(** Distinct [{src; dst}] pairs connected by a path of length exactly two
    (self-pairs excluded). *)

(** {1 Oracles (plain OCaml, for testing)} *)

val triangle_count_reference : (int * int) list -> int
val out_degrees_reference : (int * int) list -> (int * int) list
