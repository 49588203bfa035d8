(** LT-RChol-oriented matrix reordering — Algorithm 4 of the paper.

    Nodes are sorted by degree ascending; within each degree class, nodes
    adjacent to a "heavy" edge (weight greater than [heavy_factor] times the
    average edge weight, 10x in the paper) are moved to the front, because
    eliminating such a node late makes its heaviest neighbor's degree blow up
    (Eq. 12). Runs in O(|V| + |E|). *)

val order : ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t
(** [order g] returns the permutation (new index -> old index).
    [heavy_factor] defaults to 10 (the paper's choice); pass [infinity] to
    disable heavy-edge promotion (plain degree sort), which the ablation
    bench uses. When telemetry is on, it reports the ordered graph's
    [max_degree] and [heavy_nodes] as gauges under its ["degree_sort"]
    span. *)

type shape = { max_degree : int; heavy_nodes : int }
(** The graph-shape figures {!order} reports: the largest degree and the
    number of nodes promoted for a heavy edge. *)

val order_shape : ?heavy_factor:float -> Sddm.Graph.t -> Sparse.Perm.t * shape
(** {!order} without span or gauges, returning the shape instead, for a
    caller that orders many blocks and reports one aggregate (the
    partitioned ordering reports the max degree and the heavy-node sum
    over its blocks). Same permutation as {!order}. *)
