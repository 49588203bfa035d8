(** Partition-aware degree-sort ordering (Alg. 4 + recursive bisection).

    Recursively bisects the graph with BFS level cuts (separators emitted
    after both halves), then degree-sorts every block on its induced
    subgraph. The default ordering of [Solver.powerrchol] and of ECO
    sessions (see the header of partitioned.ml for why). With telemetry
    on, it reports [partition_blocks] and, under [degree_sort/], the
    largest [max_degree] and the summed [heavy_nodes] over all blocks.
    Deterministic: depends only on the graph and the parameters. *)

val order : ?heavy_factor:float -> ?leaf_fraction:float -> Sddm.Graph.t -> Sparse.Perm.t
(** [order g] returns a permutation (position -> vertex). [heavy_factor] is
    forwarded to the per-block {!Degree_sort.order}. [leaf_fraction]
    (default 1/64) bounds leaf blocks to [max 1024 (ceil (f * n))]
    vertices; graphs at or below the floor degenerate to a single
    degree-sorted block. *)
