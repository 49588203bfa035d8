(** Permutations of [0 .. n-1].

    Convention used across the whole library: a permutation [p] maps
    {e new} indices to {e old} indices — [p.(k)] is the original index of the
    row/column placed at position [k] after reordering. This matches the
    "P A P^T" notation of the paper: row [k] of the reordered matrix is row
    [p.(k)] of the original. *)

type t = int array

val identity : int -> t

val is_valid : t -> bool
(** A valid permutation hits every index of [0..n-1] exactly once. *)

val inverse : t -> t
(** [inverse p] satisfies [(inverse p).(p.(k)) = k]. *)

val apply_vec : t -> Vec.t -> Vec.t
(** [apply_vec p x] builds the reordered vector [y] with [y.(k) = x.(p.(k))]
    — the action of [P] on [x]. *)

val apply_inv_vec : t -> Vec.t -> Vec.t
(** [apply_inv_vec p y] undoes [apply_vec]: returns [x] with
    [x.(p.(k)) = y.(k)] — the action of [P^T]. *)

val of_order : float array -> t
(** [of_order keys] is the permutation that sorts [keys] ascending (stable):
    position [k] of the result holds the original index with the k-th
    smallest key. *)

val random : Rng.t -> int -> t
