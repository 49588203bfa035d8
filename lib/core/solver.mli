(** Uniform solver interface over PowerRChol and all baselines.

    Every solver is a {e preparation} step (reordering + preconditioner
    construction, timed separately as the paper's [T_r] and [T_f]) followed
    by PCG iteration ([T_i], [N_i]). The benchmark tables are produced by
    running the same problems through each [t].

    Since this layer was refactored around the factor-once / solve-many
    workload, a {!prepared} value is a first-class, reusable handle: keep
    it and call {!solve_prepared} / {!solve_many} for every new right-hand
    side — the reordering and factorization are paid exactly once. See
    {!Engine} for the fingerprint cache that shares handles across
    independent call sites. *)

type prepared = {
  solver_name : string;  (** name of the solver that built the handle *)
  problem : Sddm.Problem.t;  (** the system the factorization belongs to *)
  precond : Krylov.Precond.t;
  workspace : Krylov.Pcg.Workspace.t;
      (** owned PCG iteration buffers. Ownership rule: a handle serves one
          solve at a time — {!solve_prepared} calls on the same handle
          must be sequential (they are everywhere in this codebase, which
          is single-threaded). *)
  t_reorder : float;  (** seconds spent computing the permutation *)
  t_precond : float;  (** seconds spent building the preconditioner *)
  factor_nnz : int;  (** stored nonzeros of the preconditioner *)
}

type t = {
  name : string;
  prepare : Sddm.Problem.t -> prepared;
}

type result = {
  solver : string;
  x : Sparse.Vec.t;
  iterations : int;
  status : Krylov.Pcg.status;  (** typed PCG exit status *)
  converged : bool;  (** derived view: [status = Converged] *)
  residual : float;  (** true relative residual, recomputed from [x] *)
  t_reorder : float;
  t_precond : float;
  t_iterate : float;
  t_total : float;
  factor_nnz : int;
}

val prepare : t -> Sddm.Problem.t -> prepared
(** [prepare solver problem] reorders and factorizes once, returning the
    reusable handle. Recorded under the Obs span ["prepare"]. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed name f] runs [f] inside the {!Obs} span [name] and returns its
    value with the elapsed {!Obs.now} seconds — the phase clock every
    preparation (and {!Engine.Session.update}) reads its times from. *)

val solve_prepared :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> ?x0:Sparse.Vec.t ->
  ?history:bool -> ?condition:bool -> ?b:Sparse.Vec.t -> prepared -> result
(** [solve_prepared p] runs PCG against the prepared factorization.
    [b] defaults to the right-hand side of the prepared problem; pass a
    different [b] (of the same dimension) to solve the same matrix for a
    new load vector. [deadline] (absolute wall-clock instant, {!Obs.now}
    clock) cancels the iteration cooperatively — see [Pcg.solve].
    [history] and [condition] default to [false] — the
    batched path does not build the O(iterations) diagnostics.

    {b Marginal-cost semantics:} the returned [t_reorder]/[t_precond] are
    0 and [t_total = t_iterate]; the one-time preparation cost lives on
    the handle. [residual] is verified against the actual [b] solved. *)

val solve_many :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> ?history:bool ->
  ?condition:bool -> prepared -> Sparse.Vec.t array -> result array
(** [solve_many p bs] amortizes one factorization over a batch of
    right-hand sides. With one domain (or a busy pool) the batch runs
    sequentially on the handle's workspace; with more domains it is
    fanned across the default {!Par} pool in contiguous chunks, one
    private workspace per chunk; every solve's inner kernels then run
    sequentially, so the results are bit-identical to the sequential
    batch at any domain count.

    Telemetry stays live at any domain count: the batch is one
    ["solve_many"] span containing a ["solve#k"] span per right-hand
    side (k = batch index), with per-solve wall times in the
    ["solve_many/solve_seconds"] histogram. On the parallel path each
    chunk records into its own per-domain Obs store and [Obs.capture]
    merges them deterministically, so a profiled batch reports the same
    span paths and bit-identical counter totals as the sequential run
    (plus [par/busy_s#i] / [par/imbalance] load counters). *)

val run :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> t -> Sddm.Problem.t ->
  result
(** Prepare, iterate, time, and verify — the one-shot path. [rtol]
    defaults to 1e-6 and [max_iter] to 500, the paper's settings. *)

val with_prepare_cost : prepared -> result -> result
(** Full-cost semantics for a prepared solve: fold the handle's
    [t_reorder]/[t_precond] back into the result and into [t_total]. *)

val iterate :
  ?rtol:float -> ?max_iter:int -> ?deadline:float -> t -> prepared ->
  Sddm.Problem.t -> result
(** Reuse a preparation against [problem]'s matrix and rhs (used by the
    Fig. 2 tolerance sweep). Unlike {!solve_prepared} the result carries
    the preparation times and [t_total] includes them. *)

(** {1 Solver constructors}

    All randomized solvers are deterministic given [seed]
    (default [20240623]). *)

type ordering =
  | Amd
  | Natural
  | Degree_sort
  | Rcm
  | Nested_dissection
  | Partitioned
      (** Recursive bisection with Alg. 4 degree sort inside each block
          ([Ordering.Partitioned]) — the ordering that gives the
          elimination tree independent branches for the multicore
          factorization. Named ["part"]. *)

val ordering_name : ordering -> string
val apply_ordering : ordering -> Sddm.Graph.t -> Sparse.Perm.t

val prepare_rand_chol :
  name:string -> order:(Sddm.Graph.t -> Sparse.Perm.t) ->
  factorize:(rng:Rng.t -> Sddm.Graph.t -> d:float array -> 'f) ->
  lower:('f -> Factor.Lower.t) -> ?perm:Sparse.Perm.t -> seed:int ->
  Sddm.Problem.t -> Sparse.Perm.t * 'f * prepared
(** The one randomized-Cholesky preparation behind {!rchol},
    {!lt_rchol}, {!rand_chol_custom}, {!powerrchol_prepare} and
    {!Engine.Session}: reorder with [order] (span ["reorder"]; skipped
    with [t_reorder = 0] when [perm] is given), permute graph and excess,
    [Rng.create seed], [factorize] (span ["factor"]), and assemble the
    handle from [lower f] under [name]. Returns the permutation and the
    raw factorization with the handle, so a caller using an updatable
    factorizer keeps its [updatable]. *)

val powerrchol : ?buckets:int -> ?heavy_factor:float -> ?seed:int -> unit -> t
(** The paper's solver: partitioned Alg. 4 reordering + LT-RChol (Alg. 3)
    + PCG. *)

val powerrchol_prepare :
  ?buckets:int -> ?heavy_factor:float -> ?seed:int ->
  ?perm:Sparse.Perm.t -> Sddm.Problem.t -> prepared
(** The paper's preparation with an optional precomputed permutation
    (partitioned Alg. 4 by default). Reordering is deterministic and
    seed-independent, so a caller that already holds the permutation (the
    robust reseed rungs) skips straight to the randomized factorization. *)

val rchol : ?ordering:ordering -> ?seed:int -> unit -> t
(** Original RChol (Alg. 1) preconditioner; default AMD ordering, the
    configuration of [3] used as baseline in Table 1. *)

val lt_rchol : ?ordering:ordering -> ?buckets:int -> ?seed:int -> unit -> t
(** LT-RChol with a chosen ordering — the Table 2 rows. *)

val rand_chol_custom :
  name:string -> sort:Factor.Rand_chol.sort ->
  sampling:Factor.Rand_chol.sampling -> ordering:ordering -> ?seed:int ->
  unit -> t
(** Fully custom randomized-Cholesky solver (ablation benches). *)

val fegrass : ?recover_fraction:float -> unit -> t
(** feGRASS-PCG [11]: sparsifier (2%·|V| recovered edges) factorized
    exactly under AMD. *)

val fegrass_ichol : ?recover_fraction:float -> ?drop_tol:float -> unit -> t
(** feGRASS-IChol-PCG [9]: 50%·|V| recovery + ICT(8.5e-6). *)

val amg_pcg : ?theta:float -> ?smoother:Amg.smoother -> unit -> t
(** AMG-PCG [14] (the PowerRush solver core). [smoother] defaults to
    symmetric Gauss-Seidel; see {!Amg.build}. *)

val direct : unit -> t
(** AMD + exact Cholesky as a "preconditioner": PCG converges in one
    iteration; total time is dominated by factorization. Sanity baseline. *)

val jacobi : unit -> t
(** Diagonal preconditioning; the weak baseline. *)

val default_seed : int
val default_heavy_factor : float

(** {1 Hardened solve path}

    The production entry point for untrusted input: pre-flight diagnostics
    ({!Robust.Diagnose}), per-island solving for disconnected grids, and a
    deterministic fallback chain
    [powerrchol -> reseed-and-retry xk -> rchol(amd) -> jacobi -> direct]
    whose every rung is verified against the {e true} residual. A bad input
    yields a structured report — never a silent wrong answer. *)

type robust_result = {
  diagnostics : Robust.Diagnose.report;  (** the pre-flight report *)
  outcome : robust_outcome;
}

and robust_outcome =
  | Robust_solved of {
      x : Sparse.Vec.t;
      winner : string;
          (** rung that produced the verified solution; for multi-island
              solves, the distinct winning rungs joined with [+] *)
      iterations : int;  (** summed over islands *)
      residual : float;  (** verified true relative residual *)
      attempts : Robust.Fallback.attempt list;
          (** rungs that failed before the winner (prefixed [c<i>/] per
              island on disconnected systems) *)
    }
  | Robust_rejected of { reasons : string list }
      (** fatal pre-flight diagnostics: solving was not attempted *)
  | Robust_exhausted of { attempts : Robust.Fallback.attempt list }
      (** every rung failed; the trace says why, rung by rung *)

val solve_robust :
  ?rtol:float -> ?max_iter:int -> ?seed:int -> ?retries:int ->
  ?deadline:float -> Sddm.Problem.t -> robust_result
(** [rtol] defaults to 1e-6, [max_iter] to 500, [seed] to {!default_seed},
    [retries] (reseed-and-retry rungs) to 2. [deadline] (absolute
    wall-clock instant) bounds the {e whole chain}: it is propagated into
    every rung's PCG loop and checked between rungs, so an expired budget
    surfaces as [Timed_out] attempts instead of further escalation.
    Without [deadline], deterministic given [seed]: two runs produce
    identical outcomes and byte-identical {!robust_trace}s. *)

val robust_ok : robust_result -> bool
(** True iff the outcome is [Robust_solved]. *)

val robust_rungs :
  ?seed:int -> ?retries:int -> ?deadline:float -> rtol:float ->
  max_iter:int -> unit -> Robust.Fallback.rung list
(** The default escalation chain, exposed for custom {!Robust.Fallback}
    policies. The powerrchol rung and its reseed-and-retry rungs share one
    Alg. 4 permutation per problem (computed by whichever rung runs first,
    memoized by physical problem identity) — a reseed re-runs only the
    randomized factorization. That permutation is plain Alg. 4
    ([Ordering.Degree_sort]), so the rung named ["powerrchol"] orders
    differently from {!powerrchol}, whose default is {!Partitioned}. *)

val rung_of_prepared :
  ?deadline:float -> name:string -> rtol:float -> max_iter:int ->
  (Sddm.Problem.t -> prepared) -> Robust.Fallback.rung
(** Build a fallback rung from a preparation function — the hook through
    which rungs accept (and share) prepared handles. Exceptions raised by
    the preparation (factorization breakdowns) are classified by
    {!Robust.Fallback.run} like any rung failure. *)

val robust_trace : robust_result -> string
(** Deterministic one-line trace: diagnostics summary, each failed rung
    with its reason, final verdict. *)

(** {1 Telemetry}

    Profiled variants enable the {!Obs} layer for the duration of one
    solve and return the captured record alongside the result: phase
    spans ([reorder] / [factor] / [pcg] with sub-spans for the bucket
    sort, target-array merge, and triangular solves), counters (sampled
    clique edges, fill-in nonzeros, [precond_nnz_ratio], PCG iterations,
    fallback escalations), and a meta header whose [iterations], [status]
    and phase times mirror the {!result}. *)

val run_profiled :
  ?rtol:float -> ?max_iter:int -> t -> Sddm.Problem.t ->
  result * Obs.record

val solve_robust_profiled :
  ?rtol:float -> ?max_iter:int -> ?seed:int -> ?retries:int ->
  ?deadline:float -> Sddm.Problem.t -> robust_result * Obs.record

val with_obs :
  meta_of:('a -> (string * Obs.Json.t) list) -> (unit -> 'a) ->
  'a * Obs.record
(** Building block for profiled entry points over other solve paths
    (e.g. {!Pipeline.solve_matrix_robust_profiled}): reset and enable the
    {!Obs} store, run the thunk, capture the record with [meta_of]'s
    header, and restore the previous enabled state (also on exception). *)

val robust_meta_of :
  case:string -> n:int -> nnz:int -> robust_result ->
  (string * Obs.Json.t) list
(** The meta header {!solve_robust_profiled} attaches, for callers that
    only have the raw matrix dimensions (no {!Sddm.Problem.t}). *)
