(* Step-by-step replays of the production prepare and solve paths, with a
   span around each call into a layer's public function. The replays must
   compute exactly what the production entry points compute (the
   workloads check factor nnz, iteration counts and x fingerprints), so
   the per-layer split describes the same program the end-to-end metrics
   time. *)

module Solver = Powerrchol.Solver

type prepared = {
  factor_nnz : int;
  precond : Krylov.Precond.t;
  workspace : Krylov.Pcg.Workspace.t;
}

(* Solver.powerrchol_prepare, one layer at a time. *)
let prepare tr problem =
  let g = problem.Sddm.Problem.graph in
  let perm =
    Spans.span tr "ordering.reorder" (fun () ->
        Ordering.Partitioned.order ~heavy_factor:Solver.default_heavy_factor g)
  in
  let gp, dp =
    Spans.span tr "sddm.permute" (fun () ->
        let d = problem.Sddm.Problem.d in
        ( Sddm.Graph.permute g perm,
          Array.init (Array.length perm) (fun k -> d.(perm.(k))) ))
  in
  let l =
    Spans.span tr "factor.factorize" (fun () ->
        Factor.Lt_rchol.factorize ~buckets:Factor.Lt_rchol.default_buckets
          ~rng:(Rng.create Solver.default_seed) gp ~d:dp)
  in
  Spans.span tr "krylov.setup" (fun () ->
      {
        factor_nnz = Factor.Lower.nnz l;
        precond = Krylov.Precond.of_factor ~name:"powerrchol" ~perm l;
        workspace = Krylov.Pcg.Workspace.create (Sddm.Problem.n problem);
      })

type solved = { x : Sparse.Vec.t; iterations : int; converged : bool; residual : float }

(* Solver.solve_prepared: the same PCG core through solve_operator_into,
   with the SpMV and the preconditioner apply timed per call; the rest of
   the "krylov.pcg" span is the vector work. *)
let solve tr ~precond ~workspace ?b problem =
  let a = problem.Sddm.Problem.a in
  let b = Option.value b ~default:problem.Sddm.Problem.b in
  let apply ?scratch r z =
    Spans.span tr "krylov.precond" (fun () ->
        precond.Krylov.Precond.apply ?scratch r z)
  in
  let apply_a v w =
    Spans.span tr "krylov.spmv" (fun () -> Sparse.Csc.spmv_sym_into a v w)
  in
  let pcg =
    Spans.span tr "krylov.pcg" (fun () ->
        Krylov.Pcg.solve_operator_into ~rtol:Measure.rtol ~max_iter:500
          ~warm_start:false ~workspace ~x:(Sparse.Vec.create (Sparse.Vec.length b))
          ~apply_a ~b ~precond:{ precond with Krylov.Precond.apply } ())
  in
  let residual =
    Spans.span tr "sddm.verify" (fun () ->
        Sddm.Problem.residual_norm_against problem ~b pcg.Krylov.Pcg.x)
  in
  {
    x = pcg.Krylov.Pcg.x;
    iterations = pcg.Krylov.Pcg.iterations;
    converged = pcg.Krylov.Pcg.converged;
    residual;
  }

(* Computed bytes one PCG iteration moves through memory, for a matrix
   with [nnz_a] stored entries and a factor with [nnz_l]: the symmetric
   gather SpMV streams A once, the preconditioner streams L forward and
   backward plus the two permutations, and the vector updates touch
   about fourteen n-vectors (two dots, two axpys, a norm, an xpby). *)
let bytes_per_iter ~n ~nnz_a ~nnz_l =
  let ib = Sparse.Idx.bytes_per_index in
  let csc nnz = (nnz * (8 + ib)) + ((n + 1) * ib) in
  let spmv = csc nnz_a + (16 * n) in
  let precond = (2 * csc nnz_l) + (4 * 16 * n) + (2 * 8 * n) in
  let vec = 14 * 8 * n in
  float_of_int (spmv + precond + vec)

(* Bytes a prepared solve keeps live: A, the factor, the permutation and
   the seven PCG n-vectors (workspace, x and b). *)
let working_set ~n ~nnz_a ~nnz_l =
  let ib = Sparse.Idx.bytes_per_index in
  let csc nnz = (nnz * (8 + ib)) + ((n + 1) * ib) in
  float_of_int (csc nnz_a + csc nnz_l + (8 * n) + (7 * 8 * n))

(* Per-layer metric names and the spans that measure them. *)
let prepare_layers =
  [
    ("ordering.reorder_s", "ordering.reorder");
    ("sddm.permute_s", "sddm.permute");
    ("factor.factorize_s", "factor.factorize");
    ("krylov.setup_s", "krylov.setup");
  ]

let solve_layers =
  [
    ("krylov.precond_s", "krylov.precond");
    ("krylov.spmv_s", "krylov.spmv");
    ("krylov.vec_s", "krylov.pcg");
    ("sddm.verify_s", "sddm.verify");
  ]

(* Total self time of each layer: for layers that ran once, in set-up. *)
let totals tr layers =
  let self = Spans.self_times tr in
  List.map (fun (m, s) -> (m, self s)) layers

(* The per-layer split of a traced run: [per_op] layers are reported as
   their self time per traced [op] span and must add up to the untraced
   operation time ([untraced_s]). *)
let split tr ~op ~untraced_s ~per_op =
  let ops = Spans.durations tr op in
  let n_ops = float_of_int (max 1 (Array.length ops)) in
  let per_op = List.map (fun (m, s) -> (m, s /. n_ops)) (totals tr per_op) in
  let accounted = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 per_op in
  per_op
  @ [
      ("layers.unaccounted_frac", 1.0 -. (accounted /. untraced_s));
      ("obs.trace_overhead", Measure.mean ops /. untraced_s);
    ]
