type prepared = {
  solver_name : string;
  problem : Sddm.Problem.t;
  precond : Krylov.Precond.t;
  workspace : Krylov.Pcg.Workspace.t;
  t_reorder : float;
  t_precond : float;
  factor_nnz : int;
}

type t = {
  name : string;
  prepare : Sddm.Problem.t -> prepared;
}

type result = {
  solver : string;
  x : Sparse.Vec.t;
  iterations : int;
  status : Krylov.Pcg.status;
  converged : bool;
  residual : float;
  t_reorder : float;
  t_precond : float;
  t_iterate : float;
  t_total : float;
  factor_nnz : int;
}

let default_seed = 20240623

(* The phase clock: run [f] inside the Obs span [name] and return its
   value with the elapsed {!Obs.now} seconds, so a handle's phase times
   and the profile's span times are read around the same code. *)
let timed name f =
  let t0 = Obs.now () in
  let v = Obs.span name f in
  (v, Obs.now () -. t0)

(* Every prepare ends here: a fresh PCG workspace, and the
   preconditioner size ratio lands in the record regardless of which
   solver ran. *)
let make_prepared ~solver_name problem ~precond ~t_reorder ~t_precond
    ~factor_nnz =
  if Obs.enabled () then
    Obs.gauge "precond_nnz_ratio"
      (float_of_int factor_nnz
      /. float_of_int (max 1 (Sddm.Problem.nnz problem)));
  {
    solver_name;
    problem;
    precond;
    workspace = Krylov.Pcg.Workspace.create (Sddm.Problem.n problem);
    t_reorder;
    t_precond;
    factor_nnz;
  }

let prepare solver problem =
  Obs.span "prepare" (fun () -> solver.prepare problem)

let solve_prepared_ws ?rtol ?(max_iter = 500) ?deadline ?x0 ?(history = false)
    ?(condition = false) ?b ~workspace (p : prepared) =
  let problem = p.problem in
  let n = Sddm.Problem.n problem in
  let b = match b with Some b -> b | None -> problem.Sddm.Problem.b in
  if Sparse.Vec.length b <> n then
    invalid_arg
      (Printf.sprintf
         "Solver.solve_prepared: rhs length %d, system dimension %d"
         (Sparse.Vec.length b) n);
  let x, warm_start =
    match x0 with
    | Some v ->
      if Sparse.Vec.length v <> n then
        invalid_arg
          (Printf.sprintf
             "Solver.solve_prepared: x0 length %d, system dimension %d"
             (Sparse.Vec.length v) n);
      (Sparse.Vec.copy v, true)
    | None -> (Sparse.Vec.create n, false)
  in
  let pcg, t_iterate =
    timed "pcg" (fun () ->
        Krylov.Pcg.solve_into ?rtol ~max_iter ?deadline ~history ~condition
          ~warm_start ~workspace ~x ~a:problem.Sddm.Problem.a ~b
          ~precond:p.precond ())
  in
  {
    solver = p.solver_name;
    x = pcg.Krylov.Pcg.x;
    iterations = pcg.Krylov.Pcg.iterations;
    status = pcg.Krylov.Pcg.status;
    converged = pcg.Krylov.Pcg.converged;
    residual = Sddm.Problem.residual_norm_against problem ~b pcg.Krylov.Pcg.x;
    (* marginal-cost semantics: the preparation was paid once and lives on
       the handle, so a prepared solve reports zero reorder/factor time
       and t_total = t_iterate. Summing many solve_prepared results plus
       one (t_reorder + t_precond) from the handle gives the honest
       amortized total. *)
    t_reorder = 0.0;
    t_precond = 0.0;
    t_iterate;
    t_total = t_iterate;
    factor_nnz = p.factor_nnz;
  }

let solve_prepared ?rtol ?max_iter ?deadline ?x0 ?history ?condition ?b
    (p : prepared) =
  solve_prepared_ws ?rtol ?max_iter ?deadline ?x0 ?history ?condition ?b
    ~workspace:p.workspace p

let solve_many ?rtol ?max_iter ?deadline ?history ?condition (p : prepared) bs
    =
  let pool = Par.default () in
  let nb = Array.length bs in
  let obs = Obs.enabled () in
  (* Each solve runs in its own "solve#k" span (k = global batch index)
     and logs its wall time into the "solve_seconds" latency histogram.
     On the parallel path the spans land in per-chunk Obs worker stores
     (see Par.parallel_for), which Obs.capture merges deterministically —
     since every solve#k path is unique, merged counter totals are
     bit-identical to the sequential run at any domain count. *)
  let solve_one ~workspace k b =
    let t0 = if obs then Obs.now () else 0.0 in
    let r =
      Obs.span
        (Printf.sprintf "solve#%d" k)
        (fun () ->
          solve_prepared_ws ?rtol ?max_iter ?deadline ?history ?condition ~b
            ~workspace p)
    in
    if obs then Obs.observe "solve_seconds" (Obs.now () -. t0);
    r
  in
  Obs.span "solve_many" (fun () ->
      if nb <= 1 || not (Par.runs_parallel pool) then
        Array.mapi (fun k b -> solve_one ~workspace:p.workspace k b) bs
      else begin
        (* Fan the batch across the pool, one contiguous chunk of
           right-hand sides per domain. Each chunk gets its own PCG
           workspace (the handle's single workspace serves one solve at
           a time), and the pool is busy for the region's duration so
           every solve's inner kernels run sequentially — which makes
           the batch results bit-identical to the sequential path at any
           domain count. *)
        let n = Sddm.Problem.n p.problem in
        let results = Array.make nb None in
        Par.parallel_for pool ~lo:0 ~hi:nb (fun lo hi ->
            let workspace = Krylov.Pcg.Workspace.create n in
            for k = lo to hi - 1 do
              results.(k) <- Some (solve_one ~workspace k bs.(k))
            done);
        Array.map (function Some r -> r | None -> assert false) results
      end)

let with_prepare_cost (p : prepared) (r : result) =
  {
    r with
    t_reorder = p.t_reorder;
    t_precond = p.t_precond;
    t_total = p.t_reorder +. p.t_precond +. r.t_iterate;
  }

let iterate ?rtol ?max_iter ?deadline solver prepared problem =
  let r =
    solve_prepared_ws ?rtol ?max_iter ?deadline ~history:true ~condition:true
      ~workspace:prepared.workspace { prepared with problem }
  in
  { (with_prepare_cost prepared r) with solver = solver.name }

let run ?rtol ?max_iter ?deadline solver problem =
  iterate ?rtol ?max_iter ?deadline solver (solver.prepare problem) problem

(* ---- orderings ---- *)

type ordering =
  | Amd
  | Natural
  | Degree_sort
  | Rcm
  | Nested_dissection
  | Partitioned

let ordering_name = function
  | Amd -> "amd"
  | Natural -> "natural"
  | Degree_sort -> "alg4"
  | Rcm -> "rcm"
  | Nested_dissection -> "nd"
  | Partitioned -> "part"

let apply_ordering ordering g =
  match ordering with
  | Amd -> Ordering.Amd.order g
  | Natural -> Ordering.Natural.order g
  | Degree_sort -> Ordering.Degree_sort.order g
  | Rcm -> Ordering.Rcm.order g
  | Nested_dissection -> Ordering.Nested_dissection.order g
  | Partitioned -> Ordering.Partitioned.order g

(* ---- randomized-Cholesky solvers ---- *)

(* The reorder phase, shared by every preparation that computes its own
   permutation. *)
let reorder order g = timed "reorder" (fun () -> order g)

(* The one randomized-Cholesky preparation: reorder (unless [perm] is
   given: reordering is deterministic and seed-independent, so a caller
   holding the permutation skips straight to the factorization), permute
   graph and excess, seed the generator, factorize, assemble the handle. *)
let prepare_rand_chol ~name ~order ~factorize ~lower ?perm ~seed problem =
  let g = problem.Sddm.Problem.graph in
  let perm, t_reorder =
    match perm with Some perm -> (perm, 0.0) | None -> reorder order g
  in
  let f, t_precond =
    timed "factor" (fun () ->
        let gp = Sddm.Graph.permute g perm in
        let d = problem.Sddm.Problem.d in
        let dp = Array.init (Array.length perm) (fun k -> d.(perm.(k))) in
        factorize ~rng:(Rng.create seed) gp ~d:dp)
  in
  let l = lower f in
  ( perm,
    f,
    make_prepared ~solver_name:name problem
      ~precond:(Krylov.Precond.of_factor ~name ~perm l)
      ~t_reorder ~t_precond ~factor_nnz:(Factor.Lower.nnz l) )

let rand_chol_solver ~name ~ordering ~factorize ?(seed = default_seed) () =
  let prepare problem =
    let _, _, p =
      prepare_rand_chol ~name ~order:(apply_ordering ordering) ~factorize
        ~lower:Fun.id ~seed problem
    in
    p
  in
  { name; prepare }

let rand_chol_custom ~name ~sort ~sampling ~ordering ?seed () =
  rand_chol_solver ~name ~ordering
    ~factorize:(Factor.Rand_chol.factorize ~sort ~sampling)
    ?seed ()

let rchol ?(ordering = Amd) ?seed () =
  rand_chol_solver
    ~name:(Printf.sprintf "rchol(%s)" (ordering_name ordering))
    ~ordering ~factorize:Factor.Rchol.factorize ?seed ()

let lt_rchol ?(ordering = Amd) ?(buckets = Factor.Lt_rchol.default_buckets)
    ?seed () =
  rand_chol_solver
    ~name:(Printf.sprintf "lt-rchol(%s)" (ordering_name ordering))
    ~ordering ~factorize:(Factor.Lt_rchol.factorize ~buckets) ?seed ()

let default_heavy_factor = 10.0

(* Partitioned = recursive bisection with Alg. 4 degree sort inside each
   block: same local fill behavior as plain Alg. 4. It stays the default
   because the benchmark's replay reproduces this ordering (DESIGN.md
   §15). *)
let powerrchol_prepare ?(buckets = Factor.Lt_rchol.default_buckets)
    ?(heavy_factor = default_heavy_factor) ?(seed = default_seed) ?perm
    problem =
  let _, _, p =
    prepare_rand_chol ~name:"powerrchol"
      ~order:(Ordering.Partitioned.order ~heavy_factor)
      ~factorize:(Factor.Lt_rchol.factorize ~buckets)
      ~lower:Fun.id ?perm ~seed problem
  in
  p

let powerrchol ?buckets ?heavy_factor ?seed () =
  {
    name = "powerrchol";
    prepare =
      (fun problem -> powerrchol_prepare ?buckets ?heavy_factor ?seed problem);
  }

(* ---- feGRASS solvers ---- *)

let fegrass_prepare ~name ~recover_fraction ~factorize problem =
  let (sp, sparsifier_a), t_sparsify =
    timed "factor" (fun () ->
        let sp =
          Fegrass.sparsify ~recover_fraction problem.Sddm.Problem.graph
        in
        (sp, Sddm.Graph.to_sddm sp.Fegrass.graph problem.Sddm.Problem.d))
  in
  (* The sparsifier is near-tree; AMD keeps its exact factor sparse. The
     reordering time is charged to t_reorder like the paper's tables. *)
  let perm, t_reorder = reorder Ordering.Amd.order sp.Fegrass.graph in
  let l, t_factor =
    timed "factor" (fun () ->
        factorize (Sparse.Csc.permute_sym sparsifier_a perm))
  in
  make_prepared ~solver_name:name problem
    ~precond:(Krylov.Precond.of_factor ~name:"fegrass" ~perm l)
    ~t_reorder ~t_precond:(t_factor +. t_sparsify)
    ~factor_nnz:(Factor.Lower.nnz l)

let fegrass ?(recover_fraction = 0.02) () =
  {
    name = "fegrass";
    prepare =
      fegrass_prepare ~name:"fegrass" ~recover_fraction
        ~factorize:Factor.Chol.factorize;
  }

let fegrass_ichol ?(recover_fraction = 0.5) ?(drop_tol = 8.5e-6) () =
  {
    name = "fegrass-ichol";
    prepare =
      fegrass_prepare ~name:"fegrass-ichol" ~recover_fraction
        ~factorize:(Factor.Ichol.factorize ~drop_tol);
  }

(* ---- AMG ---- *)

let amg_pcg ?(theta = 0.08) ?smoother () =
  let prepare problem =
    let hierarchy, t_precond =
      timed "factor" (fun () ->
          Amg.build ~theta ?smoother problem.Sddm.Problem.a)
    in
    let precond = Amg.preconditioner hierarchy in
    make_prepared ~solver_name:"amg-pcg" problem ~precond ~t_reorder:0.0
      ~t_precond ~factor_nnz:precond.Krylov.Precond.nnz
  in
  { name = "amg-pcg"; prepare }

(* ---- direct & trivial baselines ---- *)

let direct () =
  let prepare problem =
    let perm, t_reorder =
      reorder Ordering.Amd.order problem.Sddm.Problem.graph
    in
    let l, t_precond =
      timed "factor" (fun () ->
          Factor.Chol.factorize
            (Sparse.Csc.permute_sym problem.Sddm.Problem.a perm))
    in
    make_prepared ~solver_name:"direct" problem
      ~precond:(Krylov.Precond.of_factor ~name:"direct" ~perm l)
      ~t_reorder ~t_precond ~factor_nnz:(Factor.Lower.nnz l)
  in
  { name = "direct"; prepare }

let jacobi () =
  let prepare problem =
    let precond, t_precond =
      timed "factor" (fun () -> Krylov.Precond.jacobi problem.Sddm.Problem.a)
    in
    make_prepared ~solver_name:"jacobi" problem ~precond ~t_reorder:0.0
      ~t_precond ~factor_nnz:precond.Krylov.Precond.nnz
  in
  { name = "jacobi"; prepare }

(* ---- hardened solve path: diagnose, escalate, verify ---- *)

type robust_result = {
  diagnostics : Robust.Diagnose.report;
  outcome : robust_outcome;
}

and robust_outcome =
  | Robust_solved of {
      x : Sparse.Vec.t;
      winner : string;
      iterations : int;
      residual : float;
      attempts : Robust.Fallback.attempt list;
    }
  | Robust_rejected of { reasons : string list }
  | Robust_exhausted of { attempts : Robust.Fallback.attempt list }

let robust_ok r = match r.outcome with Robust_solved _ -> true | _ -> false

let rung_of_prepared ?deadline ~name ~rtol ~max_iter prepare_fn =
  {
    Robust.Fallback.name;
    solve =
      (fun problem ->
        let p = prepare_fn problem in
        let r = solve_prepared ~rtol ~max_iter ?deadline p in
        {
          Robust.Fallback.x = r.x;
          iterations = r.iterations;
          note = Krylov.Pcg.status_to_string r.status;
        });
  }

(* Deterministic seed derivation for the reseed-and-retry rungs. *)
let reseed seed i = seed + (1000003 * (i + 1))

let robust_rungs ?(seed = default_seed) ?(retries = 2) ?deadline ~rtol
    ~max_iter () =
  (* The reseed rungs reuse the Alg. 4 permutation computed by the first
     powerrchol rung: reordering is deterministic and seed-independent, so
     a reseed only needs to re-run the (randomized) factorization. The
     memo keys by physical problem identity, so on disconnected grids each
     island component computes its own permutation exactly once. *)
  let memo : (Sddm.Problem.t * Sparse.Perm.t) option ref = ref None in
  let perm_for problem =
    match !memo with
    | Some (p, perm) when p == problem ->
      Obs.count "robust/perm_reuse" 1;
      perm
    | _ ->
      let perm, _ =
        reorder
          (Ordering.Degree_sort.order ~heavy_factor:default_heavy_factor)
          problem.Sddm.Problem.graph
      in
      memo := Some (problem, perm);
      perm
  in
  let powerrchol_rung ~name seed =
    rung_of_prepared ?deadline ~name ~rtol ~max_iter (fun problem ->
        powerrchol_prepare ~seed ~perm:(perm_for problem) problem)
  in
  powerrchol_rung ~name:"powerrchol" seed
  :: List.init retries (fun i ->
         powerrchol_rung
           ~name:(Printf.sprintf "powerrchol(reseed %d)" (i + 1))
           (reseed seed i))
  @ List.map
      (fun solver ->
        rung_of_prepared ?deadline ~name:solver.name ~rtol ~max_iter
          solver.prepare)
      [ rchol ~ordering:Amd ~seed (); jacobi (); direct () ]

let solve_robust ?(rtol = 1e-6) ?(max_iter = 500) ?(seed = default_seed)
    ?(retries = 2) ?deadline problem =
  let diagnostics = Robust.Diagnose.of_problem problem in
  if Robust.Diagnose.has_fatal diagnostics then
    {
      diagnostics;
      outcome =
        Robust_rejected
          {
            reasons =
              List.map Robust.Diagnose.issue_to_string
                (Robust.Diagnose.fatal_issues diagnostics);
          };
    }
  else begin
    let rungs = robust_rungs ~seed ~retries ?deadline ~rtol ~max_iter () in
    let comps = Robust.Diagnose.split_components problem in
    if Array.length comps = 1 then begin
      let o = Robust.Fallback.run ~rtol ?deadline ~rungs problem in
      match (o.Robust.Fallback.x, o.Robust.Fallback.winner) with
      | Some x, Some winner ->
        {
          diagnostics;
          outcome =
            Robust_solved
              {
                x;
                winner;
                iterations = o.Robust.Fallback.iterations;
                residual = o.Robust.Fallback.residual;
                attempts = o.Robust.Fallback.attempts;
              };
        }
      | _ ->
        {
          diagnostics;
          outcome = Robust_exhausted { attempts = o.Robust.Fallback.attempts };
        }
    end
    else begin
      (* clean but disconnected: solve every grounded island independently
         and scatter the solutions back (per-island rtol implies the global
         rtol because the islands are orthogonal blocks of A) *)
      let n = Sddm.Problem.n problem in
      let parts =
        Array.map
          (fun c ->
            ( c,
              Robust.Fallback.run ~rtol ?deadline ~rungs
                c.Robust.Diagnose.problem ))
          comps
      in
      let attempts =
        Array.to_list parts
        |> List.mapi (fun i ((_, o) : Robust.Diagnose.component * _) ->
               List.map
                 (fun (a : Robust.Fallback.attempt) ->
                   {
                     a with
                     Robust.Fallback.rung =
                       Printf.sprintf "c%d/%s" i a.Robust.Fallback.rung;
                   })
                 o.Robust.Fallback.attempts)
        |> List.concat
      in
      if Array.for_all (fun (_, o) -> Robust.Fallback.succeeded o) parts then begin
        let x =
          Robust.Diagnose.assemble ~n
            (Array.to_list parts
            |> List.map (fun ((c, o) : _ * Robust.Fallback.outcome) ->
                   (c, Option.get o.Robust.Fallback.x)))
        in
        let residual = Sddm.Problem.residual_norm problem x in
        let iterations =
          Array.fold_left
            (fun acc (_, (o : Robust.Fallback.outcome)) ->
              acc + o.Robust.Fallback.iterations)
            0 parts
        in
        let winner =
          Array.to_list parts
          |> List.map (fun (_, (o : Robust.Fallback.outcome)) ->
                 Option.get o.Robust.Fallback.winner)
          |> List.sort_uniq compare |> String.concat "+"
        in
        {
          diagnostics;
          outcome = Robust_solved { x; winner; iterations; residual; attempts };
        }
      end
      else { diagnostics; outcome = Robust_exhausted { attempts } }
    end
  end

(* ---- telemetry ---- *)

(* A profiled run owns the global Obs store for its duration: reset,
   enable, run, snapshot. The previous enabled state is restored so
   nesting a profiled solve inside other instrumented code stays sane. *)
let with_obs ~meta_of f =
  let was = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  match f () with
  | v ->
    let record = Obs.capture ~meta:(meta_of v) () in
    Obs.set_enabled was;
    (v, record)
  | exception exn ->
    Obs.set_enabled was;
    raise exn

let result_meta problem (r : result) =
  [
    ("solver", Obs.Json.Str r.solver);
    ("case", Obs.Json.Str problem.Sddm.Problem.name);
    ("n", Obs.Json.Int (Sddm.Problem.n problem));
    ("nnz", Obs.Json.Int (Sddm.Problem.nnz problem));
    ("iterations", Obs.Json.Int r.iterations);
    ("status", Obs.Json.Str (Krylov.Pcg.status_to_string r.status));
    ("converged", Obs.Json.Bool r.converged);
    ("relres", Obs.Json.Float r.residual);
    ("t_reorder", Obs.Json.Float r.t_reorder);
    ("t_factor", Obs.Json.Float r.t_precond);
    ("t_iterate", Obs.Json.Float r.t_iterate);
    ("t_total", Obs.Json.Float r.t_total);
    ("factor_nnz", Obs.Json.Int r.factor_nnz);
    ("par_backend", Obs.Json.Str Par.backend);
    ("domains", Obs.Json.Int (Par.effective_domains ()));
  ]

let run_profiled ?rtol ?max_iter solver problem =
  with_obs
    ~meta_of:(result_meta problem)
    (fun () -> run ?rtol ?max_iter solver problem)

let robust_meta_of ~case ~n ~nnz (r : robust_result) =
  let common =
    [
      ("mode", Obs.Json.Str "robust");
      ("case", Obs.Json.Str case);
      ("n", Obs.Json.Int n);
      ("nnz", Obs.Json.Int nnz);
      ("par_backend", Obs.Json.Str Par.backend);
      ("domains", Obs.Json.Int (Par.effective_domains ()));
    ]
  in
  common
  @
  match r.outcome with
  | Robust_solved { winner; iterations; residual; attempts; _ } ->
    [
      ("outcome", Obs.Json.Str "solved");
      ("winner", Obs.Json.Str winner);
      ("iterations", Obs.Json.Int iterations);
      ("relres", Obs.Json.Float residual);
      ("failed_rungs", Obs.Json.Int (List.length attempts));
    ]
  | Robust_rejected { reasons } ->
    [
      ("outcome", Obs.Json.Str "rejected");
      ("reasons", Obs.Json.List (List.map (fun m -> Obs.Json.Str m) reasons));
    ]
  | Robust_exhausted { attempts } ->
    [
      ("outcome", Obs.Json.Str "exhausted");
      ("failed_rungs", Obs.Json.Int (List.length attempts));
    ]

let robust_meta problem =
  robust_meta_of
    ~case:problem.Sddm.Problem.name
    ~n:(Sddm.Problem.n problem)
    ~nnz:(Sddm.Problem.nnz problem)

let solve_robust_profiled ?rtol ?max_iter ?seed ?retries ?deadline problem =
  with_obs
    ~meta_of:(robust_meta problem)
    (fun () -> solve_robust ?rtol ?max_iter ?seed ?retries ?deadline problem)

(* Deterministic one-line rendering of the whole robust run: diagnostic
   summary, every failed rung with its reason, and the final verdict. Used
   by the determinism tests (byte-identical across equal-seed runs) and the
   CLI trace output. *)
let robust_trace r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "diagnose: n=%d nnz=%d components=%d issues=[%s] | "
       r.diagnostics.Robust.Diagnose.n r.diagnostics.Robust.Diagnose.nnz
       r.diagnostics.Robust.Diagnose.components
       (String.concat "; "
          (List.map Robust.Diagnose.issue_to_string
             r.diagnostics.Robust.Diagnose.issues)));
  let add_attempts attempts =
    List.iter
      (fun (a : Robust.Fallback.attempt) ->
        Buffer.add_string buf
          (Printf.sprintf "failed %s: %s; " a.Robust.Fallback.rung
             (Robust.Fallback.failure_to_string a.Robust.Fallback.failure)))
      attempts
  in
  (match r.outcome with
   | Robust_rejected { reasons } ->
     Buffer.add_string buf ("rejected: " ^ String.concat "; " reasons)
   | Robust_solved { winner; iterations; residual; attempts; _ } ->
     add_attempts attempts;
     Buffer.add_string buf
       (Printf.sprintf "recovered by %s: %d iterations, residual %.6e" winner
          iterations residual)
   | Robust_exhausted { attempts } ->
     add_attempts attempts;
     Buffer.add_string buf "exhausted: no rung produced a verified solution");
  Buffer.contents buf
