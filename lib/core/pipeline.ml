(* Preparations route through the Engine cache: repeated solves of the
   same system (or a solve_many after a solve) reuse one reordering +
   factorization. The result restores full-cost semantics
   (Solver.with_prepare_cost) so the phase-timing tables stay honest even
   when the preparation was cached. *)
let solve ?rtol ?max_iter ?seed ?buckets ?heavy_factor problem =
  let prepared = Engine.powerrchol ?buckets ?heavy_factor ?seed problem in
  (* pass b explicitly: the cached handle may have been prepared from an
     equal-matrix problem with a different right-hand side *)
  Solver.with_prepare_cost prepared
    (Solver.solve_prepared ?rtol ?max_iter ~b:problem.Sddm.Problem.b prepared)

let solve_many ?rtol ?max_iter ?seed ?buckets ?heavy_factor problem bs =
  let prepared = Engine.powerrchol ?buckets ?heavy_factor ?seed problem in
  (prepared, Solver.solve_many ?rtol ?max_iter prepared bs)

let open_session ?seed ?buckets ?heavy_factor problem =
  Engine.Session.create ?seed ?buckets ?heavy_factor problem

let resolve ?rtol ?max_iter session edits =
  let report = Engine.Session.update session edits in
  (report, Engine.Session.solve ?rtol ?max_iter session)

let solve_profiled ?rtol ?max_iter ?seed ?buckets ?heavy_factor problem =
  let solver = Solver.powerrchol ?buckets ?heavy_factor ?seed () in
  Solver.run_profiled ?rtol ?max_iter solver problem

let solve_matrix ?rtol ?max_iter ?seed ?(name = "matrix") ~a ~b () =
  let problem = Sddm.Problem.of_matrix ~name ~a ~b in
  solve ?rtol ?max_iter ?seed problem

let solve_robust ?rtol ?max_iter ?seed ?retries problem =
  Solver.solve_robust ?rtol ?max_iter ?seed ?retries problem

let solve_matrix_robust ?rtol ?max_iter ?seed ?retries ?(name = "matrix") ~a
    ~b () =
  (* Diagnose the raw pair BEFORE validation so corrupted input yields the
     structured report instead of an exception out of [Problem.of_matrix]. *)
  let diagnostics = Robust.Diagnose.run ~a ~b in
  if Robust.Diagnose.has_fatal diagnostics then
    {
      Solver.diagnostics;
      outcome =
        Solver.Robust_rejected
          {
            reasons =
              List.map Robust.Diagnose.issue_to_string
                (Robust.Diagnose.fatal_issues diagnostics);
          };
    }
  else
    match Sddm.Problem.of_matrix ~name ~a ~b with
    | problem -> Solver.solve_robust ?rtol ?max_iter ?seed ?retries problem
    | exception Invalid_argument msg ->
      (* diagnostics missed what validation caught: still a structured
         rejection, with the validator's message as the reason *)
      {
        Solver.diagnostics;
        outcome = Solver.Robust_rejected { reasons = [ msg ] };
      }

let solve_matrix_robust_profiled ?rtol ?max_iter ?seed ?retries
    ?(name = "matrix") ~a ~b () =
  let _, n = Sparse.Csc.dims a in
  Solver.with_obs
    ~meta_of:(Solver.robust_meta_of ~case:name ~n ~nnz:(Sparse.Csc.nnz a))
    (fun () -> solve_matrix_robust ?rtol ?max_iter ?seed ?retries ~name ~a ~b ())

let pp_result fmt (r : Solver.result) =
  Format.fprintf fmt
    "@[<v>solver     : %s@,converged  : %b (%d iterations, residual %.3e)@,\
     status     : %s@,\
     reordering : %.3f s@,factorize  : %.3f s (factor nnz %d)@,\
     iteration  : %.3f s@,total      : %.3f s@]"
    r.Solver.solver r.Solver.converged r.Solver.iterations r.Solver.residual
    (Krylov.Pcg.status_to_string r.Solver.status)
    r.Solver.t_reorder r.Solver.t_precond r.Solver.factor_nnz
    r.Solver.t_iterate r.Solver.t_total

let pp_robust fmt (r : Solver.robust_result) =
  Format.fprintf fmt "@[<v>%a@," Robust.Diagnose.pp_report
    r.Solver.diagnostics;
  let attempts_block attempts =
    List.iter
      (fun (a : Robust.Fallback.attempt) ->
        Format.fprintf fmt "  ✗ %s: %s@," a.Robust.Fallback.rung
          (Robust.Fallback.failure_to_string a.Robust.Fallback.failure))
      attempts
  in
  (match r.Solver.outcome with
   | Solver.Robust_solved { winner; iterations; residual; attempts; _ } ->
     attempts_block attempts;
     Format.fprintf fmt
       "  ✓ recovered by %s: %d iterations, verified residual %.3e" winner
       iterations residual
   | Solver.Robust_rejected { reasons } ->
     Format.fprintf fmt "rejected by pre-flight diagnostics:@,";
     List.iter (fun m -> Format.fprintf fmt "  ✗ %s@," m) reasons
   | Solver.Robust_exhausted { attempts } ->
     attempts_block attempts;
     Format.fprintf fmt "  ✗ fallback chain exhausted");
  Format.fprintf fmt "@]"
