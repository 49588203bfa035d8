(* rhs-stream: one powerrchol handle on pg08, prepared in set-up, then a
   closed loop of Solver.solve_prepared over distinct seeded load
   vectors — a batch of load corners. Reorder and factor are outside the
   timed window, so only the PCG kernels and the fill of the factor
   show.

   The grid is pg08 at a quarter of its area (about 2.4e4 nodes, a 5 MiB
   working set: above the L2, inside the L3). Each solve then takes about
   0.1 s, so a run holds several hundred of them and its median and tail
   rest on many samples. Timed in the same minutes against a small
   L2-resident solve, the median multiple of full-size pg08 solves
   (0.5 s each) moved by 0.017 of itself from one 40 s stretch to the
   next, that of these smaller solves by 0.004. *)

module Solver = Powerrchol.Solver

let case = "pg08"
let scale = 0.25

(* Set-up is cheap at this size; more repetitions steady its median. *)
let setup_reps = 9

let build () =
  let p = (Powergrid.Suite.find ~scale case).Powergrid.Suite.build () in
  (p, Solver.powerrchol_prepare p)

(* Load vector [k] of the stream: the grid's own load sites, each current
   scaled by a factor drawn uniformly from [0.5, 1.5). *)
let load ~seed p k =
  let rng = Rng.keyed ~seed k in
  let b = p.Sddm.Problem.b in
  Sparse.Vec.init (Sparse.Vec.length b) (fun i ->
      let v = Sparse.Vec.get b i in
      if v = 0.0 then 0.0 else v *. Rng.float_range rng 0.5 1.5)

let run ~seed ~seconds ~trace =
  let reference = Reference.create () in
  let (p, h), setup_s, setup_xref =
    Workload.repeat_setup ~reference ~reps:setup_reps build
  in
  let tally = Workload.tally () in
  let n = Sddm.Problem.n p in
  (* the reference is timed before every solve and once after the last *)
  let refs = ref [] in
  let solve b =
    refs := Reference.time reference :: !refs;
    let t0 = Measure.now () in
    let r = Solver.solve_prepared ~rtol:Measure.rtol ~b h in
    let dt = Measure.now () -. t0 in
    Workload.check tally ~what:"solve_prepared"
      (Measure.solve_ok ~converged:r.Solver.converged ~residual:r.Solver.residual);
    (r, dt)
  in
  let times = ref [] in
  let k = ref 0 in
  let deadline = Measure.now () +. seconds in
  let next_load () =
    incr k;
    load ~seed p !k
  in
  let spans, layers =
    if not trace then begin
      while Measure.now () < deadline do
        let b = next_load () in
        times := snd (solve b) :: !times
      done;
      (None, [])
    end
    else begin
      let tr = Spans.create () in
      let replay = Replay.prepare tr p in
      Workload.check tally ~what:"traced prepare factor nnz"
        (replay.Replay.factor_nnz = h.Solver.factor_nnz);
      let iterations = ref 0 in
      while Measure.now () < deadline do
        let b = next_load () in
        let r, dt = solve b in
        times := dt :: !times;
        let s =
          Spans.span tr "op" (fun () ->
              Replay.solve tr ~precond:replay.Replay.precond
                ~workspace:replay.Replay.workspace ~b p)
        in
        iterations := !iterations + s.Replay.iterations;
        Workload.check tally ~what:"traced replay differs from solve_prepared"
          (s.Replay.iterations = r.Solver.iterations
          && Measure.fnv_vec s.Replay.x = Measure.fnv_vec r.Solver.x)
      done;
      let ops = max 1 !k in
      ( Some tr,
        Replay.split tr ~op:"op"
          ~untraced_s:(Measure.mean (Array.of_list !times))
          ~per_op:Replay.solve_layers
        @ Replay.totals tr Replay.prepare_layers
        @ [
            ( "factor.nnz_ratio",
              float_of_int h.Solver.factor_nnz /. float_of_int (Sddm.Problem.nnz p) );
            ("krylov.iterations", float_of_int !iterations /. float_of_int ops);
            ( "krylov.bytes_per_iter",
              Replay.bytes_per_iter ~n ~nnz_a:(Sddm.Problem.nnz p)
                ~nnz_l:h.Solver.factor_nnz );
          ] )
    end
  in
  refs := Reference.time reference :: !refs;
  let refs = Array.of_list (List.rev !refs) in
  let times = Array.of_list (List.rev !times) in
  {
    Workload.attempted = tally.Workload.attempted;
    failed = tally.Workload.failed;
    kinds =
      [
        {
          Workload.name = "resolve";
          ms = Array.map (fun s -> s *. 1000.0) times;
          (* each solve against the mean of the timings on either side *)
          xref = Array.mapi (fun i s -> 2.0 *. s /. (refs.(i) +. refs.(i + 1))) times;
        };
      ];
    reference_ms = Array.map (fun s -> s *. 1000.0) refs;
    setup_s;
    setup_xref;
    peak_rss_mb = Measure.vmhwm_mb None;
    layers;
    spans;
    info =
      [
        ("case", Obs.Json.Str case);
        ("scale", Obs.Json.Float scale);
        ("n", Obs.Json.Int n);
        ("nnz", Obs.Json.Int (Sddm.Problem.nnz p));
        ("factor_nnz", Obs.Json.Int h.Solver.factor_nnz);
        ( "working_set_mb",
          Obs.Json.Float
            (Replay.working_set ~n ~nnz_a:(Sddm.Problem.nnz p)
               ~nnz_l:h.Solver.factor_nnz
            /. 1048576.0) );
      ];
  }
