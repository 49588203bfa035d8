(* The "factor" experiment: the numeric phase of LT-RChol (DESIGN.md §15)
   timed on its own, on the production ordering of one grid. The timing
   lands in the bench.json "factor" section; paper-scale runs also add a
   factor-<nodes> row to fig3's CSV.

   Environment:
     BENCH_FACTOR_NODES    override the grid size (default 5e5 * BENCH_SCALE,
                           floored at 2e4 so the smoke run stays meaningful)
     BENCH_FACTOR_REPS     timing repetitions, best-of (default 3) *)

open Runner

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let reps = max 1 (getenv_int "BENCH_FACTOR_REPS" 3)

let target_nodes =
  let scaled = int_of_float (500_000.0 *. scale) in
  max 20_000 (getenv_int "BENCH_FACTOR_NODES" scaled)

let run () =
  header (Printf.sprintf "Factor: numeric phase, %d-node grid" target_nodes);
  let case = Powergrid.Suite.scale_case ~target_nodes () in
  let p = problem_of case in
  let g = p.Sddm.Problem.graph in
  let n = Sddm.Problem.n p and nnz = Sddm.Problem.nnz p in
  (* the production pipeline's reordering (Solver.powerrchol_prepare) *)
  let perm = Ordering.Partitioned.order g in
  let gp = Sddm.Graph.permute g perm in
  let d = p.Sddm.Problem.d in
  let dp = Array.init n (fun k -> d.(perm.(k))) in
  let buckets = Factor.Lt_rchol.default_buckets in
  (* best-of-[reps] wall time; every reseed makes the factorization a
     replay of the same sampled structure *)
  let t_seq = ref infinity and factor_nnz = ref 0 in
  for _ = 1 to reps do
    let rng = Rng.create 42 in
    let t0 = Unix.gettimeofday () in
    let l = Factor.Lt_rchol.factorize ~buckets ~rng gp ~d:dp in
    let t = Unix.gettimeofday () -. t0 in
    if t < !t_seq then t_seq := t;
    factor_nnz := Factor.Lower.nnz l
  done;
  let t_seq = !t_seq and factor_nnz = !factor_nnz in
  printf "case %s: n = %d, nnz = %d, factor nnz = %d\n"
    case.Powergrid.Suite.id n nnz factor_nnz;
  printf "factorize: %8.3f s  (best of %d)\n" t_seq reps;
  record_factor
    (Obs.Json.Obj
       [
         ("case", Obs.Json.Str case.Powergrid.Suite.id);
         ("nodes", Obs.Json.Int n);
         ("nnz", Obs.Json.Int nnz);
         ("factor_nnz", Obs.Json.Int factor_nnz);
         ("reps", Obs.Json.Int reps);
         ("t_seq", Obs.Json.Float t_seq);
       ]);
  (* paper-scale runs also land in fig3's CSV as factorization seconds per
     Mnnz — smoke-sized runs stay out of the committed sweep *)
  if n >= 500_000 then begin
    let mnnz = float_of_int nnz /. 1e6 in
    append_csv "fig3_seconds_per_mnnz.csv" ~header:fig3_csv_header
      [ Printf.sprintf "factor-%d,%d,,,,,,%.6f" n nnz (t_seq /. mnnz) ]
  end;
  (* don't leave a paper-scale grid squeezing later phases *)
  drop_cached_problem case
