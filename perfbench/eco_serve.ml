(* eco-serve: a pgserve daemon in its own process (this executable,
   started afresh in daemon mode, so the load generator's threads never
   share its runtime lock and its peak memory is its own) serving a
   generated grid through an Mtx spec, the production path for customer
   grids. One process sends an open loop at a fixed offered rate with one
   sender thread per request kind:

   - reads: Proto.solve on the file — the daemon re-reads it,
     re-fingerprints it and hits the Engine cache;
   - writes: Proto.update carrying one Powergrid.Eco.storm batch, which
     goes through the session's local, low-rank, rhs-only or full rung.

   One sender per kind keeps the writes in storm order. Each request is
   timed from when it was due, so a stall also charges the requests it
   delays. *)

module Engine = Powerrchol.Engine
module Solver = Powerrchol.Solver

(* About 1.3e4 nodes. The grid is fixed; the workload seed drives the
   storm and the schedule. *)
let nx = 110
let grid_seed = 2024

(* Offered load in requests per second: one read and two writes per
   cycle of 3/rate seconds. A read costs about 200 ms of service and a
   write about 55 ms on a 2-vCPU x86-64 host, so 3 per second keeps the
   single solve lane about a third busy, and about half busy when the
   host runs 1.6 times slower, as a shared one does for minutes at a
   time. At 4.5 per second such a slowdown filled the lane: requests
   waited behind earlier ones (generator lag up to 290 ms), latency grew
   faster than service time, and no host-speed reference could account
   for it (write median spread 0.47 of itself over ten seeds). At one
   write per read, reads delayed writes whenever the host ran slow
   (write tail spread 53% of its median over five seeds). *)
let rate = 3.0
let cycle = 3.0 /. rate

(* The daemon's default solver seed, used by every read. *)
let solver_seed = 42

(* Writes go round-robin to four ECO sessions — the daemon's default
   session capacity, as four engineers editing one grid. Session j is
   keyed by solver seed [solver_seed + j]. Each session takes a quarter
   of the storm, so its preconditioner drifts little within a run, and
   which storm a seed draws does not dominate the write latency. *)
let sessions = 4

let out name = Filename.concat Measure.out_dir name
let mtx_path = out "eco-grid.mtx"
let addr = Proto.Unix_sock (out "pgserve.sock")
let spec_of_path = Proto.Mtx { path = mtx_path }

type kind = Read | Write

type served = {
  pid : int;
  spec : Powergrid.Generate.spec;
  circuit : Powergrid.Generate.circuit;
  problem : Sddm.Problem.t;
}

(* ---- the daemon process ---- *)

(* The argument that starts this executable as the daemon, followed by
   the pid of the benchmark process. *)
let daemon_flag = "--pgserve-daemon"

let daemon_main ~parent =
  Par.set_default_domains 1;
  (* on the CPU where the benchmark process times the reference kernel *)
  ignore (Reference.pin_last_cpu ());
  let config =
    { (Serve.Daemon.default_config addr) with Serve.Daemon.allow_shutdown = true }
  in
  match Serve.Daemon.start config with
  | Error e ->
    prerr_endline ("perfbench: pgserve: " ^ e);
    3
  | Ok t ->
    (* as pgserve does: a signal only asks for a graceful drain *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.Daemon.request_stop t)))
      [ Sys.sigint; Sys.sigterm ];
    (* drain and exit if the benchmark process dies without stopping us *)
    ignore
      (Thread.create
         (fun () ->
           while not (Serve.Daemon.stopping t) do
             if Unix.getppid () <> parent then Serve.Daemon.request_stop t;
             Thread.delay 0.2
           done)
         ());
    Serve.Daemon.wait t;
    Serve.Daemon.stop t;
    0

let children = ref []

(* The daemon's standard output goes to stderr: the last line of stdout
   is the benchmark's result. *)
let spawn_daemon () =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; daemon_flag; string_of_int (Unix.getpid ()) |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  pid

let call ?(io_timeout = 30.0) req =
  Serve.Client.call ~retry:Serve.Client.no_retry ~io_timeout addr req

(* Reap [pid], killing it if it has not exited within [grace] seconds. *)
let reap ?(grace = 10.0) pid =
  let deadline = Measure.now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Measure.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let stop_daemon pid =
  ignore (call ~io_timeout:5.0 Proto.Shutdown);
  reap pid

(* Never leave a daemon behind, whatever ends the run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let fail fmt = Printf.ksprintf failwith fmt

let wait_ready () =
  let deadline = Measure.now () +. 20.0 in
  let rec go () =
    match call ~io_timeout:1.0 Proto.Ping with
    | Ok Proto.Pong -> ()
    | _ when Measure.now () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | _ -> fail "pgserve did not answer a ping within 20 s"
  in
  go ()

let read_request = Proto.solve ~rtol:Measure.rtol ~seed:solver_seed spec_of_path

let write_request i edits =
  Proto.update ~rtol:Measure.rtol ~seed:(solver_seed + (i mod sessions)) ~edits
    spec_of_path

(* Daemon start, grid build, file write and warm-up: one read primes the
   Engine cache, one empty update per session opens the ECO sessions. The
   daemon starts while the grid is built. *)
let setup () =
  let pid = spawn_daemon () in
  let spec = Powergrid.Generate.default ~nx ~ny:nx ~seed:grid_seed in
  let circuit = Powergrid.Generate.generate_circuit spec in
  let problem = Powergrid.Generate.circuit_to_problem ~name:"eco-serve" circuit in
  Sparse.Matrix_market.write ~symmetric:true mtx_path problem.Sddm.Problem.a;
  wait_ready ();
  (match call read_request with
   | Ok (Proto.Solved { converged = true; _ }) -> ()
   | _ -> fail "pgserve warm-up read failed");
  for j = 0 to sessions - 1 do
    match call (write_request j []) with
    | Ok (Proto.Updated { converged = true; _ }) -> ()
    | _ -> fail "pgserve warm-up update failed"
  done;
  { pid; spec; circuit; problem }

(* ---- the open loop ---- *)

type sample = {
  kind : kind;
  due : float;
  mutable sent : float;
  mutable recv : float;
  mutable resp : (Proto.response, string) result;
}

(* Due times for one kind, as phases of the cycle: the read near its
   start, the writes half and three quarters in, each moved by a seeded
   offset of up to a sixty-fourth of a cycle either way. The gaps this
   leaves cover the service times even when the host runs the daemon
   twice as slow as usual (as seen on a shared 2-vCPU machine), so
   the figures measure service, not the luck of a random arrival
   pattern; a change that stretches service past them starts to queue,
   and its latency grows faster than its service time. *)
let schedule ~seed ~start ~seconds kind =
  let phases, key = match kind with Read -> ([| 0.02 |], 0) | Write -> ([| 0.5; 0.76 |], 1) in
  let per = Array.length phases in
  let rng = Rng.keyed ~seed key in
  Array.init (per * int_of_float (seconds /. cycle)) (fun k ->
      let offset = Rng.float_range rng (-1.0 /. 64.0) (1.0 /. 64.0) in
      let phase = float_of_int (k / per) +. phases.(k mod per) in
      let due = start +. (cycle *. (phase +. offset)) in
      { kind; due; sent = 0.0; recv = 0.0; resp = Error "not sent" })

let sender samples request =
  let conn = ref None in
  let connection () =
    match !conn with
    | Some fd -> Ok fd
    | None ->
      let r = Serve.Client.connect addr in
      (match r with Ok fd -> conn := Some fd | Error _ -> ());
      r
  in
  Array.iteri
    (fun i s ->
      let wait = s.due -. Measure.now () in
      if wait > 0.0 then Thread.delay wait;
      s.sent <- Measure.now ();
      s.resp <-
        (match connection () with
         | Error e -> Error e
         | Ok fd ->
           let r = Serve.Client.request ~io_timeout:30.0 fd (request i) in
           (* a transport error leaves the stream unusable; reconnect *)
           (match r with
            | Error _ ->
              Serve.Client.close fd;
              conn := None
            | Ok _ -> ());
           r);
      s.recv <- Measure.now ())
    samples;
  Option.iter Serve.Client.close !conn

(* The reference kernel, timed on the daemon's CPU while the daemon is
   idle: at most every [reference_every] seconds, and only when no
   request is in flight or due within [reference_margin] seconds, so that
   it never competes with the daemon for the CPU. Returns (mid time,
   seconds) of each timing. *)
let reference_every = 0.05
let reference_margin = 0.02

let reference_loop ~reference ~t_end samples =
  let busy now =
    Array.exists (fun s -> s.recv = 0.0 && s.due <= now +. reference_margin) samples
  in
  let refs = ref [] and next = ref 0.0 in
  while Measure.now () < t_end do
    let now = Measure.now () in
    if now >= !next && not (busy now) then begin
      let d = Reference.time reference in
      refs := (now +. (d /. 2.0), d) :: !refs;
      next := now +. reference_every
    end
    else Thread.delay 0.002
  done;
  Array.of_list (List.rev !refs)

(* The host's speed at time [t]: the median of the reference timings
   within a second of it, or the nearest one when there are none. *)
let reference_near refs t =
  let near = Array.to_list refs |> List.filter (fun (m, _) -> Float.abs (m -. t) <= 1.0) in
  match near with
  | [] ->
    snd
      (Array.fold_left
         (fun ((bm, _) as best) ((m, _) as r) ->
           if Float.abs (m -. t) < Float.abs (bm -. t) then r else best)
         (infinity, nan) refs)
  | near -> Measure.median (Array.of_list (List.map snd near))

let health () =
  match call Proto.Health with
  | Ok (Proto.Health_report j) -> (
    match Serve.Health.of_json j with
    | Ok v -> v
    | Error e -> fail "unreadable Health report: %s" e)
  | _ -> fail "pgserve Health request failed"

(* Mean of the samples recorded in [after] but not in [before], from the
   log buckets (geometric bucket midpoints), in the histogram's unit. *)
let hist_window_mean before after =
  let counts h =
    match h with Some h -> Obs.Hist.bucket_counts h | None -> []
  in
  let b = counts before in
  let total = ref 0 and sum = ref 0.0 in
  List.iter
    (fun (i, c) ->
      let c = c - Option.value ~default:0 (List.assoc_opt i b) in
      if c > 0 && i > 0 then begin
        let hi = Obs.Hist.bucket_upper_edge i in
        let lo = Obs.Hist.bucket_upper_edge (i - 1) in
        total := !total + c;
        sum := !sum +. (float_of_int c *. sqrt (lo *. hi))
      end
      else if c > 0 then total := !total + c)
    (counts after);
  if !total = 0 then 0.0 else !sum /. float_of_int !total

let ok_response kind = function
  | Ok (Proto.Solved { converged; residual; _ }) when kind = Read ->
    Measure.solve_ok ~converged ~residual
  | Ok (Proto.Updated { converged; residual; _ }) when kind = Write ->
    Measure.solve_ok ~converged ~residual
  | _ -> false

let describe = function
  | Ok r -> Proto.response_to_string r
  | Error e -> "transport error: " ^ e

(* ---- the traced replay ---- *)

(* The daemon's per-request calls, repeated in this process on the same
   file and the same edits: Matrix_market.read, the problem build, a
   warm-cache Engine.powerrchol for reads; Session.update on a replica
   session for writes; then the PCG replay. *)
let read_problem tr =
  let a = Spans.span tr "sparse.mtx_read" (fun () -> Sparse.Matrix_market.read mtx_path) in
  Spans.span tr "sddm.of_matrix" (fun () ->
      (* the daemon's Mtx load vector *)
      let n, _ = Sparse.Csc.dims a in
      let rng = Rng.create 1 in
      let b = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
      Sddm.Problem.of_matrix ~name:(Filename.basename mtx_path) ~a ~b)

let replay_read tr =
  let p = read_problem tr in
  let h = Spans.span tr "core.engine_lookup" (fun () -> Engine.powerrchol ~seed:solver_seed p) in
  Replay.solve tr ~precond:h.Solver.precond ~workspace:h.Solver.workspace h.Solver.problem

let replay_write tr session edits =
  let report = Spans.span tr "factor.refactor" (fun () -> Engine.Session.update session edits) in
  let prep = Engine.Session.prepared session in
  let s =
    Replay.solve tr ~precond:prep.Solver.precond ~workspace:prep.Solver.workspace
      ~b:(Engine.Session.problem session).Sddm.Problem.b prep.Solver.problem
  in
  (Engine.Session.rung_name report.Engine.Session.rung, s)

let rung_names = [ "local"; "low-rank"; "rhs-only"; "full" ]

let run ~seed ~seconds ~trace =
  Measure.ensure_out_dir ();
  (* this process, the sender threads it starts and the daemon share one
     CPU, on which the reference kernel is timed *)
  let cpu = Reference.pin_last_cpu () in
  let reference = Reference.create () in
  let served, setup_s, setup_xref =
    Workload.repeat_setup ~reference ~teardown:(fun s -> stop_daemon s.pid) setup
  in
  Fun.protect
    ~finally:(fun () ->
      if List.mem served.pid !children then stop_daemon served.pid;
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ mtx_path ])
    (fun () ->
      (* the traced run gives the daemon half the window and the replay
         the rest *)
      let window = if trace then seconds /. 2.0 else seconds in
      let start = Measure.now () +. 0.05 in
      let reads = schedule ~seed ~start ~seconds:window Read in
      let writes = schedule ~seed ~start ~seconds:window Write in
      let storm =
        Powergrid.Eco.storm ~seed ~spec:served.spec served.circuit
          ~count:(Array.length writes)
      in
      let h0 = health () in
      let threads =
        [
          Thread.create (fun () -> sender reads (fun _ -> read_request)) ();
          Thread.create
            (fun () ->
              sender writes (fun i -> write_request i storm.(i).Powergrid.Eco.edits))
            ();
        ]
      in
      let t_end = start +. window in
      let refs = reference_loop ~reference ~t_end (Array.append reads writes) in
      let h1 = health () in
      List.iter Thread.join threads;
      let daemon_rss = Measure.vmhwm_mb (Some served.pid) in
      let bench_rss = Measure.vmhwm_mb None in
      let h2 = health () in
      let samples = Array.append reads writes in
      let tally = Workload.tally () in
      Workload.check tally ~what:"no reference timing in the window" (Array.length refs > 0);
      Array.iter
        (fun s ->
          Workload.check tally
            ~what:
              (Printf.sprintf "%s request: %s"
                 (if s.kind = Read then "read" else "write")
                 (describe s.resp))
            (ok_response s.kind s.resp))
        samples;
      let latencies name kind =
        let of_kind = List.filter (fun s -> s.kind = kind) (Array.to_list samples) in
        {
          Workload.name;
          ms = Array.of_list (List.map (fun s -> (s.recv -. s.due) *. 1000.0) of_kind);
          xref =
            Array.of_list
              (List.map (fun s -> (s.recv -. s.due) /. reference_near refs s.due) of_kind);
        }
      in
      let rungs = Hashtbl.create 4 in
      Array.iter
        (fun s ->
          match s.resp with
          | Ok (Proto.Updated { rung; _ }) ->
            Hashtbl.replace rungs rung
              (1 + Option.value ~default:0 (Hashtbl.find_opt rungs rung))
          | _ -> ())
        writes;
      let rung_count r = Option.value ~default:0 (Hashtbl.find_opt rungs r) in
      (* generator queue depth at the window end: due but not yet sent *)
      let queued_at t =
        Array.fold_left (fun acc s -> if s.due <= t && s.sent > t then acc + 1 else acc) 0 samples
      in
      let backlog_growth =
        queued_at t_end + h1.Serve.Health.inflight - h0.Serve.Health.inflight
      in
      if backlog_growth > 2 then
        Printf.eprintf "perfbench: eco-serve backlog grew by %d over the window\n%!"
          backlog_growth;
      let lag = Array.map (fun s -> (s.sent -. s.due) *. 1000.0) samples in
      let queue_wait_s =
        hist_window_mean h0.Serve.Health.queue_wait h2.Serve.Health.queue_wait
      in
      let read_service =
        Array.to_list reads
        |> List.filter_map (fun s ->
               match s.resp with
               | Ok (Proto.Solved { t_solve_ms; _ }) -> Some (s, t_solve_ms)
               | _ -> None)
      in
      (* transport time: the round trip minus the daemon's own time from
         receipt to reply, which for a read includes its queue wait *)
      let wire_ms =
        Measure.mean
          (Array.of_list
             (List.map (fun (s, t) -> ((s.recv -. s.sent) *. 1000.0) -. t) read_service))
      in
      let hits = h2.Serve.Health.engine_hits - h0.Serve.Health.engine_hits in
      let misses = h2.Serve.Health.engine_misses - h0.Serve.Health.engine_misses in
      let spans, layers =
        if not trace then (None, [])
        else begin
          let tr = Spans.create () in
          (* set-up layers: one prepare of the served grid *)
          ignore (Replay.prepare tr served.problem);
          (* the replica: what the daemon built during warm-up *)
          let warm = Spans.create () in
          ignore (replay_read warm);
          let replicas =
            Array.init sessions (fun j ->
                let s = Engine.Session.create ~seed:(solver_seed + j) (read_problem warm) in
                ignore (Engine.Session.update s []);
                s)
          in
          (* in due order; writes carry their storm index *)
          let by_due =
            List.stable_sort
              (fun (a, _) (b, _) -> Float.compare a.due b.due)
              (List.map (fun s -> (s, None)) (Array.to_list reads)
              @ List.mapi (fun i s -> (s, Some i)) (Array.to_list writes))
          in
          let w = ref 0 and total_iterations = ref 0 in
          List.iter
            (fun (s, write) ->
              match write, s.resp with
              | None, Ok (Proto.Solved { iterations; residual; _ }) ->
                let r = Spans.span tr "op" (fun () -> replay_read tr) in
                total_iterations := !total_iterations + r.Replay.iterations;
                Workload.check tally ~what:"traced read replay differs from the daemon"
                  (r.Replay.iterations = iterations && r.Replay.residual = residual)
              | Some i, Ok (Proto.Updated { rung; iterations; residual; _ }) ->
                incr w;
                let edits = storm.(i).Powergrid.Eco.edits in
                let session = replicas.(i mod sessions) in
                let rung', r = Spans.span tr "op" (fun () -> replay_write tr session edits) in
                total_iterations := !total_iterations + r.Replay.iterations;
                Workload.check tally ~what:"traced write replay differs from the daemon"
                  (rung' = rung && r.Replay.iterations = iterations
                  && r.Replay.residual = residual)
              | _ -> ())
            by_due;
          (* fill and traffic of the first session's factor *)
          let prep = Engine.Session.prepared replicas.(0) in
          let p = prep.Solver.problem in
          let self = Spans.self_times tr in
          let n_reads = float_of_int (max 1 (List.length read_service)) in
          let n_writes = float_of_int (max 1 !w) in
          let ops = Spans.durations tr "op" in
          let n_ops = float_of_int (max 1 (Array.length ops)) in
          let per_read name = 1000.0 *. self name /. n_reads in
          let service_layers =
            [ "sparse.mtx_read"; "sddm.of_matrix"; "core.engine_lookup"; "factor.refactor" ]
            @ List.map snd Replay.solve_layers
          in
          let replayed_s =
            List.fold_left (fun acc name -> acc +. self name) 0.0 service_layers /. n_ops
          in
          let rtt_s = Measure.mean (Array.map (fun s -> s.recv -. s.sent) samples) in
          (* the daemon's own untraced service time per request *)
          let daemon_s =
            Measure.mean
              (Array.of_list
                 (List.filter_map
                    (fun s ->
                      match s.resp with
                      | Ok (Proto.Solved { t_solve_ms; _ }) ->
                        Some ((t_solve_ms /. 1000.0) -. queue_wait_s)
                      | Ok (Proto.Updated { t_update_ms; t_solve_ms; _ }) ->
                        Some ((t_update_ms +. t_solve_ms) /. 1000.0)
                      | _ -> None)
                    (Array.to_list samples)))
          in
          let accounted_s = replayed_s +. queue_wait_s +. (wire_ms /. 1000.0) in
          ( Some tr,
            List.map (fun (m, s) -> (m, self s /. n_ops)) Replay.solve_layers
            @ Replay.totals tr Replay.prepare_layers
            @ [
                ("sparse.mtx_read_ms", per_read "sparse.mtx_read");
                ("sddm.of_matrix_ms", per_read "sddm.of_matrix");
                ("core.engine_lookup_ms", per_read "core.engine_lookup");
                ("factor.refactor_ms", 1000.0 *. self "factor.refactor" /. n_writes);
                ( "factor.nnz_ratio",
                  float_of_int prep.Solver.factor_nnz /. float_of_int (Sddm.Problem.nnz p) );
                ("krylov.iterations", float_of_int !total_iterations /. n_ops);
                ( "krylov.bytes_per_iter",
                  Replay.bytes_per_iter ~n:(Sddm.Problem.n p) ~nnz_a:(Sddm.Problem.nnz p)
                    ~nnz_l:prep.Solver.factor_nnz );
                ("layers.unaccounted_frac", 1.0 -. (accounted_s /. rtt_s));
                ("obs.trace_overhead", Measure.mean ops /. daemon_s);
              ] )
        end
      in
      let counts =
        List.map
          (fun r -> ("core.rung." ^ String.map (function '-' -> '_' | c -> c) r, float_of_int (rung_count r)))
          rung_names
      in
      let serve_layers =
        [
          ("serve.read_service_ms", Measure.median (Array.of_list (List.map snd read_service)));
          ("serve.queue_wait_ms", queue_wait_s *. 1000.0);
          ("serve.wire_ms", wire_ms);
          ("serve.lag_ms", Measure.mean lag);
          ("serve.backlog_growth", float_of_int backlog_growth);
          ( "core.engine_hit_rate",
            if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
        ]
      in
      {
        Workload.attempted = tally.Workload.attempted;
        failed = tally.Workload.failed;
        kinds = [ latencies "read" Read; latencies "write" Write ];
        reference_ms = Array.map (fun (_, d) -> d *. 1000.0) refs;
        setup_s;
        setup_xref;
        peak_rss_mb = bench_rss +. daemon_rss;
        layers = (if trace then layers @ counts @ serve_layers else []);
        spans;
        info =
          [
            ("n", Obs.Json.Int (Sddm.Problem.n served.problem));
            ("nnz", Obs.Json.Int (Sddm.Problem.nnz served.problem));
            ("offered_rate_per_s", Obs.Json.Float rate);
            ("pinned_cpu", Obs.Json.Int cpu);
            ("bench_rss_mb", Obs.Json.Float bench_rss);
            ("daemon_rss_mb", Obs.Json.Float daemon_rss);
            ("reads", Obs.Json.Int (Array.length reads));
            ("writes", Obs.Json.Int (Array.length writes));
            ("rungs", Obs.Json.Obj (List.map (fun (m, v) -> (m, Obs.Json.Int (int_of_float v))) counts));
            ("lag_ms_mean", Obs.Json.Float (Measure.mean lag));
            ("lag_ms_max", Obs.Json.Float (Array.fold_left Float.max 0.0 lag));
            ("backlog_growth", Obs.Json.Int backlog_growth);
            ("inflight_start", Obs.Json.Int h0.Serve.Health.inflight);
            ("inflight_end", Obs.Json.Int h1.Serve.Health.inflight);
            ("queued_at_end", Obs.Json.Int (queued_at t_end));
          ];
      })
