(* The repository benchmark. One command runs one workload:

     perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: rhs-stream and eco-serve (see BENCHMARK.json for why each
   exists). The seed fixes the right-hand sides, the ECO storm and the
   request schedule. Every solve is powerrchol at rtol 1e-6 on one
   domain.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. The line before it
   holds the run metadata. The exit code is 0 only when every checked
   output was correct. *)

let end_to_end =
  [
    ("op1_p50_xref", "ratio");
    ("op1_tail_xref", "ratio");
    ("op2_p50_xref", "ratio");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* Every workload reports every per-layer metric; a layer a workload does
   not exercise reads 0 there. *)
let per_layer =
  [
    ("ordering.reorder_s", "s");
    ("sddm.permute_s", "s");
    ("factor.factorize_s", "s");
    ("krylov.setup_s", "s");
    ("krylov.precond_s", "s");
    ("krylov.spmv_s", "s");
    ("krylov.vec_s", "s");
    ("sddm.verify_s", "s");
    ("factor.nnz_ratio", "ratio");
    ("krylov.iterations", "count");
    ("krylov.bytes_per_iter", "B");
    ("sparse.mtx_read_ms", "ms");
    ("sddm.of_matrix_ms", "ms");
    ("core.engine_lookup_ms", "ms");
    ("factor.refactor_ms", "ms");
    ("core.rung.local", "count");
    ("core.rung.low_rank", "count");
    ("core.rung.rhs_only", "count");
    ("core.rung.full", "count");
    ("serve.read_service_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.wire_ms", "ms");
    ("serve.lag_ms", "ms");
    ("serve.backlog_growth", "count");
    ("core.engine_hit_rate", "ratio");
    ("layers.unaccounted_frac", "ratio");
    ("obs.trace_overhead", "ratio");
  ]

let workloads = [ "rhs-stream"; "eco-serve" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload rhs-stream|eco-serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None in
  let seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (float_of_string_opt s) (fun s -> if s > 0.0 then Some s else None);
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t -> (w, s, sec, t)
  | _ -> usage ()

(* ---- run metadata ---- *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    l

let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let l = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if l = "" then "unknown (not a git checkout)" else l

(* Cache sizes as the kernel reports them for CPU 0, by level. *)
let cache_size level =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let rec find i =
    if i > 8 then "unknown"
    else
      let dir = Printf.sprintf "%s/index%d" base i in
      match
        (read_first_line (dir ^ "/level"), read_first_line (dir ^ "/type"))
      with
      | Some l, Some ty when l = string_of_int level && ty <> "Instruction" ->
        Option.value ~default:"unknown" (read_first_line (dir ^ "/size"))
      | None, _ -> "unknown"
      | _ -> find (i + 1)
  in
  find 0

(* Lines of OCaml under lib/ — the size the performance ledger tracks
   next to speed — and an FNV-1a fingerprint of those sources, which
   names the measured code where no git metadata is at hand. *)
let lib_sources () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then walk path
           else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
           then [ path ]
           else [])
  in
  let lines = ref 0 and h = ref 0xcbf29ce484222325L in
  (try
     List.iter
       (fun path ->
         let ic = open_in_bin path in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         String.iter
           (fun c ->
             if c = '\n' then incr lines;
             h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
           text)
       (walk "lib")
   with Sys_error _ -> ());
  (!lines, Printf.sprintf "%016Lx" !h)

let meta ~workload ~seed ~seconds ~trace ~nproc (r : Workload.t) =
  let lib = lib_sources () in
  let open Obs.Json in
  Obj
    [
      ( "meta",
        Obj
          ([
             ("workload", Str workload);
             ("seed", Int seed);
             ("seconds", Float seconds);
             ("trace", Bool trace);
             ("commit", Str (git_commit ()));
             ("nproc", Int nproc);
             ("ocaml", Str Sys.ocaml_version);
             ("domains", Int (Par.effective_domains ()));
             ("par_backend", Str Par.backend);
             ("index_bits", Int Sparse.Idx.bits);
             ("l2_cache", Str (cache_size 2));
             ("l3_cache", Str (cache_size 3));
             ("lib_lines", Int (fst lib));
             ("lib_fnv", Str (snd lib));
             ("setup_wall_s", List (Array.to_list (Array.map (fun s -> Float s) r.Workload.setup_s)));
             ("setup_xref", List (Array.to_list (Array.map (fun s -> Float s) r.Workload.setup_xref)));
             ("reference_ms_p50", Float (Measure.median r.Workload.reference_ms));
             ("reference_timings", Int (Array.length r.Workload.reference_ms));
             ( "kinds",
               Obj
                 (List.map
                    (fun (k : Workload.kind) ->
                      let n = Array.length k.ms in
                      ( k.name,
                        Obj
                          [
                            ("samples", Int n);
                            ("p50_ms", Float (Measure.median k.ms));
                            ("tail_percentile", Float (Measure.tail_percentile n));
                            ("tail_ms", Float (Measure.tail k.ms));
                            ("p50_xref", Float (Measure.median k.xref));
                            ("tail_xref", Float (Measure.tail k.xref));
                          ] ))
                    r.Workload.kinds) );
           ]
          @ r.Workload.info) );
    ]

(* ---- the result line ---- *)

(* op1 is the first operation kind a workload declares, op2 the second
   (rhs-stream: resolve for both; eco-serve: read, then write). The order
   is fixed, so each metric always measures the same operation and a
   regression in one kind cannot hide behind a gain in the other.

   Latencies are reported as multiples of the reference kernel's time
   next to each operation (see Reference), not in ms: on a shared 2-vCPU
   host the same solve runs at one of two speeds about 1.6x apart, each
   CPU switching on its own every few seconds and sometimes staying for
   minutes. Over two sets of ten rhs-stream runs the resolve median in ms
   spread by 0.29 and 0.21 of itself (first to third quartile), its
   median multiple by 0.027 and 0.009. The ms figures stay in the run
   metadata. The tail of op2 is left to the
   metadata too: the eco-serve write tail follows the host's short
   stalls, and spread by up to 35% of its median over ten seeds. *)
let end_to_end_values (r : Workload.t) =
  let op1, op2 =
    match r.Workload.kinds with
    | [ a ] -> (a.xref, a.xref)
    | [ a; b ] -> (a.xref, b.xref)
    | _ -> invalid_arg "a workload declares one or two operation kinds"
  in
  [
    ("op1_p50_xref", Measure.median op1);
    ("op1_tail_xref", Measure.tail op1);
    ("op2_p50_xref", Measure.median op2);
    ("setup_s", Reference.nominal_s *. Measure.median r.Workload.setup_xref);
    ("peak_rss_mb", r.Workload.peak_rss_mb);
  ]

let result_line ~trace (r : Workload.t) =
  let declared, values =
    if trace then (per_layer, r.Workload.layers) else (end_to_end, end_to_end_values r)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        failwith ("metric not declared in main.ml: " ^ name))
    values;
  let correct = r.Workload.failed = 0 && r.Workload.attempted > 0 in
  let open Obs.Json in
  ( correct,
    Obj
      [
        ("correct", Bool correct);
        ("attempted", Int r.Workload.attempted);
        ("failed", Int r.Workload.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (name, unit) ->
                 let v = Option.value ~default:0.0 (List.assoc_opt name values) in
                 (name, Obj [ ("value", Float v); ("unit", Str unit) ]))
               declared) );
      ] )

let () =
  match Sys.argv with
  | [| _; flag; parent |] when flag = Eco_serve.daemon_flag ->
    exit (Eco_serve.daemon_main ~parent:(int_of_string parent))
  | _ -> ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  (* a terminated run still stops its daemon (at_exit in Eco_serve) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Par.set_default_domains 1;
  (* before eco-serve pins this process to one CPU *)
  let nproc = Par.hardware_domains () in
  Measure.ensure_out_dir ();
  let r =
    match workload with
    | "rhs-stream" -> Rhs_stream.run ~seed ~seconds ~trace
    | _ -> Eco_serve.run ~seed ~seconds ~trace
  in
  Option.iter
    (fun tr ->
      Spans.write tr
        (Filename.concat Measure.out_dir
           (Printf.sprintf "trace-%s-%d.json" workload seed)))
    r.Workload.spans;
  let correct, line = result_line ~trace r in
  print_endline (Obs.Json.to_string (meta ~workload ~seed ~seconds ~trace ~nproc r));
  print_endline (Obs.Json.to_string line);
  exit (if correct then 0 else 1)
