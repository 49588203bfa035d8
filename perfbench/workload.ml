(* What one workload run hands back to main.ml. *)

(* The latencies of one kind of operation. *)
type kind = {
  name : string;
  ms : float array;  (** per-operation latency in ms *)
  xref : float array;
      (** the same latencies, each as a multiple of the reference kernel's
          time next to it (see Reference) *)
}

type t = {
  attempted : int;
  failed : int;
  kinds : kind list;
      (** by operation kind, in the order the workload declares them: the
          first feeds op1_*, the second op2_* *)
  reference_ms : float array;  (** every timing of the reference kernel *)
  setup_s : float array;  (** wall seconds of each set-up repetition *)
  setup_xref : float array;
      (** each repetition as a multiple of the reference kernel's time
          around it *)
  peak_rss_mb : float;
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  spans : Spans.t option;  (** the traced run's spans, written out at exit *)
  info : (string * Obs.Json.t) list;  (** run facts printed as metadata *)
}

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows against a steady figure. The reference kernel is timed
   before and after each repetition, which is also given as a multiple
   of the mean of the two. Returns the last repetition's result, the
   wall seconds and the multiples. *)
let repeat_setup ~reference ?(reps = 5) ?(teardown = ignore) f =
  let walls = Array.make reps 0.0 and xrefs = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    (* drop the previous repetition's data before building the next one *)
    Option.iter teardown !last;
    last := None;
    Gc.full_major ();
    let before = Reference.time reference in
    let t0 = Measure.now () in
    last := Some (f ());
    walls.(i) <- Measure.now () -. t0;
    xrefs.(i) <- 2.0 *. walls.(i) /. (before +. Reference.time reference)
  done;
  (Option.get !last, walls, xrefs)

(* Failure tally shared by the operation loops. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally ~what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    prerr_endline ("perfbench: check failed: " ^ what)
  end
