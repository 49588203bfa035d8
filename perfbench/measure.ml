(* Clock, order statistics, fingerprints and process memory — the small
   measuring kit every workload shares. *)

let now = Unix.gettimeofday

(* Solves run at the paper's tolerance; an operation whose true relative
   residual exceeds [residual_bound] counts as failed. PCG stops on the
   recurrence residual, so the true one may sit slightly above rtol. *)
let rtol = 1e-6
let residual_bound = 10.0 *. rtol

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The tail statistic: the highest percentile, up to the 90th, that
   still has at least ten samples above it. Below 21 samples that rank is
   not above the median, and the maximum is reported instead. The cap
   keeps a long run's tail off the host's rare stalls. *)
let tail_rank n =
  if n < 21 then n - 1 else min (n - 11) ((((9 * n) + 9) / 10) - 1)

let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan else s.(tail_rank n)

(* The percentile [tail] reports for [n] samples, for the run metadata. *)
let tail_percentile n = 100.0 *. float_of_int (tail_rank n + 1) /. float_of_int n

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* FNV-1a over the IEEE bits of every entry: equal fingerprints mean
   bit-identical vectors (up to hash collisions). *)
let fnv_vec v =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Sparse.Vec.length v - 1 do
    let bits = Int64.bits_of_float (Sparse.Vec.get v i) in
    for byte = 0 to 7 do
      let b = Int64.logand (Int64.shift_right_logical bits (8 * byte)) 0xffL in
      h := Int64.mul (Int64.logxor !h b) 0x100000001b3L
    done
  done;
  Printf.sprintf "%016Lx" !h

(* VmHWM (peak resident set) of a process, in MiB, from /proc. *)
let vmhwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %f kB"
            (fun kb -> kb /. 1024.0)
        else scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

(* A solve result is correct when PCG converged and the true relative
   residual, recomputed from x, is within the bound. *)
let solve_ok ~converged ~residual =
  converged && Float.is_finite residual && residual <= residual_bound

(* Scratch files of a run (the served grid, the daemon socket, span
   traces) live here, relative to the checkout root. *)
let out_dir = ".perfbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755
