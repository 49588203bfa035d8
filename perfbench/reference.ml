(* A fixed reference kernel that gauges how fast the host runs right now.

   On a shared host the same solve runs at one of two speeds about 1.6x
   apart, switching every few seconds and sometimes staying for minutes,
   so a run's raw latencies follow the host more than the program. The
   workloads time this kernel next to every operation and report each
   operation's latency as a multiple of it. The kernel is the benchmark's
   own code, not the library's: a change to the program moves the
   operation and leaves the reference where it was.

   The kernel does what one PCG iteration does, on storage of the same
   kinds (int32 indices, float64 values): a column-oriented forward
   substitution, a row-oriented backward substitution and a symmetric
   product with a lower-triangular CSC matrix, then vector updates. The
   matrix is a 2-D grid with one diagonal of fill, about 0.7 MiB in all. *)

open Bigarray

type t = {
  n : int;
  col_ptr : (int32, int32_elt, c_layout) Array1.t;
  rows : (int32, int32_elt, c_layout) Array1.t;
  vals : (float, float64_elt, c_layout) Array1.t;
  diag : (float, float64_elt, c_layout) Array1.t;
  x : (float, float64_elt, c_layout) Array1.t;  (** fixed right-hand side *)
  y : (float, float64_elt, c_layout) Array1.t;
  z : (float, float64_elt, c_layout) Array1.t;
}

let side = 96

(* Sweeps per call: 5 to 9 ms on a 2-vCPU x86-64 host. *)
let sweeps = 2

let create () =
  let n = side * side in
  let cols =
    Array.init n (fun j ->
        List.filter
          (fun i -> i < n)
          ((if (j + 1) mod side <> 0 then [ j + 1 ] else [])
          @ [ j + side - 1; j + side ]))
  in
  let nnz = Array.fold_left (fun acc c -> acc + List.length c) 0 cols in
  let col_ptr = Array1.create int32 c_layout (n + 1) in
  let rows = Array1.create int32 c_layout nnz in
  let vals = Array1.create float64 c_layout nnz in
  let k = ref 0 in
  Array.iteri
    (fun j c ->
      col_ptr.{j} <- Int32.of_int !k;
      List.iter
        (fun i ->
          rows.{!k} <- Int32.of_int i;
          vals.{!k} <- -0.25;
          incr k)
        c)
    cols;
  col_ptr.{n} <- Int32.of_int !k;
  let vec f =
    let v = Array1.create float64 c_layout n in
    for i = 0 to n - 1 do
      v.{i} <- f i
    done;
    v
  in
  {
    n;
    col_ptr;
    rows;
    vals;
    diag = vec (fun _ -> 1.0);
    x = vec (fun i -> float_of_int (i mod 7) /. 7.0);
    y = vec (fun _ -> 0.0);
    z = vec (fun _ -> 0.0);
  }

let[@inline] idx a k = Int32.to_int (Array1.unsafe_get a k)

let sweep r =
  let n = r.n in
  (* forward substitution, column by column: z <- L^-1 x *)
  Array1.blit r.x r.z;
  for j = 0 to n - 1 do
    let zj = Array1.unsafe_get r.z j /. Array1.unsafe_get r.diag j in
    Array1.unsafe_set r.z j zj;
    for k = idx r.col_ptr j to idx r.col_ptr (j + 1) - 1 do
      let i = idx r.rows k in
      Array1.unsafe_set r.z i
        (Array1.unsafe_get r.z i -. (Array1.unsafe_get r.vals k *. zj))
    done
  done;
  (* backward substitution, row by row: z <- L^-T z *)
  for j = n - 1 downto 0 do
    let s = ref (Array1.unsafe_get r.z j) in
    for k = idx r.col_ptr j to idx r.col_ptr (j + 1) - 1 do
      s :=
        !s
        -. (Array1.unsafe_get r.vals k *. Array1.unsafe_get r.z (idx r.rows k))
    done;
    Array1.unsafe_set r.z j (!s /. Array1.unsafe_get r.diag j)
  done;
  (* symmetric product: y <- (L + L^T) z *)
  for j = 0 to n - 1 do
    Array1.unsafe_set r.y j (Array1.unsafe_get r.diag j *. Array1.unsafe_get r.z j)
  done;
  for j = 0 to n - 1 do
    let zj = Array1.unsafe_get r.z j in
    let s = ref (Array1.unsafe_get r.y j) in
    for k = idx r.col_ptr j to idx r.col_ptr (j + 1) - 1 do
      let i = idx r.rows k in
      let v = Array1.unsafe_get r.vals k in
      Array1.unsafe_set r.y i (Array1.unsafe_get r.y i +. (v *. zj));
      s := !s +. (v *. Array1.unsafe_get r.z i)
    done;
    Array1.unsafe_set r.y j !s
  done;
  (* vector updates: a dot product and an axpy, as PCG does *)
  let dot = ref 0.0 in
  for i = 0 to n - 1 do
    dot := !dot +. (Array1.unsafe_get r.y i *. Array1.unsafe_get r.z i)
  done;
  let alpha = 1.0 /. (1.0 +. Float.abs !dot) in
  for i = 0 to n - 1 do
    Array1.unsafe_set r.y i
      (Array1.unsafe_get r.y i +. (alpha *. Array1.unsafe_get r.z i))
  done

(* The kernel's time on a 2-vCPU x86-64 KVM guest in its usual state.
   Set-up times are reported as the seconds they would take at that
   speed: their multiples of the kernel's time, times this. *)
let nominal_s = 0.006

(* Pins the calling thread, and the threads it starts afterwards, to the
   highest-numbered CPU it may run on; returns the CPU, or -1. *)
external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

(* Wall seconds of one call: [sweeps] sweeps over the reference matrix. *)
let time r =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to sweeps do
    sweep r
  done;
  Unix.gettimeofday () -. t0
