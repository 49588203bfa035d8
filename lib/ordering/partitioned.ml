(* Partitioned Alg. 4 ordering: recursive bisection, then degree sort.

   The graph is bisected recursively — BFS level structure from a
   pseudo-peripheral vertex, cut at the most balanced level, separator
   emitted after both halves — and each block is then degree-sorted on
   its induced subgraph, which keeps the local fill behavior of Alg. 4.
   This mirrors the partitioning step of RCHOL (Chen, Liang & Biros,
   arXiv:2011.07769, §3.3). It was introduced to give the elimination
   tree independent subtrees for a parallel factorization scheduler; the
   factorization is now one sequential sweep (DESIGN.md §15), so that
   purpose is gone.

   It stays the [Solver.powerrchol] and session default because the
   benchmark's replay (perfbench/replay.ml) reproduces exactly this
   ordering. Moving the default back to plain Alg. 4 (ROADMAP item 2(a))
   waits for a benchmark change that makes the replay follow the
   production ordering.

   The leaf size target depends only on the graph (a fixed fraction of n,
   floored), so the ordering is the same on any machine. *)

let default_leaf_fraction = 1.0 /. 64.0
let leaf_min = 1024

let bfs_levels g in_set level start =
  let far = ref start in
  let q = Queue.create () in
  level.(start) <- 0;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if level.(u) > level.(!far) then far := u;
    Sddm.Graph.iter_neighbors g u (fun v _ ->
        if in_set.(v) && level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end)
  done;
  !far

let order ?(heavy_factor = 10.0) ?(leaf_fraction = default_leaf_fraction) g =
  Obs.span "partitioned_order" @@ fun () ->
  let g = Sddm.Graph.coalesce g in
  let n = Sddm.Graph.n_vertices g in
  if n = 0 then [||]
  else begin
    let target =
      max leaf_min (int_of_float (ceil (leaf_fraction *. float_of_int n)))
    in
    let perm = Array.make n 0 in
    let in_set = Array.make n false in
    let level = Array.make n (-1) in
    let n_leaves = ref 0 in
    let max_degree = ref 0 and heavy_nodes = ref 0 in
    (* Degree-sort a block on its induced subgraph; used for both leaves and
       separator blocks so every block keeps the Alg. 4 low-degree-first
       elimination flavor. *)
    let order_block members ~base =
      incr n_leaves;
      let count = Array.length members in
      let local = Hashtbl.create (2 * count) in
      Array.iteri (fun i v -> Hashtbl.replace local v i) members;
      let edges = ref [] in
      Array.iter
        (fun v ->
          Sddm.Graph.iter_neighbors g v (fun u w ->
              if u > v then
                match Hashtbl.find_opt local u with
                | Some lu -> edges := (Hashtbl.find local v, lu, w) :: !edges
                | None -> ()))
        members;
      let sub = Sddm.Graph.create ~n:count ~edges:(Array.of_list !edges) in
      let p, shape =
        Obs.span "degree_sort" (fun () ->
            Degree_sort.order_shape ~heavy_factor sub)
      in
      max_degree := max !max_degree shape.Degree_sort.max_degree;
      heavy_nodes := !heavy_nodes + shape.Degree_sort.heavy_nodes;
      Array.iteri (fun k local_idx -> perm.(base + k) <- members.(local_idx)) p
    in
    let rec dissect members ~base =
      let count = Array.length members in
      if count <= target then order_block members ~base
      else begin
        Array.iter (fun v -> in_set.(v) <- true) members;
        Array.iter (fun v -> level.(v) <- -1) members;
        let far = bfs_levels g in_set level members.(0) in
        Array.iter (fun v -> level.(v) <- -1) members;
        let _ = bfs_levels g in_set level far in
        let max_level = ref 0 in
        Array.iter
          (fun v -> if level.(v) > !max_level then max_level := level.(v))
          members;
        if !max_level = 0 then begin
          Array.iter (fun v -> in_set.(v) <- false) members;
          order_block members ~base
        end
        else begin
          (* Cut at the level splitting the vertex count most evenly — the
             mid-level of the eccentricity can be wildly lopsided on meshes
             with via/pad shortcuts, and a lopsided cut multiplies the
             number of separators the recursion emits. *)
          let level_count = Array.make (!max_level + 1) 0 in
          Array.iter
            (fun v ->
              let l = if level.(v) < 0 then 0 else level.(v) in
              level_count.(l) <- level_count.(l) + 1)
            members;
          let cut = ref 0 in
          let best = ref max_int in
          let acc = ref level_count.(0) in
          for l = 0 to !max_level - 1 do
            let imbalance = abs (count - (2 * !acc)) in
            if imbalance < !best then begin
              best := imbalance;
              cut := l
            end;
            acc := !acc + level_count.(l + 1)
          done;
          let cut = !cut in
          let side_a = ref [] and side_b = ref [] and sep = ref [] in
          Array.iter
            (fun v ->
              if level.(v) >= 0 && level.(v) > cut then side_b := v :: !side_b)
            members;
          Array.iter
            (fun v ->
              if level.(v) < 0 || level.(v) <= cut then begin
                let boundary = ref false in
                Sddm.Graph.iter_neighbors g v (fun u _ ->
                    if in_set.(u) && level.(u) > cut then boundary := true);
                if !boundary then sep := v :: !sep else side_a := v :: !side_a
              end)
            members;
          Array.iter (fun v -> in_set.(v) <- false) members;
          let a = Array.of_list !side_a in
          let b = Array.of_list !side_b in
          let s = Array.of_list !sep in
          if Array.length a = 0 && Array.length b = 0 then
            order_block members ~base
          else begin
            dissect a ~base;
            dissect b ~base:(base + Array.length a);
            if Array.length s > 0 then
              order_block s ~base:(base + Array.length a + Array.length b)
          end
        end
      end
    in
    dissect (Array.init n (fun i -> i)) ~base:0;
    if Obs.enabled () then begin
      Obs.gauge "partition_blocks" (float_of_int !n_leaves);
      (* one figure for the whole ordering, not the last block's: the
         largest degree of any block and the heavy nodes of all blocks,
         at the paths a plain Alg. 4 ordering reports them *)
      Obs.gauge "degree_sort/max_degree" (float_of_int !max_degree);
      Obs.gauge "degree_sort/heavy_nodes" (float_of_int !heavy_nodes)
    end;
    perm
  end
