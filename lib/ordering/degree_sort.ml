(* Linear-time bucket sort by degree with heavy-edge promotion inside each
   degree class: two stable passes over each bucket (heavy first). *)
type shape = { max_degree : int; heavy_nodes : int }

let order_shape ?(heavy_factor = 10.0) g =
  let n = Sddm.Graph.n_vertices g in
  let deg = Sddm.Graph.degrees g in
  let w_max = Sddm.Graph.max_incident_weight g in
  let w_avg = Sddm.Graph.average_weight g in
  let threshold = heavy_factor *. w_avg in
  let is_heavy i = w_max.(i) > threshold in
  let d_max = Array.fold_left max 0 deg in
  (* Counting sort: first count bucket sizes, then place heavy nodes at each
     bucket's front and light nodes after them, both in index order. *)
  let count = Array.make (d_max + 2) 0 in
  for i = 0 to n - 1 do
    count.(deg.(i) + 1) <- count.(deg.(i) + 1) + 1
  done;
  for d = 1 to d_max + 1 do
    count.(d) <- count.(d) + count.(d - 1)
  done;
  let heavy_in_bucket = Array.make (d_max + 1) 0 in
  let heavy = ref 0 in
  for i = 0 to n - 1 do
    if is_heavy i then begin
      heavy_in_bucket.(deg.(i)) <- heavy_in_bucket.(deg.(i)) + 1;
      incr heavy
    end
  done;
  let heavy_cursor = Array.init (d_max + 1) (fun d -> count.(d)) in
  let light_cursor =
    Array.init (d_max + 1) (fun d -> count.(d) + heavy_in_bucket.(d))
  in
  let p = Array.make n 0 in
  for i = 0 to n - 1 do
    let d = deg.(i) in
    if is_heavy i then begin
      p.(heavy_cursor.(d)) <- i;
      heavy_cursor.(d) <- heavy_cursor.(d) + 1
    end
    else begin
      p.(light_cursor.(d)) <- i;
      light_cursor.(d) <- light_cursor.(d) + 1
    end
  done;
  (p, { max_degree = d_max; heavy_nodes = !heavy })

let order ?heavy_factor g =
  Obs.span "degree_sort" @@ fun () ->
  let p, shape = order_shape ?heavy_factor g in
  (* gauges, not counters: these describe the graph being ordered, so
     repeated preparations in one capture must not sum them *)
  Obs.gauge "heavy_nodes" (float_of_int shape.heavy_nodes);
  Obs.gauge "max_degree" (float_of_int shape.max_degree);
  p
