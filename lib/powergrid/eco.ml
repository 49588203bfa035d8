(* ECO edit-scenario generator.

   Turns a generated grid into a deterministic stream of engineering
   change orders — the edit vocabulary of incremental re-solve
   benchmarks. Each scenario draws from its own [Rng.keyed] stream, so
   scenario [i] is byte-identical regardless of how many scenarios are
   generated, in what order, or on how many domains. *)

type kind = Via_removal | Pad_relocation | Wire_strengthen | Load_shift

let all_kinds = [ Via_removal; Pad_relocation; Wire_strengthen; Load_shift ]

type scenario = {
  index : int;
  kind : kind;
  label : string;
  edits : Sddm.Edit.t list;
}

(* Classified element pools. Node numbering contract of [Generate]:
   bottom-layer nodes are [0 .. nx*ny), top-layer nodes follow — so a
   resistor crossing the boundary is a via. *)
type pools = {
  vias : (int * int) array;
  wires : (int * int) array;  (* bottom-layer segments *)
  pads : (int * float) array;  (* (node, conductance) *)
  loads : (int * float) array;  (* (node, amps) *)
  top_nodes : int array;  (* top-layer nodes without a pad *)
}

let classify ~(spec : Generate.spec) (c : Generate.circuit) =
  let top_base = spec.Generate.nx * spec.Generate.ny in
  let vias = ref [] and wires = ref [] in
  Array.iter
    (fun (u, v, _ohms) ->
      let bu = u < top_base and bv = v < top_base in
      if bu <> bv then vias := (u, v) :: !vias
      else if bu then wires := (u, v) :: !wires)
    c.Generate.resistors;
  let padded = Hashtbl.create 64 in
  let pads =
    Array.map
      (fun (node, ohms) ->
        Hashtbl.replace padded node ();
        (node, 1.0 /. ohms))
      c.Generate.pads
  in
  let top_nodes = ref [] in
  for node = c.Generate.n_nodes - 1 downto top_base do
    if not (Hashtbl.mem padded node) then top_nodes := node :: !top_nodes
  done;
  {
    vias = Array.of_list (List.rev !vias);
    wires = Array.of_list (List.rev !wires);
    pads;
    loads = Array.copy c.Generate.loads;
    top_nodes = Array.of_list !top_nodes;
  }

let pick rng a =
  if Array.length a = 0 then None else Some a.(Rng.int rng (Array.length a))

(* Build scenario [i]. Unavailable kinds (a grid with one pad cannot
   relocate pads safely; a storm may have zeroed nothing yet) degrade to
   wire strengthening, which every mesh supports. *)
let scenario ~seed ~kinds ~pools index =
  let rng = Rng.keyed ~seed index in
  let kinds = if kinds = [] then all_kinds else kinds in
  let kind = List.nth kinds (index mod List.length kinds) in
  let wire_strengthen () =
    match pick rng pools.wires with
    | Some (u, v) ->
      ( Wire_strengthen,
        Printf.sprintf "strengthen wire %d-%d x4" u v,
        [ Sddm.Edit.Scale_conductance { u; v; factor = 4.0 } ] )
    | None -> (Wire_strengthen, "no wires to strengthen", [])
  in
  let kind, label, edits =
    match kind with
    | Wire_strengthen -> wire_strengthen ()
    | Via_removal -> (
      match pick rng pools.vias with
      | Some (u, v) ->
        (* scale, don't zero: the factor 1e-6 keeps the matrix away from
           exact singularity on pathological pocket grids while being
           electrically indistinguishable from removal *)
        ( Via_removal,
          Printf.sprintf "remove via %d-%d" u v,
          [ Sddm.Edit.Scale_conductance { u; v; factor = 1e-6 } ] )
      | None -> wire_strengthen ())
    | Pad_relocation -> (
      (* keep the grid grounded: only relocate when other pads remain *)
      if Array.length pools.pads < 2 then wire_strengthen ()
      else
        match (pick rng pools.pads, pick rng pools.top_nodes) with
        | Some (from_node, g), Some to_node when from_node <> to_node ->
          ( Pad_relocation,
            Printf.sprintf "relocate pad %d -> %d" from_node to_node,
            [
              Sddm.Edit.Set_excess { node = from_node; siemens = 0.0 };
              Sddm.Edit.Set_excess { node = to_node; siemens = g };
            ] )
        | _ -> wire_strengthen ())
    | Load_shift -> (
      match (pick rng pools.loads, pick rng pools.loads) with
      | Some (from_node, amps), Some (to_node, _) when from_node <> to_node
        ->
        ( Load_shift,
          Printf.sprintf "shift load %d -> %d" from_node to_node,
          [
            Sddm.Edit.Set_load { node = from_node; amps = 0.0 };
            Sddm.Edit.Set_load { node = to_node; amps };
          ] )
      | _ -> wire_strengthen ())
  in
  { index; kind; label; edits }

let storm ?(seed = 1) ?(kinds = all_kinds) ~spec circuit ~count =
  if count < 0 then invalid_arg "Eco.storm: negative count";
  let pools = classify ~spec circuit in
  Array.init count (fun i -> scenario ~seed ~kinds ~pools i)

let max_support scenarios =
  Array.fold_left
    (fun acc s ->
      let nodes = Hashtbl.create 8 in
      List.iter
        (fun e ->
          List.iter (fun n -> Hashtbl.replace nodes n ()) (Sddm.Edit.support e))
        s.edits;
      max acc (Hashtbl.length nodes))
    0 scenarios
