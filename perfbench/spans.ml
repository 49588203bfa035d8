(* The benchmark's own span recorder. Spans are opened around calls into
   the library's public functions, so the library's Obs switch stays off
   and the traced program is the production one. Each span keeps its
   name, start, end and parent; everything stays in memory until the run
   writes it out. *)

type t = {
  mutable len : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable open_ : int list;  (* stack of open span ids, innermost first *)
}

let create () =
  let cap = 4096 in
  {
    len = 0;
    names = Array.make cap "";
    starts = Array.make cap 0.0;
    stops = Array.make cap 0.0;
    parents = Array.make cap (-1);
    open_ = [];
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.0;
  t.stops <- extend t.stops 0.0;
  t.parents <- extend t.parents (-1)

let span t name f =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.open_ <- id :: t.open_;
  t.starts.(id) <- Measure.now ();
  let close () =
    t.stops.(id) <- Measure.now ();
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let duration t i = t.stops.(i) -. t.starts.(i)

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed over every span of that name. *)
let self_times t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl t.names.(i)) in
    Hashtbl.replace tbl t.names.(i) (prev +. duration t i -. child.(i))
  done;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* Wall time of every span with this name, in recording order. *)
let durations t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.names.(i) = name then acc := duration t i :: !acc
  done;
  Array.of_list !acc

let write t path =
  let t0 = if t.len > 0 then t.starts.(0) else 0.0 in
  let oc = open_out path in
  output_string oc "[\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d}%s\n"
      i t.names.(i) (t.starts.(i) -. t0) (t.stops.(i) -. t0) t.parents.(i)
      (if i = t.len - 1 then "" else ",")
  done;
  output_string oc "]\n";
  close_out oc
