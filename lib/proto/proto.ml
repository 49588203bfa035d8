module J = Obs.Json

(* ---- addresses ---- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let s = String.trim s in
  if String.length s = 0 then Error "empty address"
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S lacks a :port" s)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
        Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | Some p -> Error (Printf.sprintf "tcp port %d out of range" p)
      | None -> Error (Printf.sprintf "malformed tcp port %S" port))
  end
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    Error
      (Printf.sprintf
         "cannot parse address %S (expected unix:/path or tcp:host:port)" s)

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ---- solver tags ---- *)

type solver =
  | Powerrchol
  | Rchol
  | Lt_rchol
  | Fegrass
  | Fegrass_ichol
  | Amg
  | Direct

let solver_names =
  [
    ("powerrchol", Powerrchol);
    ("rchol", Rchol);
    ("lt-rchol", Lt_rchol);
    ("fegrass", Fegrass);
    ("fegrass-ichol", Fegrass_ichol);
    ("amg", Amg);
    ("direct", Direct);
  ]

let solver_to_string s =
  match List.find_opt (fun (_, tag) -> tag = s) solver_names with
  | Some (name, _) -> name
  | None -> assert false

let solver_of_string name =
  match List.assoc_opt (String.lowercase_ascii (String.trim name)) solver_names with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown solver %S (expected one of %s)" name
         (String.concat ", " (List.map fst solver_names)))

(* ---- requests ---- *)

type problem_spec =
  | Case of { id : string; scale : float }
  | Mtx of { path : string }

type request =
  | Solve of {
      spec : problem_spec;
      solver : solver;
      rtol : float;
      seed : int;
      deadline_ms : float option;
      robust : bool;
      want_x : bool;
    }
  | Update of {
      spec : problem_spec;
      edits : Sddm.Edit.t list;
      rtol : float;
      seed : int;
      deadline_ms : float option;
      want_x : bool;
    }
  | Diagnose of { spec : problem_spec }
  | Health
  | Ping
  | Shutdown

let solve ?(solver = Powerrchol) ?(rtol = 1e-6) ?(seed = 42) ?deadline_ms
    ?(robust = false) ?(want_x = false) spec =
  Solve { spec; solver; rtol; seed; deadline_ms; robust; want_x }

let update ?(rtol = 1e-6) ?(seed = 42) ?deadline_ms ?(want_x = false)
    ~edits spec =
  Update { spec; edits; rtol; seed; deadline_ms; want_x }

(* ---- responses ---- *)

type response =
  | Solved of {
      solver : string;
      iterations : int;
      residual : float;
      status : string;
      converged : bool;
      t_solve_ms : float;
      cache_hit : bool;
      x : float array option;
    }
  | Updated of {
      session : int;
      version : int;
      rung : string;
      iterations : int;
      residual : float;
      converged : bool;
      t_update_ms : float;
      t_solve_ms : float;
      x : float array option;
    }
  | Diagnosed of { fatal : bool; issues : string list }
  | Health_report of J.t
  | Pong
  | Rejected of { reason : string }
  | Timed_out of { elapsed_ms : float }
  | Failed of { reason : string }
  | Bye

(* ---- JSON codecs ----

   Encoding is straightforward; decoding is defensive: every field access
   is total and failures come back as [Error] with the offending field
   named, so the daemon can answer bad requests with a typed rejection. *)

let spec_to_json = function
  | Case { id; scale } ->
    J.Obj [ ("case", J.Str id); ("scale", J.Float scale) ]
  | Mtx { path } -> J.Obj [ ("mtx", J.Str path) ]

let str_member key j =
  match J.member key j with Some (J.Str s) -> Some s | _ -> None

let float_member key j = Option.bind (J.member key j) J.to_float

let bool_member key j =
  match J.member key j with Some (J.Bool b) -> Some b | _ -> None

let int_member key j =
  match J.member key j with
  | Some (J.Int i) -> Some i
  | Some (J.Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* One edit: {"edit": "<op>", ...} with u/v for edge ops, node for nodal
   ops, and a single "value" field (siemens, scale factor, or amps). *)
let edit_to_json = function
  | Sddm.Edit.Set_conductance { u; v; siemens } ->
    J.Obj
      [
        ("edit", J.Str "set-conductance");
        ("u", J.Int u);
        ("v", J.Int v);
        ("value", J.Float siemens);
      ]
  | Sddm.Edit.Scale_conductance { u; v; factor } ->
    J.Obj
      [
        ("edit", J.Str "scale-conductance");
        ("u", J.Int u);
        ("v", J.Int v);
        ("value", J.Float factor);
      ]
  | Sddm.Edit.Add_resistor { u; v; siemens } ->
    J.Obj
      [
        ("edit", J.Str "add-resistor");
        ("u", J.Int u);
        ("v", J.Int v);
        ("value", J.Float siemens);
      ]
  | Sddm.Edit.Set_excess { node; siemens } ->
    J.Obj
      [
        ("edit", J.Str "set-excess");
        ("node", J.Int node);
        ("value", J.Float siemens);
      ]
  | Sddm.Edit.Set_load { node; amps } ->
    J.Obj
      [ ("edit", J.Str "set-load"); ("node", J.Int node); ("value", J.Float amps) ]

let edit_of_json j =
  let field name =
    match int_member name j with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "edit: missing integer %S" name)
  in
  let value () =
    match float_member "value" j with
    | Some v -> Ok v
    | None -> Error "edit: missing number \"value\""
  in
  match str_member "edit" j with
  | None -> Error "edit: missing \"edit\" field"
  | Some op -> (
    let ( let* ) = Result.bind in
    match op with
    | "set-conductance" ->
      let* u = field "u" in
      let* v = field "v" in
      let* siemens = value () in
      Ok (Sddm.Edit.Set_conductance { u; v; siemens })
    | "scale-conductance" ->
      let* u = field "u" in
      let* v = field "v" in
      let* factor = value () in
      Ok (Sddm.Edit.Scale_conductance { u; v; factor })
    | "add-resistor" ->
      let* u = field "u" in
      let* v = field "v" in
      let* siemens = value () in
      Ok (Sddm.Edit.Add_resistor { u; v; siemens })
    | "set-excess" ->
      let* node = field "node" in
      let* siemens = value () in
      Ok (Sddm.Edit.Set_excess { node; siemens })
    | "set-load" ->
      let* node = field "node" in
      let* amps = value () in
      Ok (Sddm.Edit.Set_load { node; amps })
    | op -> Error (Printf.sprintf "edit: unknown op %S" op))

let edits_of_json j =
  match J.member "edits" j with
  | Some (J.List vs) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> (
        match edit_of_json v with
        | Ok e -> go (e :: acc) rest
        | Error _ as e -> e)
    in
    go [] vs
  | Some _ -> Error "invalid \"edits\" (must be a list)"
  | None -> Error "missing \"edits\" list"

let spec_of_json j =
  match (str_member "case" j, str_member "mtx" j) with
  | Some id, None -> (
    (* present-but-mistyped must not silently become the default *)
    match J.member "scale" j with
    | None -> Ok (Case { id; scale = 1.0 })
    | Some v -> (
      match J.to_float v with
      | Some s when Float.is_finite s && s > 0.0 -> Ok (Case { id; scale = s })
      | _ -> Error "invalid scale (must be a finite number > 0)"))
  | None, Some path -> Ok (Mtx { path })
  | Some _, Some _ -> Error "both \"case\" and \"mtx\" given; pick one"
  | None, None -> Error "missing problem spec: give \"case\" or \"mtx\""

let request_to_json = function
  | Solve { spec; solver; rtol; seed; deadline_ms; robust; want_x } ->
    let base =
      [
        ("op", J.Str "solve");
        ("solver", J.Str (solver_to_string solver));
        ("rtol", J.Float rtol);
        ("seed", J.Int seed);
        ("robust", J.Bool robust);
        ("want_x", J.Bool want_x);
      ]
    in
    let deadline =
      match deadline_ms with
      | Some ms -> [ ("deadline_ms", J.Float ms) ]
      | None -> []
    in
    let spec_fields =
      match spec_to_json spec with J.Obj fields -> fields | _ -> []
    in
    J.Obj (base @ deadline @ spec_fields)
  | Update { spec; edits; rtol; seed; deadline_ms; want_x } ->
    let base =
      [
        ("op", J.Str "update");
        ("edits", J.List (List.map edit_to_json edits));
        ("rtol", J.Float rtol);
        ("seed", J.Int seed);
        ("want_x", J.Bool want_x);
      ]
    in
    let deadline =
      match deadline_ms with
      | Some ms -> [ ("deadline_ms", J.Float ms) ]
      | None -> []
    in
    let spec_fields =
      match spec_to_json spec with J.Obj fields -> fields | _ -> []
    in
    J.Obj (base @ deadline @ spec_fields)
  | Diagnose { spec } ->
    let spec_fields =
      match spec_to_json spec with J.Obj fields -> fields | _ -> []
    in
    J.Obj (("op", J.Str "diagnose") :: spec_fields)
  | Health -> J.Obj [ ("op", J.Str "health") ]
  | Ping -> J.Obj [ ("op", J.Str "ping") ]
  | Shutdown -> J.Obj [ ("op", J.Str "shutdown") ]

let ( let* ) = Result.bind

let request_of_json j =
  match str_member "op" j with
  | None -> Error "missing \"op\" field"
  | Some "ping" -> Ok Ping
  | Some "health" -> Ok Health
  | Some "shutdown" -> Ok Shutdown
  | Some "diagnose" ->
    let* spec = spec_of_json j in
    Ok (Diagnose { spec })
  | Some "solve" ->
    let* spec = spec_of_json j in
    let* solver =
      match str_member "solver" j with
      | None -> Ok Powerrchol
      | Some name -> solver_of_string name
    in
    let* rtol =
      match J.member "rtol" j with
      | None -> Ok 1e-6
      | Some v -> (
        match J.to_float v with
        | Some r when Float.is_finite r && r > 0.0 -> Ok r
        | _ -> Error "invalid rtol (must be a finite number > 0)")
    in
    let* seed =
      match J.member "seed" j with
      | None -> Ok 42
      | Some _ -> (
        match int_member "seed" j with
        | Some s -> Ok s
        | None -> Error "invalid seed (must be an integer)")
    in
    let* deadline_ms =
      match J.member "deadline_ms" j with
      | None | Some J.Null -> Ok None
      | Some v -> (
        match J.to_float v with
        | Some ms when Float.is_finite ms && ms >= 0.0 -> Ok (Some ms)
        | _ -> Error "invalid deadline_ms (must be a finite number >= 0)")
    in
    let robust = Option.value (bool_member "robust" j) ~default:false in
    let want_x = Option.value (bool_member "want_x" j) ~default:false in
    Ok (Solve { spec; solver; rtol; seed; deadline_ms; robust; want_x })
  | Some "update" ->
    let* spec = spec_of_json j in
    let* edits = edits_of_json j in
    let* rtol =
      match J.member "rtol" j with
      | None -> Ok 1e-6
      | Some v -> (
        match J.to_float v with
        | Some r when Float.is_finite r && r > 0.0 -> Ok r
        | _ -> Error "invalid rtol (must be a finite number > 0)")
    in
    let* seed =
      match J.member "seed" j with
      | None -> Ok 42
      | Some _ -> (
        match int_member "seed" j with
        | Some s -> Ok s
        | None -> Error "invalid seed (must be an integer)")
    in
    let* deadline_ms =
      match J.member "deadline_ms" j with
      | None | Some J.Null -> Ok None
      | Some v -> (
        match J.to_float v with
        | Some ms when Float.is_finite ms && ms >= 0.0 -> Ok (Some ms)
        | _ -> Error "invalid deadline_ms (must be a finite number >= 0)")
    in
    let want_x = Option.value (bool_member "want_x" j) ~default:false in
    Ok (Update { spec; edits; rtol; seed; deadline_ms; want_x })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

let response_to_json = function
  | Solved { solver; iterations; residual; status; converged; t_solve_ms;
             cache_hit; x } ->
    let base =
      [
        ("status", J.Str "ok");
        ("solver", J.Str solver);
        ("iterations", J.Int iterations);
        ("residual", J.Float residual);
        ("solve_status", J.Str status);
        ("converged", J.Bool converged);
        ("t_solve_ms", J.Float t_solve_ms);
        ("cache_hit", J.Bool cache_hit);
      ]
    in
    let x_field =
      match x with
      | Some x ->
        [ ("x", J.List (Array.to_list (Array.map (fun v -> J.Float v) x))) ]
      | None -> []
    in
    J.Obj (base @ x_field)
  | Updated
      {
        session;
        version;
        rung;
        iterations;
        residual;
        converged;
        t_update_ms;
        t_solve_ms;
        x;
      } ->
    let base =
      [
        ("status", J.Str "updated");
        ("session", J.Int session);
        ("version", J.Int version);
        ("rung", J.Str rung);
        ("iterations", J.Int iterations);
        ("residual", J.Float residual);
        ("converged", J.Bool converged);
        ("t_update_ms", J.Float t_update_ms);
        ("t_solve_ms", J.Float t_solve_ms);
      ]
    in
    let x_field =
      match x with
      | Some x ->
        [ ("x", J.List (Array.to_list (Array.map (fun v -> J.Float v) x))) ]
      | None -> []
    in
    J.Obj (base @ x_field)
  | Diagnosed { fatal; issues } ->
    J.Obj
      [
        ("status", J.Str "diagnosed");
        ("fatal", J.Bool fatal);
        ("issues", J.List (List.map (fun i -> J.Str i) issues));
      ]
  | Health_report doc -> J.Obj [ ("status", J.Str "health"); ("report", doc) ]
  | Pong -> J.Obj [ ("status", J.Str "pong") ]
  | Rejected { reason } ->
    J.Obj [ ("status", J.Str "rejected"); ("reason", J.Str reason) ]
  | Timed_out { elapsed_ms } ->
    J.Obj [ ("status", J.Str "timed-out"); ("elapsed_ms", J.Float elapsed_ms) ]
  | Failed { reason } ->
    J.Obj [ ("status", J.Str "failed"); ("reason", J.Str reason) ]
  | Bye -> J.Obj [ ("status", J.Str "bye") ]

let x_of_json j =
  match J.member "x" j with
  | Some (J.List vs) ->
    let arr = Array.of_list vs in
    let out = Array.make (Array.length arr) 0.0 in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        match J.to_float v with
        | Some f -> out.(i) <- f
        | None -> ok := false)
      arr;
    if !ok then Some out else None
  | _ -> None

let response_of_json j =
  match str_member "status" j with
  | None -> Error "missing \"status\" field"
  | Some "ok" ->
    let x = x_of_json j in
    Ok
      (Solved
         {
           solver = Option.value (str_member "solver" j) ~default:"?";
           iterations = Option.value (int_member "iterations" j) ~default:0;
           residual = Option.value (float_member "residual" j) ~default:nan;
           status = Option.value (str_member "solve_status" j) ~default:"?";
           converged =
             Option.value (bool_member "converged" j) ~default:false;
           t_solve_ms =
             Option.value (float_member "t_solve_ms" j) ~default:0.0;
           cache_hit = Option.value (bool_member "cache_hit" j) ~default:false;
           x;
         })
  | Some "updated" ->
    Ok
      (Updated
         {
           session = Option.value (int_member "session" j) ~default:0;
           version = Option.value (int_member "version" j) ~default:0;
           rung = Option.value (str_member "rung" j) ~default:"?";
           iterations = Option.value (int_member "iterations" j) ~default:0;
           residual = Option.value (float_member "residual" j) ~default:nan;
           converged =
             Option.value (bool_member "converged" j) ~default:false;
           t_update_ms =
             Option.value (float_member "t_update_ms" j) ~default:0.0;
           t_solve_ms =
             Option.value (float_member "t_solve_ms" j) ~default:0.0;
           x = x_of_json j;
         })
  | Some "diagnosed" ->
    let issues =
      match J.member "issues" j with
      | Some (J.List vs) ->
        List.filter_map (function J.Str s -> Some s | _ -> None) vs
      | _ -> []
    in
    Ok
      (Diagnosed
         { fatal = Option.value (bool_member "fatal" j) ~default:false; issues })
  | Some "health" ->
    Ok (Health_report (Option.value (J.member "report" j) ~default:J.Null))
  | Some "pong" -> Ok Pong
  | Some "bye" -> Ok Bye
  | Some "rejected" ->
    Ok (Rejected { reason = Option.value (str_member "reason" j) ~default:"?" })
  | Some "timed-out" ->
    Ok
      (Timed_out
         { elapsed_ms = Option.value (float_member "elapsed_ms" j) ~default:0.0 })
  | Some "failed" ->
    Ok (Failed { reason = Option.value (str_member "reason" j) ~default:"?" })
  | Some s -> Error (Printf.sprintf "unknown response status %S" s)

let parse_then of_json s =
  match J.parse s with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> of_json j

let request_to_string r = J.to_string (request_to_json r)
let request_of_string s = parse_then request_of_json s
let response_to_string r = J.to_string (response_to_json r)
let response_of_string s = parse_then response_of_json s

(* ---- framing ----

   [length:4, big-endian][payload:length]. All syscalls are retried on
   EINTR; reads and writes go through select() first when a deadline is
   set, so a stalled peer costs at most the remaining budget. The fd stays
   in blocking mode: select-says-ready followed by one read/write never
   blocks long on a socket, and partial transfers loop. *)

let default_max_frame = 16 * 1024 * 1024
let header_bytes = 4

let encode_header len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

type io_error =
  | Closed
  | Truncated of { got : int; expected : int }
  | Oversized of { declared : int; limit : int }
  | Deadline
  | Io of string

let io_error_to_string = function
  | Closed -> "connection closed"
  | Truncated { got; expected } ->
    Printf.sprintf "connection closed mid-frame (%d of %d payload bytes)" got
      expected
  | Oversized { declared; limit } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" declared limit
  | Deadline -> "i/o deadline expired"
  | Io msg -> "i/o error: " ^ msg

(* Wait until [fd] is ready (read or write per [for_write]) or the deadline
   passes. Returns false on deadline expiry. *)
let rec wait_ready ~for_write fd deadline =
  let timeout =
    match deadline with
    | None -> -1.0 (* select: negative = wait indefinitely *)
    | Some d ->
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0.0 then 0.0 else remaining
  in
  match deadline with
  | Some _ when timeout <= 0.0 -> false
  | _ -> (
    let r, w = if for_write then ([], [ fd ]) else ([ fd ], []) in
    match Unix.select r w [] timeout with
    | [], [], [] -> (
      (* timeout fired; when waiting indefinitely this cannot happen *)
      match deadline with None -> wait_ready ~for_write fd deadline | Some _ -> false)
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_ready ~for_write fd deadline)

(* Read exactly [want] bytes into [buf] starting at 0. Returns the number
   of bytes actually read before EOF (= [want] on success). *)
let read_exact ?deadline fd buf want =
  let got = ref 0 in
  let result = ref None in
  while !result = None && !got < want do
    if not (wait_ready ~for_write:false fd deadline) then result := Some (Error Deadline)
    else
      match Unix.read fd buf !got (want - !got) with
      | 0 -> result := Some (Ok !got) (* EOF *)
      | k -> got := !got + k
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        result := Some (Error (Io (Unix.error_message e)))
  done;
  match !result with Some r -> r | None -> Ok !got

let read_frame ?deadline ?(max_frame = default_max_frame) fd =
  let hdr = Bytes.create header_bytes in
  match read_exact ?deadline fd hdr header_bytes with
  | Error e -> Error e
  | Ok 0 -> Error Closed
  | Ok k when k < header_bytes -> Error (Truncated { got = k; expected = header_bytes })
  | Ok _ -> (
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then
      Error (Oversized { declared = len; limit = max_frame })
    else begin
      let payload = Bytes.create len in
      match read_exact ?deadline fd payload len with
      | Error e -> Error e
      | Ok k when k < len -> Error (Truncated { got = k; expected = len })
      | Ok _ -> Ok (Bytes.unsafe_to_string payload)
    end)

let write_all ?deadline fd buf =
  let len = Bytes.length buf in
  let sent = ref 0 in
  let result = ref None in
  while !result = None && !sent < len do
    if not (wait_ready ~for_write:true fd deadline) then result := Some (Error Deadline)
    else
      match Unix.write fd buf !sent (len - !sent) with
      | k -> sent := !sent + k
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        result := Some (Error (Io (Unix.error_message e)))
  done;
  match !result with Some r -> r | None -> Ok ()

let write_frame ?deadline fd payload =
  let len = String.length payload in
  let buf = Bytes.create (header_bytes + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf header_bytes len;
  write_all ?deadline fd buf
