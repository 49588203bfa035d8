type pool = {
  backend_pool : Par_backend.pool;
  mutable busy : bool;
  (* block-partials buffer for [reduce_blocked]; grown on demand so the
     PCG hot loop allocates nothing after the first reduction *)
  mutable partials : float array;
  (* per-chunk busy seconds for the most recent profiled region; -1.0
     marks a slot whose chunk was empty. Single writer per slot. *)
  busy_s : float array;
  busy_names : string array;
}

let backend = Par_backend.name
let hardware_domains = Par_backend.hardware_domains

let max_domains = 128

let domains_of_string s =
  let s = String.trim s in
  if s = "" then Error "domain count is empty; expected a positive integer"
  else
    match int_of_string_opt s with
    | None ->
      Error
        (Printf.sprintf
           "invalid domain count %S: expected a positive integer (e.g. 4)" s)
    | Some v when v < 1 ->
      Error
        (Printf.sprintf
           "invalid domain count %d: must be >= 1 (1 = sequential)" v)
    | Some v when v > max_domains ->
      Error
        (Printf.sprintf "domain count %d exceeds the maximum of %d" v
           max_domains)
    | Some v -> Ok v

let recommended_domains () =
  match Sys.getenv_opt "POWERRCHOL_DOMAINS" with
  | None -> 1
  | Some s -> (
    match domains_of_string s with
    | Ok v -> v
    | Error reason ->
      (* a misspelled environment variable must not silently run the
         sequential solver as if nothing happened *)
      Printf.eprintf "warning: POWERRCHOL_DOMAINS ignored: %s\n%!" reason;
      1)

let create ?domains () =
  let d = match domains with Some d -> d | None -> recommended_domains () in
  if d < 1 then invalid_arg "Par.create: domains must be >= 1";
  {
    backend_pool = Par_backend.create d;
    busy = false;
    partials = [||];
    busy_s = Array.make d (-1.0);
    busy_names = Array.init d (Printf.sprintf "par/busy_s#%d");
  }

let domains p = Par_backend.size p.backend_pool
let shutdown p = Par_backend.shutdown p.backend_pool

let default_pool : pool option ref = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create () in
    default_pool := Some p;
    p

let set_default_domains d =
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := Some (create ~domains:d ())

let effective_domains () = domains (default ())

(* Worker domains never outlive the process: alcotest runners and the CLI
   both exit through at_exit, which parks-then-joins the default pool. *)
let () =
  at_exit (fun () ->
      match !default_pool with Some p -> shutdown p | None -> ())

let runs_parallel p = domains p > 1 && not p.busy

let parallel_for p ?(min_work = 1) ~lo ~hi f =
  let len = hi - lo in
  if len > 0 then begin
    let d = domains p in
    if d = 1 || p.busy || len < min_work then f lo hi
    else begin
      (* When telemetry is on, each chunk records into its own Obs
         worker store (seeded with the caller's span prefix, so merged
         paths match the sequential run) and its busy time is flushed
         to par/busy_s#<slot> afterwards. When off, the closure below
         is the bare chunk call — a single flag read per region. *)
      let obs_on = Obs.enabled () in
      let prefix = if obs_on then Obs.current_prefix () else "" in
      if obs_on then Array.fill p.busy_s 0 d (-1.0);
      p.busy <- true;
      Fun.protect
        ~finally:(fun () -> p.busy <- false)
        (fun () ->
          let chunk = (len + d - 1) / d in
          Par_backend.run p.backend_pool (fun i ->
              let clo = lo + (i * chunk) in
              let chi = min hi (clo + chunk) in
              if clo < chi then
                if obs_on then
                  Obs.worker_scope ~slot:i ~prefix (fun () ->
                      let t0 = Obs.now () in
                      Fun.protect
                        ~finally:(fun () ->
                          p.busy_s.(i) <- Float.max (Obs.now () -. t0) 0.0)
                        (fun () -> f clo chi))
                else f clo chi));
      if obs_on then
        for i = 0 to d - 1 do
          if p.busy_s.(i) >= 0.0 then
            Obs.add_absolute p.busy_names.(i) p.busy_s.(i)
        done
    end
  end

let default_block = 4096

let reduce_blocked p ?(block = default_block) ~lo ~hi f =
  let len = hi - lo in
  if len <= 0 then 0.0
  else begin
    if block < 1 then invalid_arg "Par.reduce_blocked: block must be >= 1";
    let nblocks = (len + block - 1) / block in
    if nblocks = 1 || not (runs_parallel p) then begin
      (* same fixed-block association as the parallel path, so the result
         does not depend on how many domains happened to be available *)
      let acc = ref 0.0 in
      for b = 0 to nblocks - 1 do
        let blo = lo + (b * block) in
        acc := !acc +. f blo (min hi (blo + block))
      done;
      !acc
    end
    else begin
      if Array.length p.partials < nblocks then
        p.partials <- Array.make nblocks 0.0;
      let partials = p.partials in
      parallel_for p ~lo:0 ~hi:nblocks (fun blo bhi ->
          for b = blo to bhi - 1 do
            let xlo = lo + (b * block) in
            partials.(b) <- f xlo (min hi (xlo + block))
          done);
      let acc = ref 0.0 in
      for b = 0 to nblocks - 1 do
        acc := !acc +. partials.(b)
      done;
      !acc
    end
  end
