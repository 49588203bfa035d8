(** Minimal MatrixMarket (.mtx) coordinate-format reader/writer.

    Supports [matrix coordinate real general|symmetric] headers, which covers
    the SuiteSparse SDDM matrices the paper's Table 4 uses, so locally
    downloaded copies can be fed to the solvers. Symmetric files store the
    lower triangle; reading expands to the full matrix. *)

exception Parse_error of string

val read : string -> Csc.t
(** [read path] loads an .mtx file in two streaming passes: the first
    counts entries per column, the second fills the CSC buckets directly,
    so peak memory is the final matrix plus one cursor array. Each pass
    scans the file in fixed 16 KiB chunks and parses every line in place,
    so a file of any size costs one chunk plus its longest line.

    Grammar. Line 1 is the header. After it, lines are split at ['\n'] and
    trimmed of [' '], ['\t'], ['\r'] and form feed at both ends; blank
    lines and lines starting with [%] are skipped anywhere. The first
    remaining line is the size line ([rows cols entries]); each of the
    next [entries] is one entry [i j value]:
    - an index is an optional [+] or [-], a decimal digit, then digits or
      [_] (skipped); the 1-based indices must lie inside the declared
      dimensions;
    - tokens are separated by any run of [' '], ['\t'] or ['\r'], which
      may be empty after an index ([1 22.5] is [(1, 22, 0.5)]);
    - the value is the token up to the next separator, converted by
      [float_of_string], so [nan], [inf], hex floats and [_] separators
      load and diagnostics can report them;
    - anything after the value (or after the third size-line integer) is
      ignored.

    A line too short for its tokens (["1"] as an entry) is malformed.

    Errors. Raises [Parse_error] on malformed input, always prefixed
    [line N:] with the 1-based line of the first fault in file order, and
    [Sys_error] on I/O failure. The declared entry count is enforced both
    ways: a file that ends early {e or} continues past its declared nnz (a
    truncated/concatenated export) raises [Parse_error] with the offending
    line — it never loads silently with entries dropped. *)

val write : ?symmetric:bool -> string -> Csc.t -> unit
(** [write ~symmetric path a] stores [a]; with [~symmetric:true] (default
    false) only the lower triangle is emitted under a [symmetric] header
    (the matrix must actually be symmetric). The triangle is streamed
    straight from [a] — no lower-triangular copy is materialized. *)

val write_channel : ?symmetric:bool -> out_channel -> Csc.t -> unit

val read_vector : string -> Vec.t
(** [read_vector path] loads a dense vector stored as
    [matrix array real general] with one column (the format SuiteSparse
    uses for right-hand sides). Raises [Parse_error] if the file holds
    more than one column — use {!read_vectors} for multi-RHS files. *)

val read_vectors : string -> Vec.t array
(** [read_vectors path] loads a dense [matrix array real general] file as
    one array per column (column-major storage, as MatrixMarket
    specifies). A k-column file is k right-hand sides for the same
    matrix — the batched factor-once / solve-many input. It uses the same
    chunked scanner and line rules as {!read}; each value line, trimmed,
    must be one [float_of_string] token, and every [Parse_error] carries
    its [line N:] prefix. *)

val write_vector : string -> Vec.t -> unit

val write_vectors : string -> Vec.t array -> unit
(** [write_vectors path cols] stores the columns as one
    [matrix array real general] file; all columns must share a length. *)
