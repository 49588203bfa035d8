exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type symmetry = General | Symmetric

(* Real-world .mtx exports separate header tokens with tabs and may carry
   CRLF line endings; tokenize on any ASCII whitespace after trimming. *)
let header_tokens line =
  String.lowercase_ascii (String.trim line)
  |> String.map (function '\t' | '\r' | '\012' -> ' ' | c -> c)
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let parse_header line =
  match header_tokens line with
  | "%%matrixmarket" :: "matrix" :: "coordinate" :: field :: sym :: [] ->
    if field <> "real" && field <> "integer" then
      fail "line 1: unsupported field %S (only real/integer)" field;
    (match sym with
     | "general" -> General
     | "symmetric" -> Symmetric
     | s -> fail "line 1: unsupported symmetry %S" s)
  | _ -> fail "line 1: malformed MatrixMarket header: %S" line

(* ---- chunked line scanner ---------------------------------------------
   Reads fixed-size chunks and puts one line at a time in view as the range
   [lo, hi) of [b]: in place when the line lies inside the chunk, gathered
   into a fresh buffer when it straddles a boundary. Memory is one chunk
   plus the longest line. Lines split and number as [input_line]'s do.
   Each pass drops its chunk, so the chunk is kept small: 64 KiB chunks
   cost a daemon serving reads ~4 MB of peak RSS for no speed gain. *)

let chunk_size = 16384

type scanner = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable len : int;  (* valid bytes in [chunk] *)
  mutable pos : int;  (* first byte of [chunk] not yet in view *)
  mutable line : int;
  mutable b : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable cur : int;  (* token cursor in [lo, hi) *)
}

let with_scanner path f =
  In_channel.with_open_bin path (fun ic ->
      f
        {
          ic;
          chunk = Bytes.create chunk_size;
          len = 0;
          pos = 0;
          line = 0;
          b = Bytes.empty;
          lo = 0;
          hi = 0;
          cur = 0;
        })

let refill s =
  s.len <- In_channel.input s.ic s.chunk 0 chunk_size;
  s.pos <- 0;
  s.len > 0

let rec find_newline b i stop =
  if i >= stop || Bytes.unsafe_get b i = '\n' then i
  else find_newline b (i + 1) stop

(* Put the next line (without its '\n') in view; false at end of file. *)
let next_line s =
  if s.pos >= s.len && not (refill s) then false
  else begin
    s.line <- s.line + 1;
    let e = find_newline s.chunk s.pos s.len in
    if e < s.len then begin
      s.b <- s.chunk;
      s.lo <- s.pos;
      s.hi <- e;
      s.pos <- e + 1
    end
    else begin
      let g = Buffer.create 256 in
      let rec gather e =
        Buffer.add_subbytes g s.chunk s.pos (e - s.pos);
        if e < s.len then s.pos <- e + 1
        else if refill s then gather (find_newline s.chunk 0 s.len)
      in
      gather e;
      s.b <- Buffer.to_bytes g;
      s.lo <- 0;
      s.hi <- Buffer.length g
    end;
    true
  end

let is_trim = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

(* Put the next data line in view, trimmed as [String.trim] trims, skipping
   blank lines and '%' comments; false at end of file. *)
let rec next_data s =
  if not (next_line s) then false
  else begin
    while s.lo < s.hi && is_trim (Bytes.unsafe_get s.b s.lo) do
      s.lo <- s.lo + 1
    done;
    while s.hi > s.lo && is_trim (Bytes.unsafe_get s.b (s.hi - 1)) do
      s.hi <- s.hi - 1
    done;
    s.cur <- s.lo;
    (s.lo < s.hi && Bytes.unsafe_get s.b s.lo <> '%') || next_data s
  end

let text s = Bytes.sub_string s.b s.lo (s.hi - s.lo)

(* Tokens, read in place from [s.cur] to [s.hi], each leaving [s.cur] past
   itself, in the grammar of the test oracle's Scanf " %d %d %s". *)
exception Malformed

let is_separator = function ' ' | '\t' | '\r' -> true | _ -> false

(* The first index from [i] whose byte is not ([sep]) or is ([not sep]) a
   separator, or [hi] *)
let rec span b i hi sep =
  if i < hi && is_separator (Bytes.unsafe_get b i) = sep then
    span b (i + 1) hi sep
  else i

let at s i = if i < s.hi then Bytes.unsafe_get s.b i else ' '

let rec digits s i n =
  match at s i with
  | '_' -> digits s (i + 1) n
  | '0' .. '9' as c ->
    let d = Char.code c - Char.code '0' in
    if n > (max_int - d) / 10 then raise Malformed;
    digits s (i + 1) ((n * 10) + d)
  | _ ->
    s.cur <- i;
    n

let int s =
  let i = span s.b s.cur s.hi true in
  let sign = at s i in
  let i = if sign = '-' || sign = '+' then i + 1 else i in
  match at s i with
  | '0' .. '9' -> if sign = '-' then -digits s i 0 else digits s i 0
  | _ -> raise Malformed

let value s =
  let start = span s.b s.cur s.hi true in
  s.cur <- span s.b start s.hi false;
  try float_of_string (Bytes.sub_string s.b start (s.cur - start))
  with Failure _ -> raise Malformed

(* ---- streaming two-pass reader ----------------------------------------
   Pass 1 counts entries per column, pass 2 fills the bucketed arrays, and
   Csc.of_bucketed sorts/coalesces in place. No triplet list is built, so
   peak memory is the final CSC plus one cursor array. *)

(* Line 1 through [parse], then the first [k] integers of the size line
   (the first data line). *)
let sizes s parse k =
  if not (next_line s) then fail "line 1: empty file";
  let header = parse (text s) in
  if not (next_data s) then fail "line %d: missing size line" s.line;
  try (header, Array.init k (fun _ -> int s))
  with Malformed -> fail "line %d: malformed size line %S" s.line (text s)

(* Shared by both passes, so pass 2 skips exactly the prefix pass 1 read. *)
let prelude s =
  let sym, d = sizes s parse_header 3 in
  let n_rows = d.(0) and n_cols = d.(1) and entries = d.(2) in
  if n_rows < 0 || n_cols < 0 || entries < 0 then
    fail "line %d: invalid size line %S: dimensions and entry count must be \
          >= 0"
      s.line (text s);
  (* the count pass would mirror (i,j) into a length-(n_cols+1) array and
     crash on bounds instead of raising a positioned Parse_error *)
  if sym = Symmetric && n_rows <> n_cols then
    fail "line %d: symmetric matrix must be square, got %d x %d" s.line
      n_rows n_cols;
  (sym, n_rows, n_cols, entries)

(* The data line in view as "i j value", handed to [f] 0-based along with
   its symmetric mirror. Pass 1 parses the value too, so the first fault in
   file order is the one reported. *)
let entry s ~sym ~n_rows ~n_cols f =
  match
    let i = int s in
    let j = int s in
    (i, j, value s)
  with
  | exception Malformed ->
    fail "line %d: malformed entry line %S" s.line (text s)
  | i, j, _ when i < 1 || i > n_rows || j < 1 || j > n_cols ->
    fail "line %d: entry (%d,%d) out of bounds" s.line i j
  | i, j, v ->
    f (i - 1) (j - 1) v;
    if sym = Symmetric && i <> j then f (j - 1) (i - 1) v

let read path =
  (* Pass 1: count per-column entries (including the symmetric mirror). *)
  let sym, n_rows, n_cols, entries, counts, expanded =
    with_scanner path (fun s ->
        let sym, n_rows, n_cols, entries = prelude s in
        Idx.check_index_capacity ~what:"Matrix_market.read"
          (max n_rows n_cols);
        let counts = Idx.make (n_cols + 1) in
        let expanded = ref 0 in
        let count _ j _ =
          Idx.set counts (j + 1) (Idx.get counts (j + 1) + 1);
          incr expanded
        in
        for k = 1 to entries do
          if not (next_data s) then
            fail "line %d: expected %d entries, file ended at %d" s.line
              entries (k - 1);
          entry s ~sym ~n_rows ~n_cols count
        done;
        (* a payload longer than the declared count is as corrupt as a
           short one: a truncated-then-concatenated export would otherwise
           load silently with the surplus entries dropped *)
        if next_data s then
          fail
            "line %d: size line declared %d entries but the file continues \
             (first extra line: %S) — truncated or corrupted export"
            s.line entries (text s);
        (sym, n_rows, n_cols, entries, counts, !expanded))
  in
  Idx.check_index_capacity ~what:"Matrix_market.read" expanded;
  (* counts.(j) currently holds column j-1's count (1-based file indices
     landed one slot up), which is exactly the layout a prefix sum turns
     into bucket boundaries. *)
  let col_ptr = counts in
  for j = 1 to n_cols do
    Idx.set col_ptr j (Idx.get col_ptr j + Idx.get col_ptr (j - 1))
  done;
  let row_idx = Idx.make (max expanded 1) in
  let values = Vec.create (max expanded 1) in
  let cursor = Idx.copy col_ptr in
  let put i j v =
    let k = Idx.get cursor j in
    Idx.set row_idx k i;
    Vec.set values k v;
    Idx.set cursor j (k + 1)
  in
  (* Pass 2: fill the buckets in file order (the same per-column arrival
     order a triplet build produces, so coalescing is bit-identical). *)
  with_scanner path (fun s ->
      ignore (prelude s);
      for k = 1 to entries do
        if not (next_data s) then
          fail "line %d: file shrank between passes (%d of %d entries)"
            s.line (k - 1) entries;
        entry s ~sym ~n_rows ~n_cols put
      done);
  Csc.of_bucketed ~n_rows ~n_cols ~col_ptr ~row_idx ~values

(* ---- writers ----------------------------------------------------------- *)

let write_channel ?(symmetric = false) oc a =
  let n_rows, n_cols = Csc.dims a in
  (* a symmetric file stores the lower triangle, streamed straight from
     [a]: count first so the size line is exact, then emit *)
  let stored i j = (not symmetric) || i >= j in
  let count =
    Csc.fold_nonzeros a ~init:0 ~f:(fun acc i j _ ->
        if stored i j then acc + 1 else acc)
  in
  Printf.fprintf oc "%%%%MatrixMarket matrix coordinate real %s\n"
    (if symmetric then "symmetric" else "general");
  Printf.fprintf oc "%d %d %d\n" n_rows n_cols count;
  for j = 0 to n_cols - 1 do
    Csc.iter_col a j (fun i v ->
        if stored i j then
          Printf.fprintf oc "%d %d %.17g\n" (i + 1) (j + 1) v)
  done

let write ?symmetric path a =
  Out_channel.with_open_text path (fun oc -> write_channel ?symmetric oc a)

let parse_array_header line =
  match header_tokens line with
  | "%%matrixmarket" :: "matrix" :: "array" :: field :: "general" :: [] ->
    if field <> "real" && field <> "integer" then
      fail "line 1: unsupported array field %S" field
  | _ -> fail "line 1: malformed MatrixMarket array header: %S" line

let read_vectors path =
  with_scanner path (fun s ->
      let (), d = sizes s parse_array_header 2 in
      let n_rows = d.(0) and n_cols = d.(1) in
      if n_rows < 0 || n_cols < 1 then
        fail "line %d: invalid dimensions %d x %d" s.line n_rows n_cols;
      (* array format is column-major: column 0 completely, then column 1 *)
      let cols =
        Array.init n_cols (fun j ->
            Vec.init n_rows (fun k ->
                if not (next_data s) then
                  fail "line %d: expected %d entries, file ended at %d" s.line
                    (n_rows * n_cols)
                    ((j * n_rows) + k);
                match float_of_string_opt (text s) with
                | Some v -> v
                | None -> fail "line %d: malformed value %S" s.line (text s)))
      in
      if next_data s then
        fail
          "line %d: size line declared %d x %d values but the file continues \
           (first extra line: %S) — truncated or corrupted export"
          s.line n_rows n_cols (text s);
      cols)

let read_vector path =
  match read_vectors path with
  | [| v |] -> v
  | cols -> fail "expected a single column, got %d" (Array.length cols)

let write_vectors path cols =
  if Array.length cols = 0 then invalid_arg "write_vectors: no columns";
  let n = Vec.length cols.(0) in
  Array.iter
    (fun c ->
      if Vec.length c <> n then
        invalid_arg "write_vectors: columns of unequal length")
    cols;
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "%%%%MatrixMarket matrix array real general\n";
      Printf.fprintf oc "%d %d\n" n (Array.length cols);
      Array.iter
        (fun c -> Vec.iteri (fun _ x -> Printf.fprintf oc "%.17g\n" x) c)
        cols)

let write_vector path v = write_vectors path [| v |]
