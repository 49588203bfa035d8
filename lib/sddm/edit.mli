(** Incremental edits to an SDDM system (the ECO vocabulary).

    An {!t} describes one physical change to a power-grid system: a
    resistor value change, a new resistor, a pad (excess-diagonal) change,
    or a load (right-hand-side) change. A {!state} owns a mutable copy of
    a problem and applies edits to it in place, classifying each edit by
    how much of the prepared solve it invalidates:

    - {!Rhs_changed} — the matrix is untouched; any factorization stays
      valid as-is.
    - {!Edge_changed} / {!Excess_changed} — numeric values moved but the
      sparsity pattern did not; the four stamped CSC entries are patched
      in place, so consumers holding the matrix see the edit immediately,
      and an incremental re-factorization is possible.
    - {!Pattern_grew} — the sparsity pattern changed; the matrix was
      rebuilt and downstream factorizations must be re-prepared.

    The state deep-copies everything at construction: applying edits
    never mutates the problem the caller handed in. *)

type t =
  | Set_conductance of { u : int; v : int; siemens : float }
      (** set the conductance of edge (u,v) to an absolute value;
          [0.] removes the resistor electrically (the pattern keeps the
          slot, so this stays a value-only edit) *)
  | Scale_conductance of { u : int; v : int; factor : float }
      (** multiply the conductance of an existing edge (wire
          strengthening / weakening); the edge must exist *)
  | Add_resistor of { u : int; v : int; siemens : float }
      (** add conductance in parallel; grows the pattern when (u,v) was
          not previously connected *)
  | Set_excess of { node : int; siemens : float }
      (** set the node's excess diagonal (pad conductance) to an
          absolute value *)
  | Set_load of { node : int; amps : float }
      (** set the node's load current (rhs entry) to an absolute value *)

val support : t -> int list
(** The matrix nodes the edit touches; empty for {!Set_load}. *)

val to_string : t -> string

val validate : n:int -> t -> unit
(** Raises [Invalid_argument] for out-of-range nodes, self loops,
    negative or non-finite conductances. *)

(** {1 Mutable edited-matrix state} *)

type state

val of_problem : Problem.t -> state
(** Deep-copy [problem] into an editable state. *)

val problem : state -> Problem.t
(** The current edited problem. Its matrix values are patched in place by
    value-only edits (same physical matrix across such edits); the record
    is replaced wholesale on pattern growth — re-read after any apply
    that returned {!Pattern_grew}. *)

val generation : state -> int
(** Bumped every time the pattern is rebuilt; consumers caching anything
    derived from the matrix pattern must compare generations. *)

val rebuild : state -> Problem.t
(** Rebuild the problem from scratch (fresh graph and matrix, zero-weight
    edges dropped) — exactly what a from-scratch preparation of the
    edited system sees — and {e adopt} it as the state's current one (and
    bump the generation): subsequent value-only edits patch the returned
    matrix in place. Used by the full re-prepare fallback, whose
    factorization must see the rebuilt graph while later edits must keep
    reaching the matrix it solves against. *)

type change =
  | No_change  (** the edit was a no-op (value already there) *)
  | Rhs_changed of { node : int }
  | Edge_changed of { u : int; v : int; from_w : float; to_w : float }
      (** value-only; [u < v] *)
  | Excess_changed of { node : int; from_s : float; to_s : float }
  | Pattern_grew of { u : int; v : int; siemens : float }

val apply : state -> t -> change
(** Apply one edit. Raises [Invalid_argument] on an invalid edit (the
    state is unchanged in that case). *)

val apply_all : state -> t list -> change list

val edited_problem : Problem.t -> t list -> Problem.t
(** Pure convenience: copy, apply every edit, rebuild from scratch. The
    reference "what would a from-scratch prepare see" for tests and the
    full re-prepare fallback. *)
