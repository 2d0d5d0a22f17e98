(** Shared memory with deterministic default contents and write-origin
    tracking.

    Array cells are addressed by (name, element index); scalars by name.
    A cell that was never written reads its {!Semantics.init_value}.
    Every write carries a {e writer tag} — which iteration and which
    (original-order) instruction produced the value — and every read can
    report the tag of the write it observed, which is how the stale-data
    checker compares a parallel execution against the sequential
    reference. *)

(** Writer tag: [(iteration, body index)]; [initial] for never-written. *)
type tag = Initial | Written of { iter : int; instr : int }

(** [tag_equal a b] — structural equality on tags, without the
    polymorphic compare. *)
val tag_equal : tag -> tag -> bool

(** What one read observes: the value and who wrote it. *)
type cell = { value : float; tag : tag }

(** Each array is its own int-keyed table, found by name; scalars are
    one string-keyed table. *)
type t

val create : unit -> t

(** Array cells.  [read] is [get] and [tag_of] in one lookup. *)
val read : t -> string -> int -> cell

val get : t -> string -> int -> float

val set : t -> string -> int -> float -> tag -> unit

(** [tag_of t name idx] — who wrote the cell last. *)
val tag_of : t -> string -> int -> tag

(** Scalars. *)
val read_scalar : t -> string -> cell

val get_scalar : t -> string -> float

val set_scalar : t -> string -> float -> tag -> unit
val scalar_tag_of : t -> string -> tag

(** [written_cells t] — sorted [(name, idx), value] for all array cells
    ever written; [written_scalars t] likewise. *)
val written_cells : t -> ((string * int) * float) list

val written_scalars : t -> (string * float) list

(** [equal a b] — the memories agree on every cell either ever wrote
    (bitwise, NaN-safe); unwritten cells agree by construction.  Walks
    each side's written cells against the other and stops at the first
    difference; it is [diff a b = []] without building the report. *)
val equal : t -> t -> bool

(** [diff a b] — cells where they disagree, for error reports. *)
val diff : t -> t -> string list

val pp_tag : Format.formatter -> tag -> unit
