(** Shared memory with deterministic default contents and write-origin
    tracking.

    Array cells are addressed by (name, element index); scalars by name.
    A cell that was never written reads its {!Semantics.init_value}.
    Every write carries a {e writer tag} — which iteration and which
    (original-order) instruction produced the value — and every read can
    report the tag of the write it observed, which is how the stale-data
    checker compares a parallel execution against the sequential
    reference.

    The store is slot-addressed: each array name and each scalar name
    owns one {!slot} (scalar [A] and array [A] are different slots),
    holding a float column of values and an int column of packed writer
    tags.  The interpreters resolve a slot per memory instruction once
    per run and then address cells by position ({!locate}, {!claim}),
    so no access hashes a name; the by-name functions are for cold
    callers. *)

(** Writer tag: [(iteration, body index)]; [initial] for never-written. *)
type tag = Initial | Written of { iter : int; instr : int }

(** [tag_equal a b] — structural equality on tags, without the
    polymorphic compare. *)
val tag_equal : tag -> tag -> bool

(** What one read observes: the value and who wrote it. *)
type cell = { value : float; tag : tag }

type t

val create : unit -> t

(** Array cells.  [read] is [get] and [tag_of] in one lookup; none of
    the readers changes the memory. *)
val read : t -> string -> int -> cell

val get : t -> string -> int -> float

(** [set t name idx v tag] — raises [Invalid_argument] when [tag] cannot
    be packed (see {!written}). *)
val set : t -> string -> int -> float -> tag -> unit

(** [tag_of t name idx] — who wrote the cell last. *)
val tag_of : t -> string -> int -> tag

(** Scalars. *)
val read_scalar : t -> string -> cell

val get_scalar : t -> string -> float

val set_scalar : t -> string -> float -> tag -> unit
val scalar_tag_of : t -> string -> tag

(** [written_cells t] — sorted [(name, idx), value] for all array cells
    ever written (a write tagged [Initial] included); [written_scalars
    t] likewise. *)
val written_cells : t -> ((string * int) * float) list

val written_scalars : t -> (string * float) list

(** [equal a b] — the memories agree on every cell either ever wrote
    (bitwise, NaN-safe); unwritten cells agree by construction.  Walks
    each slot's written cells against the other side's slot of that
    name and stops at the first difference; it is [diff a b = []]
    without building the report. *)
val equal : t -> t -> bool

(** [diff a b] — cells where they disagree, for error reports, sorted
    by name and index; each slot is looked up by name once a side. *)
val diff : t -> t -> string list

val pp_tag : Format.formatter -> tag -> unit

(** {2 Packed tags}

    A tag column holds a written cell's tag packed in one int ([instr]
    may be [-1], the AST interpreter's), {!initial} for a write tagged
    [Initial], or {!never} for a cell read but never written. *)

val initial : int
val never : int

(** [written ~iter ~instr] packs [Written { iter; instr }].  Raises
    [Invalid_argument] unless [instr] is in [[-1, 2^24)] and [iter] in
    [(-2^37, 2^37)]. *)
val written : iter:int -> instr:int -> int

val pack_tag : tag -> int

(** [unpack_tag v] inverts {!pack_tag}; {!never} unpacks to [Initial]. *)
val unpack_tag : int -> tag

(** {2 Slots}

    The interpreters' hot path.  A slot's index window grows on demand
    (at least doubling) while its span stays within max(1024, 4 × cells
    touched); an index past that is kept in a per-slot table instead,
    so the footprint follows the cells touched however sparse the
    subscripts.  Growing reallocates the columns: fetch {!values},
    {!tags} and {!marks} after each {!locate} or {!claim}. *)

type slot

(** [array_slot ?window t name] — the slot of array [name], created on
    first use with a first window of [window] cells (clamped to
    [[16, 1024]]); [scalar_slot t name] likewise. *)
val array_slot : ?window:int -> t -> string -> slot

val scalar_slot : t -> string -> slot
val slot_name : slot -> string
val is_scalar : slot -> bool

(** [locate s idx] — the position of element [idx] (0 for a scalar) in
    [s]'s columns, for a read: it holds the current value (the initial
    one if never written) and the writer's packed tag, or {!never}. *)
val locate : slot -> int -> int

(** [claim s idx] — the position of element [idx] for a write: store a
    value and a packed tag there before the next access to [s]. *)
val claim : slot -> int -> int

val values : slot -> float array
val tags : slot -> int array

(** [marks s] — a scratch column, [-1] until a caller writes it: the
    value simulator stamps the cells each cycle writes, to find races. *)
val marks : slot -> int array
