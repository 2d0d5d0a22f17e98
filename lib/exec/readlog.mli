(** Read-observation logs for stale-data detection (Section 1's
    motivation: scheduling a sink before its wait "will have a chance to
    access stale data").

    Each memory read records which write it observed.  Comparing the log
    of a parallel execution against the sequential reference's log finds
    every read that saw the wrong generation of a cell — even when the
    wrong value happens to coincide with the right one.

    A log is four flat columns (packed [(iter, instr)], packed observed
    tag, element index, cell name), so {!record} allocates nothing once
    the columns have room. *)

type entry = {
  iter : int;  (** reading iteration (index value of [I]) *)
  instr : int;  (** body index of the reading instruction *)
  cell : string;  (** array or scalar name *)
  index : int option;  (** element index, [None] for scalars *)
  observed : Memory.tag;
}

type t

(** [create ?capacity ()] — an empty log with room for [capacity]
    reads before it first grows (default 64). *)
val create : ?capacity:int -> unit -> t

(** The [index] {!record} takes for a scalar read. *)
val scalar : int

(** [record t ~iter ~instr ~cell ~index ~observed] appends one read;
    [index] is the element index, or {!scalar}.  Raises
    [Invalid_argument] when [instr] is outside [[0, 2^24)], the
    instruction of a [Written] tag outside [[-1, 2^24)], or [iter] or
    the tag's iteration outside [(-2^37, 2^37)]: such a read cannot be
    packed without aliasing another. *)
val record :
  t -> iter:int -> instr:int -> cell:string -> index:int -> observed:Memory.tag -> unit

(** [record_tag] is {!record} with the observed writer as the store
    packs it ({!Memory.tags}; {!Memory.never} is read as [Initial]), so
    the interpreters log a read without building a tag. *)
val record_tag : t -> iter:int -> instr:int -> cell:string -> index:int -> tag:int -> unit

(** [add t e] is {!record} of [e]'s fields, with the same range checks
    ([Some min_int] is reserved as well). *)
val add : t -> entry -> unit

val to_list : t -> entry list

type mismatch = { expected : Memory.tag; entry : entry }

(** [compare_logs ~reference ~actual] — entries of [actual] whose
    observed writer differs from the reference's for the same
    (iteration, instruction) read, in [actual]'s order.  Where the
    reference read one (iteration, instruction) twice, its later read
    counts.  Reads present in only one log are ignored (if-converted
    bodies execute the same instructions, so this does not arise
    between our executors).

    The first call indexes [reference] (a dense table over its
    iterations and instructions) and keeps the index inside it, so later
    comparisons against the same reference skip that work; a {!record}
    into the reference retires the index. *)
val compare_logs : reference:t -> actual:t -> mismatch list

val pp_mismatch : Format.formatter -> mismatch -> unit
