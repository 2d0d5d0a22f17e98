(** Int-specialized mutable binary max-heap for worklists whose
    elements are small ints (node or statement indices): the schedulers'
    ready sets and statement migration's topological order.

    Priority and tie-break are packed into one key per entry, so the
    heap is a single [int array] — no boxing, no per-push allocation
    once the backing array has grown to its high-water mark.  Pop
    order: largest [prio] first, ties towards the smaller [tie]. *)

type t

(** [create ()] is an empty queue. *)
val create : unit -> t

(** [is_empty q] tests emptiness. *)
val is_empty : t -> bool

(** [length q] is the number of queued elements. *)
val length : t -> int

(** [push q ~prio ~tie x] inserts [x].  [prio] must be in [-1, 16381]
    ([-1] is the marker scheduler's wait demotion) and [tie], [x] in
    [0, 2^24); all hold for every scheduler worklist (node indices,
    critical-path lengths) and for statement migration's offset scores.
    Raises [Invalid_argument] otherwise. *)
val push : t -> prio:int -> tie:int -> int -> unit

(** [pop q] removes and returns the maximum-priority element.
    Raises [Not_found] if empty. *)
val pop : t -> int

(** [clear q] empties the queue, keeping the backing storage. *)
val clear : t -> unit
