(** Plain-text table rendering for the evaluation's tables.

    Every table the harness reproduces (Tables 1-3 of the paper, the
    ablations, the sweeps) is built as a {!t} and rendered with
    {!render}, so the output format of [ischedc tables] and
    [ischedc ablations] is uniform. *)

type align = Left | Right

type t

(** [create ~title ~columns] starts a table. [columns] gives header text
    and alignment per column. *)
val create : title:string -> columns:(string * align) list -> t

(** [add_row t cells] appends a data row. Raises [Invalid_argument] if
    the arity does not match the header. *)
val add_row : t -> string list -> unit

(** [add_sep t] appends a horizontal separator (used before totals). *)
val add_sep : t -> unit

(** [render t] lays the table out with box-drawing rules and returns it
    as a string ending in a newline. *)
val render : t -> string

(** [print t] renders to stdout. *)
val print : t -> unit

(** Cell formatting helpers. *)

(** [fmt_int n] renders an integer cell. *)
val fmt_int : int -> string

(** [fmt_float ?decimals x] renders a float cell (2 decimals by
    default). *)
val fmt_float : ?decimals:int -> float -> string

(** [fmt_pct ?decimals x] renders a percentage cell, e.g. [87.36%]. *)
val fmt_pct : ?decimals:int -> float -> string
