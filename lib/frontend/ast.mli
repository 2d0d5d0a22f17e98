(** Abstract syntax of the mini-Fortran DO-loop language.

    The language covers what the paper's pipeline consumes: singly-nested
    [DO]/[DOACROSS] loops over an integer index, whose bodies are
    (optionally guarded) assignments to array elements or scalars, with
    arithmetic over array references, scalars, the loop index and
    constants.  This is the shape of the loops Parafrase leaves behind
    and of the paper's running example (Fig. 1). *)

type relop = Lt | Le | Gt | Ge | Eq | Ne

type binop = Add | Sub | Mul | Div

type expr =
  | Num of float
  | Ivar  (** the loop index *)
  | Scalar of string
  | Aref of string * expr  (** array element; the subscript is any expression *)
  | Bin of binop * expr * expr
  | Neg of expr

type cond = { rel : relop; lhs : expr; rhs : expr }

type lhs = Larr of string * expr | Lscalar of string

type stmt = {
  label : string;  (** e.g. ["S1"]; auto-generated when absent in source *)
  guard : cond option;  (** [IF (cond) stmt] *)
  lhs : lhs;
  rhs : expr;
}

type loop_kind = Do | Doacross

type loop = {
  kind : loop_kind;
  index : string;  (** loop-variable name *)
  lo : int;
  hi : int;
  body : stmt list;
  name : string;  (** loop identifier for reports *)
  digest : int;
      (** structural hash of the other fields, fixed at construction;
          memo tables keyed on loops hash on this instead of re-walking
          the AST.  It covers the header and the first statements only
          (loops differing further on may collide).  Maintained by the
          constructors below: structurally equal loops carry equal
          digests. *)
}

(** [make_loop] computes the digest; use it (or [with_body]/[with_name])
    instead of a record literal so the digest stays consistent with
    structural equality. *)
val make_loop :
  kind:loop_kind -> index:string -> lo:int -> hi:int -> body:stmt list -> name:string -> loop

(** [with_body l body] is [l] with a new body and a recomputed digest. *)
val with_body : loop -> stmt list -> loop

(** [with_name l name] is [l] renamed, with a recomputed digest. *)
val with_name : loop -> string -> loop

(** [iterations l] is [hi - lo + 1] (0 when empty). *)
val iterations : loop -> int

(** [scalars_read e] collects scalar reference names, with duplicates,
    in left-to-right order. *)
val scalars_read : expr -> string list

(** [stmt_arrays_read s] collects the array references [s] reads (name
    and subscript), guard first, with duplicates, in left-to-right
    order. *)
val stmt_arrays_read : stmt -> (string * expr) list

val stmt_scalars_read : stmt -> string list

(** [rename_scalar ~from ~into e] substitutes an expression for every
    read of scalar [from] (used by induction-variable substitution). *)
val rename_scalar : from:string -> into:expr -> expr -> expr

(** Pretty-printing back to concrete syntax (round-trips through the
    parser). *)
val pp_expr : Format.formatter -> expr -> unit

val pp_stmt : Format.formatter -> stmt -> unit
val pp_loop : Format.formatter -> loop -> unit
val loop_to_string : loop -> string

(** [source_lines l] is the number of source lines the loop occupies when
    printed (header + statements + terminator), the unit used by the
    "lines parsed" rows of Table 1. *)
val source_lines : loop -> int

val equal_expr : expr -> expr -> bool
