(** Memory-access extraction.

    Every statement is flattened into an ordered list of memory accesses
    — the order in which the generated three-address code will touch
    memory: guard reads first, then left-hand-side subscript reads, then
    right-hand-side reads (left to right, inner subscript reads before
    the enclosing array read), and the write last.

    The (statement index, access index) pair identifies an access
    stably; the code generator enumerates accesses in exactly this order,
    which is how statement-level dependences are mapped onto the
    three-address instructions that realise them. *)

module Ast := Isched_frontend.Ast

type t = {
  stmt : int;  (** statement index in the loop body (0-based) *)
  idx : int;  (** position within the statement's access list *)
  target : string;  (** array or scalar name *)
  is_array : bool;
  sub : Ast.expr option;  (** subscript, [None] for scalars *)
  affine : Affine.t option;  (** normalized subscript when analyzable *)
  is_write : bool;
}

(** [of_loop l] lists the accesses of each statement in turn, each in
    evaluation order. *)
val of_loop : Ast.loop -> t list

(** [writes l] / [reads l] filter {!of_loop}. *)
val writes : Ast.loop -> t list

val reads : Ast.loop -> t list

val pp : Format.formatter -> t -> unit
