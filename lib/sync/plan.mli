(** Statement-level synchronization insertion.

    For every carried dependence to be enforced, the plan declares:
    - a {e signal}, posted by a [Send_Signal] generated immediately after
      the dependence-source access (one signal is shared by all
      dependences with the same source access, as in the paper's Fig. 1
      where [Send_Signal(S3)] serves two waits);
    - a {e pair} (one per dependence): a [Wait_Signal(signal, I-d)]
      generated immediately before the dependence-sink statement.

    The code generator turns the plan into [Send]/[Wait] instructions and
    the extra dependence arcs that maintain the paper's synchronization
    conditions: a send cannot precede its source, a wait cannot follow
    its sink. *)

module Ast := Isched_frontend.Ast
module Dep := Isched_deps.Dep
module Access := Isched_deps.Access

type signal_decl = {
  signal : int;  (** signal id (dense, from 0) *)
  src : Access.t;  (** the dependence-source access the send follows *)
  label : string;  (** source statement label, e.g. ["S3"] *)
}

type pair = {
  wait : int;  (** wait id (dense, from 0) *)
  signal : int;
  distance : int;  (** [>= 1]; unknown distances are pinned to 1 *)
  dep : Dep.t;  (** the dependence this pair enforces *)
}

type t = { signals : signal_decl array; pairs : pair array }

(** [of_deps l deps] builds a plan enforcing exactly the carried
    dependences in [deps] (loop-independent entries are ignored). *)
val of_deps : Ast.loop -> Dep.t list -> t

(** [build l] analyzes the loop and enforces all carried dependences
    (redundant-synchronization elimination is a separate, post-codegen
    pass: {!Elim}). *)
val build : Ast.loop -> t

(** Pretty statement-level rendering: the loop body with
    [Wait_Signal]/[Send_Signal] pseudo-statements interleaved, as in the
    paper's Fig. 1(b). *)
val pp_annotated : Format.formatter -> Ast.loop -> t -> unit

(** Numbers of lexically forward / backward pairs in a plan. *)
val n_lfd : t -> int

val n_lbd : t -> int
