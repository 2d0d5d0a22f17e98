(** DLX-like three-address code generation (the paper's Fig. 2 shape).

    One loop iteration compiles to straight-line code.  Per statement the
    emission order is: the [Wait_Signal]s of dependences sinking at the
    statement, the guard condition (if any), the left-hand-side address,
    the right-hand side in post-order (operand loads are emitted at their
    use — the delayed-load style the paper points out), the (possibly
    if-converted) store, and finally any [Send_Signal] immediately after
    its dependence-source access.

    Address arithmetic is value-numbered across the whole body, so a
    subscript address such as [4*I] is computed once and reused by later
    statements (Fig. 2 reuses [t1] in instructions 10, 22 and 26).
    Loads are never value-numbered, except loads from arrays the body
    provably never stores to, and scalar loads of read-only scalars.

    Guarded statements are if-converted: the old value of the target cell
    is loaded, the new value selected under the guard predicate, and the
    result stored unconditionally. *)

module Ast := Isched_frontend.Ast

(** [run ?n_iters l plan] compiles the loop under the given
    synchronization plan into a {!Isched_ir.Program.t}.  [n_iters]
    overrides the iteration count recorded in the program (defaults to
    the loop's own range).  The result passes
    {!Isched_ir.Program.validate}.

    Raises [Invalid_argument] if the loop fails {!Sema.check} or uses
    subscripts nested deeper than one indirection. *)
val run : ?n_iters:int -> Ast.loop -> Isched_sync.Plan.t -> Isched_ir.Program.t

(** [compile ?migrate ?carried ?n_iters l] is the full front end in one
    call: optional statement migration, sync-plan construction, then
    {!run}.  Restructuring is {e not} applied (callers choose via
    {!Isched_transform.Restructure}); redundant Send/Wait pairs are
    removed after code generation, by {!Isched_sync.Elim}.

    [carried], when given, must equal [Dep.carried_deps l]; callers
    that already ran the dependence analysis (e.g. to decide DOALL vs
    DOACROSS) pass it along so the plan is built without re-analyzing.
    Ignored under [migrate] (reordering renumbers the accesses). *)
val compile :
  ?migrate:bool ->
  ?carried:Isched_deps.Dep.t list ->
  ?n_iters:int ->
  Ast.loop ->
  Isched_ir.Program.t
