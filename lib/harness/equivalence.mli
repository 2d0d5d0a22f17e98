(** Semantic-equivalence checking across the whole pipeline.

    Two independent obligations are covered:

    - {!check_restructure}: the Parafrase-surrogate transformations
      preserve the source semantics.  The restructured loop's final
      memory must match the original's after reconciling each recorded
      {!Isched_transform.Restructure.action} (reduction partials are
      combined in iteration order, expanded scalars take their last
      element, substituted induction variables their closed form).

    - {!check_schedule}: a scheduled parallel execution reproduces the
      sequential three-address reference — same final memory, no stale
      reads, no write races. *)

module Ast := Isched_frontend.Ast

(** [check_restructure l r] — [Ok ()] when the transformed loop is
    observably equivalent to [l]; [Error msgs] lists every deviation. *)
val check_restructure :
  Ast.loop -> Isched_transform.Restructure.result -> (unit, string list) result

(** [check_schedule prog sched] — compares the parallel value simulation
    of [sched] against the sequential interpretation of [prog] (its
    {!Isched_check.Oracle.reference}). *)
val check_schedule :
  Isched_ir.Program.t -> Isched_core.Schedule.t -> (unit, string list) result
