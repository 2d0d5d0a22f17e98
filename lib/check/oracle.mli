(** Differential oracle: execute the schedule and compare against the
    sequential reference interpreter, independently of the static
    analyzer.  This is the one place that checks a schedule against the
    sequential program; {!check_restructure} checks the link before it,
    a restructured loop against its source.

    The value simulator ({!Isched_sim.Value}) runs the schedule with
    real data through shared memory; {!Isched_exec.Prog_interp} runs the
    same three-address program sequentially.  A legal schedule must
    reproduce the reference's final memory, observe no stale read
    (every read sees the same write generation as the reference), and
    race on no cell.  The fast timing engine ({!Isched_sim.Timing}) is
    cross-checked against the value simulator's cycle count.  Neither
    engine's structured failure escapes: a value-simulator
    {!Isched_sim.Value.Deadlock} and a timing
    {!Isched_sim.Timing.Invalid_schedule} are surfaced as diagnostics
    instead of crashes. *)

module Schedule := Isched_core.Schedule
module Dfg := Isched_dfg.Dfg
module Program := Isched_ir.Program

(** [reference p] — the sequential reference of [p]: the final memory
    and read log of {!Isched_exec.Prog_interp.run}.  Each domain keeps
    the last program's reference, keyed on physical identity ([==]), so
    every schedule of one program shares one sequential run; a miss
    drops the kept reference before computing the next and counts
    [check.oracle.reference_runs].  The result is shared: callers only
    read it (compare against it, diff it), never write to the memory or
    record into the log.  A program must not be mutated after its first
    reference (codegen output never is). *)
val reference : Program.t -> Isched_exec.Memory.t * Isched_exec.Readlog.t

(** [differential s] — [Ok ()] when the parallel execution of [s] is
    observably the sequential execution of [s.prog]; [Error msgs] lists
    every deviation (the first differing cells of the final memory,
    stale reads with their locations, races, timing/value disagreement,
    a deadlock).  Long lists show their first few entries. *)
val differential : Schedule.t -> (unit, string list) result

(** [check_schedule ?graph s] — the full obligation: {!Static.check}
    then {!differential}; all failures collected, static violations
    rendered as located diagnostics. *)
val check_schedule : ?graph:Dfg.t -> Schedule.t -> (unit, string list) result

(** [check_restructure l r] — [Ok ()] when the restructured loop of [r]
    is observably equivalent to its source [l]; [Error msgs] lists every
    deviation.  Both loops run under {!Isched_exec.Ast_interp}; each
    recorded {!Isched_transform.Restructure.action} is reconciled first
    (reduction partials are combined in iteration order, expanded
    scalars take their last element, substituted induction variables
    their closed form), and every other cell must agree. *)
val check_restructure :
  Isched_frontend.Ast.loop -> Isched_transform.Restructure.result -> (unit, string list) result
