(** The paper's Fig. 5 statistical pipeline, end to end:

    benchmark source
    -> Parafrase surrogate (restructuring + DOALL detection)
    -> synchronization insertion
    -> DLX-like code generation
    -> data-flow graph with sync arcs
    -> (list | new) scheduling per machine configuration
    -> timing simulation of the n-processor execution.  *)

module Ast := Isched_frontend.Ast
module Program := Isched_ir.Program
module Machine := Isched_ir.Machine

type options = {
  migrate : bool;  (** statement migration pre-pass (ablation A3) *)
  sync_elim : bool;
      (** post-codegen transitive-reduction pass ({!Isched_sync.Elim}):
          deletes Send/Wait pairs whose ordering is already enforced
          transitively and rebuilds the graph the schedulers see *)
  order_paths : bool;  (** new scheduler's damage ordering (ablation A1) *)
  n_iters : int option;  (** override the loops' trip count *)
}

val default_options : options

type prepared =
  | Doall of Isched_transform.Restructure.result
      (** no carried dependences remain: runs fully parallel, excluded
          from the DOACROSS statistics exactly like the paper's
          "extract loops which cannot be parallelized" step *)
  | Doacross of {
      restructured : Isched_transform.Restructure.result;
      carried : Isched_deps.Dep.t list;
          (** the restructured loop's loop-carried dependences — the
              analysis that decided DOACROSS, kept for downstream
              consumers (e.g. categorization) so they need not rerun it *)
      prog : Program.t;
      graph : Isched_dfg.Dfg.t;
    }

(** [prepare ?options l] runs the front half of the pipeline.

    Results are memoized on the structural key (loop, options), with
    the scheduler-only [order_paths] field reset to its default — every
    option the front half reads is part of the key, so toggling a pass
    can never return a stale preparation: the tables, sweeps and
    ablations re-prepare the same corpus loops many times, and
    restructuring + code generation + graph construction dominate their
    cost.  The cache is protected by a mutex and safe to hit from
    {!Isched_util.Pool} workers; the cached structures are never mutated
    downstream. *)
val prepare : ?options:options -> Ast.loop -> prepared

(** [prepare_uncached options l] — {!prepare} without the memo: nothing
    is retained after the result is dropped.  The streamed scaled-corpus
    path uses this so a 1000× suite never accumulates in the cache. *)
val prepare_uncached : options -> Ast.loop -> prepared

(** [memo_stats ()] — cumulative (hits, misses) of the {!prepare} memo
    cache.  Backed by the {!Isched_obs.Counters} registry (counters
    [pipeline.memo.hit] / [pipeline.memo.miss]); both views always
    agree. *)
val memo_stats : unit -> int * int

(** [memo_clear ()] — drop the {!prepare} cache and reset its
    counters (for tests and memory-sensitive callers). *)
val memo_clear : unit -> unit

type scheduler = List_scheduling | Marker_scheduling | New_scheduling

(** Every scheduler the pipeline can drive, in baseline-to-best order
    (the property tests check all of them). *)
val all_schedulers : scheduler list

(** Raised by {!schedule} with [~validate:true] when the independent
    checker ({!Isched_check.Static}) finds violations in a produced
    schedule.  [diagnostics] is the located, one-per-line rendering. *)
exception Invalid_schedule_produced of { scheduler : string; diagnostics : string }

(** [schedule ?options ?validate prepared m which] — the back half; only
    valid on [Doacross].  The result passes
    {!Isched_core.Schedule.validate}.

    [validate] (default [false]) additionally runs the independent
    static checker on the result — against both the graph the scheduler
    used and a trusted rebuild — and raises
    {!Invalid_schedule_produced} on any violation.  Opt-in because the
    checker roughly doubles the per-schedule cost. *)
val schedule :
  ?options:options -> ?validate:bool -> prepared -> Machine.t -> scheduler ->
  Isched_core.Schedule.t

(** [schedule_traced ?options ?validate prepared m which] — {!schedule}
    with {!Isched_obs.Provenance} recording enabled for the duration:
    resets the decision ring, schedules, and returns the schedule paired
    with its decision list (every placement of the run, including those
    of a nested baseline comparison).  The prior enabled state is
    restored on exit, even on exceptions.  The schedule is byte-identical
    to an untraced {!schedule} (pinned by the property suite). *)
val schedule_traced :
  ?options:options ->
  ?validate:bool ->
  prepared ->
  Machine.t ->
  scheduler ->
  Isched_core.Schedule.t * Isched_obs.Provenance.decision list

(** [scheduler_tag which] — the short tag the schedulers stamp on their
    provenance decisions: ["list"], ["marker"] or ["new"]. *)
val scheduler_tag : scheduler -> string

(** [loop_time ?options ?validate prepared m which] — parallel execution
    time of the loop from the timing simulator ({!Isched_sim.Timing}).
    Like the paper's statistics, only DOACROSS loops are measured;
    raises [Invalid_argument] on [Doall].  [validate] as in
    {!schedule}. *)
val loop_time : ?options:options -> ?validate:bool -> prepared -> Machine.t -> scheduler -> int

(** [list_and_new_times ?options prepared m] — [loop_time] for
    [List_scheduling] and [New_scheduling] in one call, reusing the list
    schedule as the new scheduler's never-degrade baseline so the list
    scheduler runs once instead of twice.  Results are identical to two
    separate {!loop_time} calls (both schedulers are deterministic). *)
val list_and_new_times : ?options:options -> prepared -> Machine.t -> int * int

val scheduler_name : scheduler -> string
