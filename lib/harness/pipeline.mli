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

    Results are memoized on the structural key (loop, options) — the
    whole options record is the key, so toggling a pass can never
    return a stale preparation: the tables, sweeps and
    ablations re-prepare the same corpus loops many times, and
    restructuring + code generation + graph construction dominate their
    cost.  The memo is an {!Isched_util.Cache}: bounded at 1024 entries
    (least-recently-used out first) and coalescing — concurrent callers
    that miss on the same key from {!Isched_util.Pool} workers compute
    it once and the rest wait for that result.  The cached structures
    are never mutated downstream. *)
val prepare : ?options:options -> Ast.loop -> prepared

(** [prepare_uncached options l] — {!prepare} without the memo: nothing
    is retained after the result is dropped.  The streamed scaled-corpus
    path uses this so a 1000× suite never accumulates in the cache. *)
val prepare_uncached : options -> Ast.loop -> prepared

(** [memo_stats ()] — cumulative (hits, misses) of the {!prepare} memo
    cache; a caller that waited on another's in-flight compute counts
    as a hit.  Backed by the {!Isched_obs.Counters} registry (counters
    [pipeline.memo.hit] / [pipeline.memo.miss], next to
    [pipeline.memo.evict] / [pipeline.memo.coalesced]); both views
    always agree. *)
val memo_stats : unit -> int * int

(** [memo_clear ()] — drop the {!prepare} cache and reset its four
    counters (for tests and memory-sensitive callers). *)
val memo_clear : unit -> unit

(** The schedulers the pipeline can drive.  This is the one scheduler
    type: the CLI's [--scheduler] values and the serve protocol's
    scheduler field ({!Isched_serve.Protocol.scheduler}) are this type
    under {!scheduler_tag}. *)
type scheduler = Sched_list | Sched_marker | Sched_new

(** Every scheduler the pipeline can drive, in baseline-to-best order
    (the property tests check all of them). *)
val all_schedulers : scheduler list

(** [scheduler_name which] — the human-readable title: ["list
    scheduling"], ["marker-guided scheduling"] or ["new instruction
    scheduling"]. *)
val scheduler_name : scheduler -> string

(** [scheduler_tag which] — the short name: ["list"], ["marker"] or
    ["new"].  The schedulers stamp it on their provenance decisions, and
    it is the CLI's [--scheduler] value and the protocol's wire name. *)
val scheduler_tag : scheduler -> string

(** [schedule_graph which g m] — run scheduler [which] on graph [g] for
    machine [m] with its default options. *)
val schedule_graph : scheduler -> Isched_dfg.Dfg.t -> Machine.t -> Isched_core.Schedule.t

(** Raised by {!schedule} with [~validate:true] when the independent
    checker ({!Isched_check.Static}) finds violations in a produced
    schedule.  [diagnostics] is the located, one-per-line rendering. *)
exception Invalid_schedule_produced of { scheduler : string; diagnostics : string }

(** [schedule ?validate prepared m which] — the back half; only
    valid on [Doacross].  It reads no option: everything the options
    select is already in [prepared].  The result passes
    {!Isched_core.Schedule.validate}.

    [validate] (default [false]) additionally runs the independent
    static checker on the result — against both the graph the scheduler
    used and a trusted rebuild — and raises
    {!Invalid_schedule_produced} on any violation.  Opt-in because the
    checker roughly doubles the per-schedule cost. *)
val schedule : ?validate:bool -> prepared -> Machine.t -> scheduler -> Isched_core.Schedule.t

(** [schedule_traced ?validate prepared m which] — {!schedule}
    with {!Isched_obs.Provenance} recording enabled for the duration:
    resets the decision ring, schedules, and returns the schedule paired
    with its decision list (every placement of the run, including those
    of a nested baseline comparison).  The prior enabled state is
    restored on exit, even on exceptions.  The schedule is byte-identical
    to an untraced {!schedule} (pinned by the property suite). *)
val schedule_traced :
  ?validate:bool ->
  prepared ->
  Machine.t ->
  scheduler ->
  Isched_core.Schedule.t * Isched_obs.Provenance.decision list

(** [loop_time ?validate prepared m which] — parallel execution
    time of the loop from the timing simulator ({!Isched_sim.Timing}).
    Like the paper's statistics, only DOACROSS loops are measured;
    raises [Invalid_argument] on [Doall].  [validate] as in
    {!schedule}. *)
val loop_time : ?validate:bool -> prepared -> Machine.t -> scheduler -> int

(** [list_and_new_times ?options prepared m] — [loop_time] for
    [Sched_list] and [Sched_new] in one call, reusing the list
    schedule as the new scheduler's never-degrade baseline so the list
    scheduler runs once instead of twice.  Results are identical to two
    separate {!loop_time} calls (both schedulers are deterministic).
    Like {!schedule} it reads no option; [options] is accepted so a
    caller can pass the record it prepared with. *)
val list_and_new_times : ?options:options -> prepared -> Machine.t -> int * int
