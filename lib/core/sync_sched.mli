(** The paper's new instruction-scheduling technique (Section 3.2).

    The scheduler works on the data-flow graph with synchronization-
    condition arcs, partitioned into Sig / Wat / Sigwat components:

    + Within each Sigwat component, every wait whose send is reachable
      from it defines a synchronization path [SP(Wat, Sig)] — an
      unavoidable LBD.  Paths are grouped when they share nodes (shared
      nodes force simultaneous scheduling) and groups are scheduled in
      descending damage order [(n/d) * |SP|]; the nodes of each path are
      placed on consecutive cycles so the scheduled wait-to-send span,
      and with it the [(n/d)(i-j)+l] cost, is minimal.
    + Every other wait is placed only {e after} its corresponding send:
      the dependence becomes lexically forward in the schedule and costs
      nothing beyond one iteration.  This rule is applied globally, so
      it also covers pairs whose send and wait live in different
      components (Sig graphs before Sigwat/Wat graphs, in the paper's
      phrasing).
    + All remaining instructions fill free issue slots as-soon-as-
      possible, in dependence order.

    The result is resource- and dependence-legal exactly like the list
    scheduler's, and the paper's claim — never worse, usually far better
    on LBD loops — is enforced by construction and checked by the
    property tests. *)

module Machine := Isched_ir.Machine

(** The ablation knob. *)
type options = {
  order_paths : bool;
      (** sort path groups by damage [(n/d)*|SP|] (default true; ablation
          A1 turns it off to measure the value of the ordering rule) *)
}

val default_options : options

(** [run ?options ?baseline g m] schedules [g]'s program on machine [m],
    then squeezes out the empty rows whose removal keeps it legal
    ({!Schedule.compact}).

    [baseline], when given, must be [List_sched.run g m]'s result; the
    never-degrade comparison then reuses it instead of re-running the
    list scheduler.  Callers that already have that schedule (the bench
    tables measure both) pass it to halve the list-scheduling work. *)
val run :
  ?options:options -> ?baseline:Schedule.t -> Isched_dfg.Dfg.t -> Machine.t -> Schedule.t
