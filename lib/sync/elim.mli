(** Post-codegen redundant-synchronization elimination.

    Transitive reduction of the combined order relation (dependence
    arcs, the surviving synchronization, and the cross-iteration edges
    each Send/Wait pair enforces): a [Wait] — and, when it becomes
    orphaned, the matching [Send] — is deleted when the [Src -> Snk]
    ordering it enforces is already implied transitively (Liao et al.,
    arXiv:1211.4101).  The reduced program and a freshly built data-flow
    graph are handed back so every scheduler (list, marker-guided, new
    and modulo) sees the smaller sync set and the rebuilt
    [Src -> Sig] / [Wat -> Snk] arcs and sync-group partition.

    {b What "program order" may mean here.}  The classic
    statement-level rule (Midkiff & Padua) composes enforced pairs with
    textual order; under instruction scheduling that is unsound —
    independent instructions are exactly what the scheduler reorders,
    so a sink protected only through textual order can be hoisted above
    the surviving wait (a pinned test keeps that pair).  This pass
    therefore only trusts orderings {e every legal schedule} must
    respect:

    - data and memory arcs of the data-flow graph;
    - the sync-condition arcs of synchronization that {e survives}
      ([Src -> Send] and [Wait -> Snk] of active pairs — the
      independent checker re-derives both conditions for whatever
      remains, so these orderings are machine-checked);
    - the cross-iteration edge of an active pair: [Send] of signal [s]
      in iteration [i] happens before every wait on [s] at distance
      [d] in iteration [i + d].

    A wait [w] with distance [d] is redundant iff chaining
    cross-iteration hops through other active waits, with distances
    summing exactly to [d] and the intra-iteration gaps closed by the
    trusted arcs above, orders every instruction [w] protects
    ({!Isched_dfg.Dfg.protected_of_wait}) after [w]'s source event.
    Removed waits never justify later removals, and a hop never rides
    on the target's own arcs.  Candidates are tried in wait-table order,
    so among waits that imply each other the later ones survive: on
    [A[5] = A[5] + E[I]] the flow and anti waits go and the output wait
    stays.

    Every elimination records the justifying chain; when provenance
    recording is enabled ({!Isched_obs.Provenance}) one decision per
    elimination is emitted with the ["sync-elim"] binding arc. *)

module Program := Isched_ir.Program
module Dfg := Isched_dfg.Dfg

(** One cross-iteration hop of a justifying chain: the (still active)
    wait ridden, its signal, and its distance.  A chain's distances sum
    to the eliminated wait's distance. *)
type step = { via_wait : int; via_signal : int; via_distance : int }

type elimination = {
  wait : Program.wait_info;  (** the removed wait, in the {e input} program's tables *)
  send_removed : bool;  (** the signal's [Send] was orphaned and dropped too *)
  chain : step list;  (** hops justifying the primary sink, in order *)
}

type result = {
  prog : Program.t;  (** reduced program: dense, renumbered sync tables *)
  graph : Dfg.t;  (** freshly built over [prog] (when anything was removed) *)
  eliminated : elimination list;  (** wait-table order of the input program *)
  index_map : int array;
      (** input body index -> reduced body index, [-1] for dropped
          [Send]/[Wait] instructions (for tests and tooling) *)
}

(** [run p g] — [g] must be [Dfg.build p] over the fully synchronized
    program.  When nothing is redundant the input [p] and [g] are
    returned unchanged (physically).  The reduced program is
    re-validated ({!Program.validate}); counters
    [sync.elim.waits_removed] / [sync.elim.sends_removed] account the
    deletions. *)
val run : Program.t -> Dfg.t -> result
