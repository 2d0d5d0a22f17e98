(** Data-flow graph over one iteration's three-address code, with the
    paper's extra synchronization-condition arcs (Section 3.1).

    Nodes are body indices of the program.  Arcs:
    - {e data}: virtual-register definition to each use, with the
      producer's latency;
    - {e memory}: intra-iteration store/load ordering on may-aliasing
      references (flow, anti and output at the instruction level);
    - {e sync-source}: from the dependence-source memory operation to its
      [Send] — a send can never be scheduled before its source;
    - {e sync-sink}: from a [Wait] to its dependence-sink memory
      operation — a sink can never be scheduled before its wait.  The
      arc is duplicated to every earlier memory operation of the sink
      statement that may alias the sink (this covers the old-value load
      of an if-converted guarded store).

    Arcs are stored in two flat int-packed CSR arenas (successor and
    transposed predecessor); the schedulers iterate them without
    allocating.  Within a row, arcs appear in the exact order the old
    [arc list array] representation produced, which placement recursion
    and provenance tie-breaking depend on. *)

module Program := Isched_ir.Program

type arc_kind = Data | Mem | Sync_src | Sync_snk

type arc = { src : int; dst : int; latency : int; kind : arc_kind }

(** [arc_kind_name k] — ["data"], ["mem"], ["sync-src"] or ["sync-snk"];
    the vocabulary used by provenance bindings and the explain output. *)
val arc_kind_name : arc_kind -> string

type sync_path = {
  wait_id : int;  (** wait id in the program's wait table *)
  signal : int;
  distance : int;
  nodes : int list;  (** a shortest directed path, wait node first,
                          send node last *)
}

(** A connected component of synchronization paths (paths sharing at
    least one node), as placed together by the new scheduler. *)
type path_group = {
  gkey : float;  (** worst member weight [n/d * |path|] *)
  gpaths : sync_path list;  (** members, heaviest first *)
  gorder : int;  (** union-find representative, the stable tie-break *)
}

(** Lazily-computed machine-independent derived data ({!sync_paths},
    {!longest_path_to_exit}, {!lfd_sends}, {!sync_groups},
    {!priority_order}), cached with the graph because the pipeline
    schedules each graph under several machine configurations.
    Internal to this library — treat the fields as private. *)
type memo = {
  mutable lp : int array option;
  mutable paths : sync_path list option;
  mutable lfd : int array option;
  mutable groups : path_group list option;
  mutable order : int array option;
  mutable fuc : int array option;
}

type t = {
  prog : Program.t;
  n : int;  (** number of nodes = body length *)
  n_arcs : int;  (** total arc count *)
  succ_off : int array;  (** length [n+1]; node [i]'s outgoing arcs are
                             [succ_arc.(succ_off.(i) .. succ_off.(i+1)-1)] *)
  succ_arc : int array;  (** packed outgoing arcs (see accessors below) *)
  pred_off : int array;  (** transposed offsets *)
  pred_arc : int array;  (** packed incoming arcs *)
  memo : memo;  (** see {!memo} *)
}

(** {2 Packed-arc accessors}

    An entry of [succ_arc] packs the destination node, the arc kind and
    the latency into one int (for [pred_arc], the source node).  *)

(** [arc_node packed] — the other endpoint's node index. *)
val arc_node : int -> int

(** [arc_latency packed] — the arc's latency in cycles. *)
val arc_latency : int -> int

(** [arc_kind packed] — the arc's kind. *)
val arc_kind : int -> arc_kind

(** [pred_deg g i] — the in-degree of node [i]. *)
val pred_deg : t -> int -> int

(** [iter_succs g i f] applies [f] to each packed outgoing arc of [i],
    in row order.  Allocation-free. *)
val iter_succs : t -> int -> (int -> unit) -> unit

(** [iter_preds g i f] — likewise for incoming arcs. *)
val iter_preds : t -> int -> (int -> unit) -> unit

(** [succs_list g i] / [preds_list g i] — boxed {!arc} views of one row,
    in row order (identical to the pre-arena [arc list array]
    contents).  For cold paths, debugging and tests. *)
val succs_list : t -> int -> arc list

val preds_list : t -> int -> arc list

(** [build p] constructs the graph into a per-domain arena: near-linear
    in body length + arc count (memory pairs are enumerated from
    alias-class buckets, not an O(n^2) pairwise scan).  The returned
    graph is immutable and safe to share across domains.

    [sync_arcs:false] omits the synchronization-condition arcs — the
    resulting graph describes what a scheduler oblivious to the paper's
    Section 2 conditions would see.  Schedules built over it can access
    stale data; the [stale_data_demo] example and the simulator tests
    use this to reproduce the motivating bug.

    Updates the counter [dfg.arcs] (arcs constructed). *)
val build : ?sync_arcs:bool -> Program.t -> t

(** [build_reference p] — the retained pre-arena list-based builder:
    [(succs, preds)] with each node's arcs in the same order as
    [succs_list]/[preds_list] of {!build}.  Differential oracle for the
    property suite; do not use on hot paths. *)
val build_reference : ?sync_arcs:bool -> Program.t -> arc list array * arc list array

(** [may_alias a b] — conservative aliasing of two memory references:
    same base and (distinct affine element indices excepted) possibly the
    same cell. *)
val may_alias : Program.mem_ref -> Program.mem_ref -> bool

(** [protected_of_wait p w] — the body indices [w]'s [Wait] orders after
    itself: its sink instruction plus every may-aliasing memory
    operation of the sink statement between the wait and the sink (the
    old-value load of an if-converted store).  Exactly the targets of
    the wait's sync-sink arcs in {!build}. *)
val protected_of_wait : Program.t -> Program.wait_info -> int list

(** {2 Components (Sig / Wat / Sigwat graphs)} *)

type comp_kind =
  | Sig_graph  (** contains sends but no waits *)
  | Wat_graph  (** contains waits but no sends *)
  | Sigwat_graph  (** contains both *)
  | Plain  (** contains neither *)

type component = {
  id : int;
  nodes : int list;  (** ascending *)
  kind : comp_kind;
  sends : int list;  (** body indices of [Send] nodes *)
  waits : int list;  (** body indices of [Wait] nodes *)
}

(** [components g] — weakly-connected components, classified.  Ordered by
    smallest member node. *)
val components : t -> component array

(** [component_of g comps] maps each node to its component id. *)
val component_of : t -> component array -> int array

(** {2 Synchronization paths} *)

(** [sync_paths g] finds, for every wait whose [Send] is reachable from
    its [Wait] node, a shortest directed path between them (BFS; ties
    broken deterministically towards lower node indices).  Such a path
    makes the LBD unavoidable; its nodes are what the new scheduler
    keeps contiguous.  Memoized on the graph. *)
val sync_paths : t -> sync_path list

(** [sync_groups g] — {!sync_paths} grouped into connected components
    (paths sharing a node), each group's members sorted heaviest first
    and the group list sorted by ascending [gorder] (the canonical,
    option-independent order).  Memoized on the graph; callers must not
    mutate the result. *)
val sync_groups : t -> path_group list

(** [lfd_sends g] — for each node, [-1], except waits that should become
    lexically forward in a schedule: there, the body index of the
    matching [Send].  A wait heading a {!sync_paths} path is excluded
    (its LBD is unavoidable), and a send->wait ordering constraint is
    accepted only when the combined graph (arcs plus the constraints
    accepted so far, in wait-table order) stays acyclic.  Memoized on
    the graph; callers must not mutate the result. *)
val lfd_sends : t -> int array

(** [longest_path_to_exit g] — for every node, the maximum sum of arc
    latencies over paths to any sink; the classic list-scheduling
    priority.  Memoized on the graph; callers must not mutate the
    result. *)
val longest_path_to_exit : t -> int array

(** [priority_order g] — every node, sorted by descending
    {!longest_path_to_exit} with ties towards lower indices (program
    order).  Memoized on the graph; callers must not mutate the
    result. *)
val priority_order : t -> int array

(** [fu_codes g] — per node, the function-unit demand as an int: [-1]
    for none (sync operations), otherwise [Fu.index] of the kind; the
    form the resource tracker's [_code] entry points consume.  Memoized
    on the graph; callers must not mutate the result. *)
val fu_codes : t -> int array

(** [pp_dot ppf g] renders the graph in Graphviz dot syntax, with the
    paper's triangle shapes for sync nodes. *)
val pp_dot : Format.formatter -> t -> unit
