(** Schedule explainer: joins the {!Isched_core.Lbd_model} pair reports
    with the {!Isched_obs.Provenance} decision trace of one traced
    scheduling run, attributing each synchronization pair's positions
    [i] (send) and [j] (wait) — the variables of the paper's
    [(n/d)(i-j) + l] cost — to the causal chain of scheduling decisions
    that fixed them.  Backs the [ischedc explain] subcommand. *)

module Ast := Isched_frontend.Ast
module Machine := Isched_ir.Machine
module Schedule := Isched_core.Schedule
module Lbd_model := Isched_core.Lbd_model
module Provenance := Isched_obs.Provenance

(** One synchronization pair with its decision chains.  A chain starts at
    the pair instruction's own placement decision and follows each
    decision's binding predecessor ([data]/[mem]/[sync-*] arc or forced
    ordering) back to a root with no binding. *)
type pair_trace = {
  report : Lbd_model.pair_report;
  src_label : string;  (** source-statement label, e.g. ["S3"] *)
  snk_label : string;  (** sink-statement label, e.g. ["S1"] *)
  array : string;  (** array carrying the dependence *)
  send_chain : Provenance.decision list;  (** [Send] decision first *)
  wait_chain : Provenance.decision list;  (** [Wait] decision first *)
}

type t = {
  loop_name : string;
  scheduler : string;  (** attribution tag; notes a list fallback *)
  machine : Machine.t;
  schedule : Schedule.t;
  decisions : Provenance.decision list;  (** the attributed subset *)
  last_decision : Provenance.decision option array;  (** per body index *)
  pairs : pair_trace list;
  simulated : int;  (** {!Isched_sim.Timing} parallel finish time *)
  analytic : int;  (** {!Lbd_model.exact_time} *)
  paper : int;  (** {!Lbd_model.paper_time}, the [(n/d)(i-j)+l] figure *)
  fallback : bool;  (** the new scheduler returned its list baseline *)
}

(** [build ?options ?which loop machine] prepares, trace-schedules
    (via {!Pipeline.schedule_traced}) and joins.  [which] defaults to
    {!Pipeline.Sched_new}.  [Error] on a DOALL loop (nothing to
    explain).  When the new scheduler fell back to its list baseline,
    decisions are attributed to the baseline run and [fallback] is set;
    decisions whose cycle was later moved by compaction are annotated in
    the renderings. *)
val build :
  ?options:Pipeline.options ->
  ?which:Pipeline.scheduler ->
  Ast.loop ->
  Machine.t ->
  (t, string) result

(** [pair_key p] — ["SRC:SNK"], the [--pair] selector syntax. *)
val pair_key : pair_trace -> string

(** [render_ascii ?pair t] — human report: header, Fig. 4-style rows,
    then per-pair [i]/[j]/[i-j]/contribution lines with both decision
    chains.  [pair] filters to the pairs whose {!pair_key} equals it. *)
val render_ascii : ?pair:string -> t -> string

(** [render_json ?pair t] — the same as one JSON document (schema in
    doc/observability.md), including the raw decision list. *)
val render_json : ?pair:string -> t -> string
