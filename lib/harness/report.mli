(** Builders for every table of the paper's evaluation, the ablations
    and the sweeps.  All output goes through {!Isched_util.Table} so
    [ischedc tables] and [ischedc ablations] print a uniform report. *)

module Table := Isched_util.Table
module Machine := Isched_ir.Machine
module Suite := Isched_perfect.Suite

(** {2 Tables 1-3 and the categories} *)

type measurement = {
  benchmark : string;
  config : string;
  t_list : int;  (** T_a: total time over the corpus, list scheduling *)
  t_new : int;  (** T_b: total time, new scheduling *)
}

val table2 : measurement list -> Table.t
val table3 : measurement list -> Table.t

(** [improvement ~t_list ~t_new] — percentage improvement (paper's
    Table 3 metric). *)
val improvement : t_list:int -> t_new:int -> float

(** [overall measurements] — (2-issue, 4-issue) aggregate improvement
    percentages (the paper quotes 83.37% and 85.1%). *)
val overall : measurement list -> float * float

(** [scaled_tables ?options ?jobs ?chunk_size ~scale profiles configs]
    — Table 1, the Table 2/3 measurements and the category table (Chen
    & Yew's six DOACROSS types, Section 4.1) for a [scale]× generated
    corpus; [scale = 1] is the corpus itself ({!Suite.all}).  [options]
    defaults to {!Pipeline.default_options}; pass [{ default_options
    with sync_elim = true }] to report on the elimination-pass output.
    The corpus is never materialized: the loop
    stream of every profile is cut into independent chunks
    ({!Isched_perfect.Suite.chunks}, [chunk_size] generated loops each),
    one (profile x chunk) cell per pool task, and each cell reduces its
    loops to a handful of integer sums before the next chunk is
    generated.  Sums are associative, so the returned tables are
    byte-identical for every job count and chunk size.  Returns
    [(table1, measurements, categories, sync_ops)] where [sync_ops] is
    the total Send/Wait instruction count of the generated programs —
    the quantity the sync-elimination ablation drives down. *)
val scaled_tables :
  ?options:Pipeline.options ->
  ?jobs:int ->
  ?chunk_size:int ->
  scale:int ->
  Isched_perfect.Profile.t list ->
  (string * Machine.t) list ->
  Table.t * measurement list * Table.t * int

(** {2 Ablations} *)

(** A1: value of ordering sync-path groups by damage [(n/d)|SP|]. *)
val ablation_order : Suite.benchmark list -> Table.t

(** A6: the post-codegen transitive-reduction pass
    ({!Isched_sync.Elim} via {!Pipeline.options}[.sync_elim]) over the
    corpus benchmarks plus three fixed-cell and guarded-reduction
    kernels (the "elim kernels" row), on the 2/4-issue x #FU 1/2 grid.
    Columns report the Send/Wait instruction count and the new
    scheduler's time with and without the pass. *)
val ablation_sync_elim : Suite.benchmark list -> Table.t

(** A3: statement migration stacked on both schedulers. *)
val ablation_migration : Suite.benchmark list -> Table.t

(** A4: machine sweep beyond the paper's four configurations, over the
    scale-1 corpus of [profiles] (measured by {!scaled_tables}). *)
val sweep : Isched_perfect.Profile.t list -> Table.t

(** A5: three-way comparison against the marker-guided scheduler
    ({!Isched_core.Marker_sched}, the author's ISPAN'94 technique). *)
val ablation_markers : Suite.benchmark list -> Table.t

(** Unroll study: the LBD formula's terms under DOACROSS unrolling. *)
val unroll_study : unit -> Table.t

(** Limited processor pools with cyclic iteration assignment. *)
val processor_sweep : Suite.benchmark list -> Table.t

(** Register study: spill traffic ({!Isched_codegen.Spill}) and its
    timing cost as the register file shrinks. *)
val register_study : Suite.benchmark list -> Table.t

(** Architecture comparison: one software-pipelined processor
    ({!Isched_core.Modulo_sched}) against the paper's n-processor
    DOACROSS execution. *)
val architecture_comparison : Suite.benchmark list -> Table.t
