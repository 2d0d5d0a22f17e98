(** Cycle-accurate, value-accurate simulator of the multiprocessor.

    Unlike {!Timing}, this engine advances all processors together one
    global cycle at a time and executes real values through shared
    memory, which lets it witness the stale-data accesses the paper's
    synchronization conditions exist to prevent:

    - memory writes and signal posts performed in cycle [c] become
      visible to every processor at cycle [c+1] (within one cycle,
      reads see the pre-cycle state);
    - two writes to the same cell in the same cycle are a detected
      {e race}, resolved deterministically in iteration order;
    - every read records the write generation it observed
      ({!Isched_exec.Readlog}); comparing against the sequential
      reference of {!Isched_exec.Prog_interp} pinpoints stale reads.

    For a schedule built over the full data-flow graph (sync arcs
    included) the final memory provably matches the sequential
    reference; the [stale_data_demo] example shows a schedule built
    {e without} the sync-condition arcs failing this check. *)

type result = {
  finish : int;  (** parallel execution time in cycles *)
  memory : Isched_exec.Memory.t;  (** final shared memory *)
  log : Isched_exec.Readlog.t;  (** all reads, with observed writers *)
  races : string list;  (** same-cycle write-write conflicts *)
}

(** Raised by {!run} when no processor can ever issue again: every
    unretired one is parked on a wait whose signal is never posted
    (a program whose wait precedes its own send, say).  [iteration] is
    the lowest blocked iteration (0-based, like
    {!Timing.Invalid_schedule}), [wait]/[signal] the pair it blocks on
    and [posting_iteration] the iteration that should post it.
    {!Isched_check.Oracle} reports it as a diagnostic. *)
exception
  Deadlock of {
    prog : string;
    cycle : int;
    iteration : int;
    wait : int;
    signal : int;
    posting_iteration : int;
  }

(** [run s] simulates [s] on [s.prog.n_iters] processors.

    The cost follows the rows executed, not cycles times processors:
    a processor whose wait is unposted parks on that signal's slot and
    is woken by the [Send] that posts it, so each cycle visits only the
    processors that can run (in ascending iteration order, which fixes
    the read log's order).  A cycle's writes commit in ascending
    iteration order and, within one iteration, latest issue first.
    Raises {!Deadlock} when nothing can run and nothing was woken. *)
val run : Isched_core.Schedule.t -> result
