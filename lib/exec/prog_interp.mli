(** Sequential reference interpreter over the three-address program.

    Executes iterations one after another, instructions in original body
    order, ignoring [Send]/[Wait] (sequential execution needs no
    synchronization).  Used to validate the code generator against
    {!Ast_interp} and as the reference execution (final memory and read
    log) that any parallel schedule must reproduce. *)

module Program := Isched_ir.Program

(** [run ?memory ?log p] — final memory after all [p.n_iters]
    iterations, reads recorded into [log] when given. *)
val run : ?memory:Memory.t -> ?log:Readlog.t -> Program.t -> Memory.t

(** [reads p] — how many reads {!run} logs for [p] (every load of the
    if-converted body, once per iteration): the exact [capacity] for
    {!Readlog.create}. *)
val reads : Program.t -> int

(** [exec_instr] — one instruction at iteration [ivar] over register
    file [regs] (exposed so the simulator reuses the exact semantics).
    Returns the updated register assignment implicitly (in [regs]); the
    [store] callback commits memory writes, each with its writer tag,
    so callers can buffer them. *)
val exec_instr :
  Memory.t ->
  ?log:Readlog.t ->
  regs:float array ->
  ivar:int ->
  instr_idx:int ->
  store:(cell:string -> index:int option -> value:float -> tag:Memory.tag -> unit) ->
  Isched_ir.Instr.t ->
  unit
