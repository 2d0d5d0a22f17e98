(** Sequential reference interpreter over the three-address program.

    Executes iterations one after another, instructions in original body
    order, ignoring [Send]/[Wait] (sequential execution needs no
    synchronization).  Used to validate the code generator against
    {!Ast_interp} and as the reference execution (final memory and read
    log) that any parallel schedule must reproduce.

    The executor is shared with the value simulator: {!bind} resolves
    the {!Memory.slot} of every memory instruction once, and {!exec}
    runs one instruction over a register file without allocating. *)

module Program := Isched_ir.Program

(** [run ?memory ?log p] — final memory after all [p.n_iters]
    iterations, reads recorded into [log] when given. *)
val run : ?memory:Memory.t -> ?log:Readlog.t -> Program.t -> Memory.t

(** [reads p] — how many reads {!run} logs for [p] (every load of the
    if-converted body, once per iteration): the exact [capacity] for
    {!Readlog.create}. *)
val reads : Program.t -> int

(** Buffered stores in flat columns: the writing body index (its slot
    is {!slot}), the element index (0 for a scalar) and the value. *)
type writes = {
  mutable len : int;
  mutable instr : int array;
  mutable index : int array;
  mutable value : float array;
}

val writes : unit -> writes

(** A program bound to one memory. *)
type bound

(** [bind ?log ?writes mem p] resolves the slot of each of [p]'s memory
    instructions in [mem].  Reads are recorded into [log] when given;
    stores are appended to [writes] when given, else go to [mem]. *)
val bind : ?log:Readlog.t -> ?writes:writes -> Memory.t -> Program.t -> bound

(** [slot b i] — the slot body instruction [i] accesses. *)
val slot : bound -> int -> Memory.slot

(** [exec b ~regs ~frame ~ivar i] — body instruction [i] at iteration
    [ivar]; register [r] is [regs.(frame + r)].  Allocates nothing once
    the log and the buffer have room. *)
val exec : bound -> regs:float array -> frame:int -> ivar:int -> int -> unit

(** [exec_instr] — {!exec} by name, for callers that bind no program:
    the [store] callback receives each write with its writer tag. *)
val exec_instr :
  Memory.t ->
  ?log:Readlog.t ->
  regs:float array ->
  ivar:int ->
  instr_idx:int ->
  store:(cell:string -> index:int option -> value:float -> tag:Memory.tag -> unit) ->
  Isched_ir.Instr.t ->
  unit
