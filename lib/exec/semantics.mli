(** Shared value semantics for the interpreters and the simulator.

    All run-time values are floats (the benchmarks' arrays are REAL;
    index arithmetic happens on integral floats).  Every evaluator —
    the AST reference interpreter, the sequential three-address
    interpreter and the parallel machine simulator — uses exactly these
    functions, so their results are bit-comparable.

    Division by zero yields 0 (documented total semantics, so speculated
    if-converted code can never trap); shifts and address arithmetic
    clamp non-finite or huge values to 0 before integer conversion. *)

(** [to_int v] — integer view of a value (0 for NaN/inf/huge). *)
val to_int : float -> int

(** [binop op a b] evaluates an IR operator. *)
val binop : Isched_ir.Instr.binop -> float -> float -> float

(** [select cond if_true if_false] — [cond <> 0] picks [if_true]. *)
val select : float -> float -> float -> float

(** [init_value name idx] — deterministic initial content of array cell
    [name[idx]]; never 0 (so products and divisors stay well-behaved),
    bounded (so long chains do not overflow instantly). *)
val init_value : string -> int -> float

(** [init_into key name idx dst pos] — [dst.(pos) <- init_value name
    idx] without allocating; a [key] is not shared across domains. *)
type key

val key : unit -> key
val init_into : key -> string -> int -> float array -> int -> unit

(** [init_scalar name] — deterministic initial value of a scalar. *)
val init_scalar : string -> float

(** [eq v1 v2] — bitwise equality (NaN-safe). *)
val eq : float -> float -> bool

(** {2 Over a register file}

    The interpreters' hot path: register [r] is [regs.(frame + r)] and
    [ivar] the iteration's index value.  These read their operands
    themselves, so no float crosses a call and nothing is allocated,
    where {!binop} boxes its arguments and result. *)

(** [exec_bin regs ~frame ~ivar op ~dst a b] — [dst := binop op a b]. *)
val exec_bin :
  float array -> frame:int -> ivar:int -> Isched_ir.Instr.binop -> dst:int -> Isched_ir.Operand.t ->
  Isched_ir.Operand.t -> unit

(** [dst := select cond if_true if_false]. *)
val exec_select :
  float array -> frame:int -> ivar:int -> dst:int -> Isched_ir.Operand.t -> Isched_ir.Operand.t ->
  Isched_ir.Operand.t -> unit

(** The element index a byte-offset operand names: [to_int addr asr 2]. *)
val address : float array -> frame:int -> ivar:int -> Isched_ir.Operand.t -> int

(** [copy_operand regs ~frame ~ivar src dst pos] — [dst.(pos) <- src]. *)
val copy_operand :
  float array -> frame:int -> ivar:int -> Isched_ir.Operand.t -> float array -> int -> unit
