(** Three-address instructions in the DLX-like intermediate form the
    schedulers operate on (the paper's Fig. 2).

    One iteration of a DOACROSS loop compiles to a straight-line array of
    these instructions; control dependences inside the body are handled by
    if-conversion ({!Select}), matching the paper's basic-block scheduling
    setting.  [Send] and [Wait] are the synchronization operations; their
    pair identity and dependence distance live in {!Program}. *)

(** Binary operators, each mapped to one function-unit kind:
    [Add]/[Sub] and the comparisons run on the integer unit, [Shl]/[Shr]
    on the shifter, [Mul]/[FMul] on the multiplier, [Div]/[FDiv] on the
    divider and [FAdd]/[FSub] on the floating-point unit. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Shl
  | Shr
  | FAdd
  | FSub
  | FMul
  | FDiv
  | CmpLt
  | CmpLe
  | CmpGt
  | CmpGe
  | CmpEq
  | CmpNe

type t =
  | Bin of { op : binop; dst : int; a : Operand.t; b : Operand.t }
  | Select of { dst : int; cond : Operand.t; if_true : Operand.t; if_false : Operand.t }
      (** if-converted conditional move (integer unit) *)
  | Load of { dst : int; base : string; addr : Operand.t }
      (** [dst := base[addr]]; [addr] is a byte offset *)
  | Store of { base : string; addr : Operand.t; src : Operand.t }
  | Load_scalar of { dst : int; name : string }  (** shared-memory scalar read *)
  | Store_scalar of { name : string; src : Operand.t }
  | Send of { signal : int }  (** [Send_Signal]: posts [signal] for this iteration *)
  | Wait of { wait : int }
      (** [Wait_Signal]: blocks until the wait's signal was posted by
          iteration [I - distance] (see {!Program.wait_info}) *)

(** [fu i] is the function unit [i] executes on; [None] for [Send]/[Wait],
    which consume only an issue slot. *)
val fu : t -> Fu.kind option

(** [latency i] is the number of cycles before [i]'s result may be
    consumed (1 for units without a latency entry, including sync ops). *)
val latency : t -> int

(** [def i] is the virtual register defined by [i], if any. *)
val def : t -> int option

(** [uses i] lists the virtual registers read by [i]. *)
val uses : t -> int list

(** [iter_uses i f] applies [f] to every register [i] reads, in the same
    order as {!uses}, without allocating. *)
val iter_uses : t -> (int -> unit) -> unit

(** [is_sync i] is true for [Send] and [Wait]. *)
val is_sync : t -> bool

(** [is_mem i] is true for the four memory operations. *)
val is_mem : t -> bool

(** [binop_name op] is the operator's print form, e.g. ["+"], ["<<"]. *)
val binop_name : binop -> string

(** Pretty-printing in the style of the paper's Fig. 2; [pp_full]
    additionally resolves sync operand text via the callbacks. *)
val pp : Format.formatter -> t -> unit

val pp_full :
  signal_name:(int -> string) -> wait_name:(int -> string) -> Format.formatter -> t -> unit

val to_string : t -> string
val equal : t -> t -> bool
