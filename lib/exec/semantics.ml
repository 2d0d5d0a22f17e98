module Instr = Isched_ir.Instr
module Operand = Isched_ir.Operand

(* Without flambda, a float passed to or returned from a call that is
   not inlined is boxed.  The helpers below are [@inline] (and
   [to_int] tests NaN as [v <> v], because a call to [Float.is_nan]
   stops the inlining), so the register-file entry points do their
   arithmetic where the operands are read and allocate nothing.  Their
   operands are let-bound before an inlined call: a float passed
   straight into one is bound untyped, and boxed. *)
let[@inline] to_int v = if v <> v || Float.abs v > 1e9 then 0 else int_of_float v

let[@inline] apply (op : Instr.binop) a b =
  match op with
  | Instr.Add | Instr.FAdd -> a +. b
  | Instr.Sub | Instr.FSub -> a -. b
  | Instr.Mul | Instr.FMul -> a *. b
  | Instr.Div | Instr.FDiv -> if b = 0. then 0. else a /. b
  | Instr.Shl -> float_of_int (to_int a lsl max 0 (min 30 (to_int b)))
  | Instr.Shr -> float_of_int (to_int a asr max 0 (min 30 (to_int b)))
  | Instr.CmpLt -> if a < b then 1. else 0.
  | Instr.CmpLe -> if a <= b then 1. else 0.
  | Instr.CmpGt -> if a > b then 1. else 0.
  | Instr.CmpGe -> if a >= b then 1. else 0.
  | Instr.CmpEq -> if a = b then 1. else 0.
  | Instr.CmpNe -> if a <> b then 1. else 0.

let binop op a b = apply op a b
let select cond if_true if_false = if cond <> 0. then if_true else if_false

let[@inline] operand regs ~frame ~ivar = function
  | Operand.Reg r -> regs.(frame + r)
  | Operand.Imm i -> float_of_int i
  | Operand.Fimm f -> f
  | Operand.Ivar -> float_of_int ivar

let exec_bin regs ~frame ~ivar op ~dst a b =
  let a = operand regs ~frame ~ivar a and b = operand regs ~frame ~ivar b in
  regs.(frame + dst) <- apply op a b

let exec_select regs ~frame ~ivar ~dst cond if_true if_false =
  regs.(frame + dst) <-
    (if operand regs ~frame ~ivar cond <> 0. then operand regs ~frame ~ivar if_true
     else operand regs ~frame ~ivar if_false)

let address regs ~frame ~ivar addr =
  let v = operand regs ~frame ~ivar addr in
  to_int v asr 2

let copy_operand regs ~frame ~ivar src dst pos = dst.(pos) <- operand regs ~frame ~ivar src

(* Small, non-zero, deterministic pseudo-contents: the hash of the
   tuple [(name, idx land 1023, idx asr 10)], folded into 1..9 with a
   sign.  [key] has the tuple's layout (a block of three fields, tag 0),
   so hashing it equals hashing the tuple; a reused key fills a column
   without allocating. *)
type key = { mutable name : string; mutable low : int; mutable high : int }

let key () = { name = ""; low = 0; high = 0 }

let init_into key name idx dst pos =
  key.name <- name;
  key.low <- idx land 1023;
  key.high <- idx asr 10;
  let h = Hashtbl.hash key in
  let v = 1 + (h mod 9) in
  dst.(pos) <- float_of_int (if h land 16 = 0 then -v else v)

let init_value name idx =
  let cell = [| 0. |] in
  init_into (key ()) name idx cell 0;
  cell.(0)

let init_scalar name =
  let h = Hashtbl.hash ("scalar$" ^ name) in
  float_of_int (1 + (h mod 9))

let eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
