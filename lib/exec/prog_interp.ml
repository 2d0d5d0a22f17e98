module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Operand = Isched_ir.Operand

let operand regs ~ivar = function
  | Operand.Reg r -> regs.(r)
  | Operand.Imm i -> float_of_int i
  | Operand.Fimm f -> f
  | Operand.Ivar -> float_of_int ivar

let addr_to_index v = Semantics.to_int v asr 2

(* Record the read of [c] when a log is kept; the value read. *)
let observe log ~ivar ~instr_idx cell index (c : Memory.cell) =
  (match log with
  | None -> ()
  | Some l -> Readlog.record l ~iter:ivar ~instr:instr_idx ~cell ~index ~observed:c.tag);
  c.value

let reads (p : Program.t) =
  let loads =
    Array.fold_left
      (fun n -> function Instr.Load _ | Instr.Load_scalar _ -> n + 1 | _ -> n)
      0 p.Program.body
  in
  loads * max 0 p.Program.n_iters

let exec_instr mem ?log ~regs ~ivar ~instr_idx ~store (ins : Instr.t) =
  match ins with
  | Instr.Bin { op; dst; a; b } ->
    regs.(dst) <- Semantics.binop op (operand regs ~ivar a) (operand regs ~ivar b)
  | Instr.Select { dst; cond; if_true; if_false } ->
    regs.(dst) <-
      Semantics.select (operand regs ~ivar cond) (operand regs ~ivar if_true)
        (operand regs ~ivar if_false)
  | Instr.Load { dst; base; addr } ->
    let index = addr_to_index (operand regs ~ivar addr) in
    regs.(dst) <- observe log ~ivar ~instr_idx base index (Memory.read mem base index)
  | Instr.Store { base; addr; src } ->
    let index = addr_to_index (operand regs ~ivar addr) in
    store ~cell:base ~index:(Some index) ~value:(operand regs ~ivar src)
      ~tag:(Memory.Written { iter = ivar; instr = instr_idx })
  | Instr.Load_scalar { dst; name } ->
    regs.(dst) <- observe log ~ivar ~instr_idx name Readlog.scalar (Memory.read_scalar mem name)
  | Instr.Store_scalar { name; src } ->
    store ~cell:name ~index:None ~value:(operand regs ~ivar src)
      ~tag:(Memory.Written { iter = ivar; instr = instr_idx })
  | Instr.Send _ | Instr.Wait _ -> ()

let run ?memory ?log (p : Program.t) =
  let mem = match memory with Some m -> m | None -> Memory.create () in
  let store ~cell ~index ~value ~tag =
    match index with
    | Some i -> Memory.set mem cell i value tag
    | None -> Memory.set_scalar mem cell value tag
  in
  let body = p.Program.body in
  for ivar = p.Program.lo to p.Program.lo + p.Program.n_iters - 1 do
    let regs = Array.make (max 1 p.Program.n_regs) 0. in
    for instr_idx = 0 to Array.length body - 1 do
      exec_instr mem ?log ~regs ~ivar ~instr_idx ~store body.(instr_idx)
    done
  done;
  mem
