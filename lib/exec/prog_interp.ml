module Program = Isched_ir.Program
module Instr = Isched_ir.Instr

let reads (p : Program.t) =
  let loads =
    Array.fold_left
      (fun n -> function Instr.Load _ | Instr.Load_scalar _ -> n + 1 | _ -> n)
      0 p.Program.body
  in
  loads * max 0 p.Program.n_iters

type writes = {
  mutable len : int;
  mutable instr : int array;
  mutable index : int array;
  mutable value : float array;
}

let writes () = { len = 0; instr = Array.make 16 0; index = Array.make 16 0; value = Array.make 16 0. }

(* [slots.(i)] is the slot body instruction [i] accesses ([unbound] for
   the others), resolved once. *)
type bound = {
  body : Instr.t array;
  slots : Memory.slot array;
  log : Readlog.t option;
  buffer : writes option;
}

let unbound = Memory.scalar_slot (Memory.create ()) ""

let bind ?log ?writes mem (p : Program.t) =
  let slot_of = function
    | Instr.Load { base; _ } | Instr.Store { base; _ } ->
      (* An affine subscript spans about one cell per iteration. *)
      Memory.array_slot ~window:(p.Program.n_iters + 16) mem base
    | Instr.Load_scalar { name; _ } | Instr.Store_scalar { name; _ } -> Memory.scalar_slot mem name
    | Instr.Bin _ | Instr.Select _ | Instr.Send _ | Instr.Wait _ -> unbound
  in
  { body = p.Program.body; slots = Array.map slot_of p.Program.body; log; buffer = writes }

let slot b i = b.slots.(i)

(* [at] is the cell's index in its slot (0 for a scalar), [index] the
   read log's. *)
let load b ~regs ~frame ~ivar i ~dst ~cell ~index ~at =
  let s = b.slots.(i) in
  let j = Memory.locate s at in
  regs.(frame + dst) <- (Memory.values s).(j);
  match b.log with
  | Some l -> Readlog.record_tag l ~iter:ivar ~instr:i ~cell ~index ~tag:(Memory.tags s).(j)
  | None -> ()

let store b ~regs ~frame ~ivar i ~at src =
  match b.buffer with
  | None ->
    let s = b.slots.(i) in
    let j = Memory.claim s at in
    Semantics.copy_operand regs ~frame ~ivar src (Memory.values s) j;
    (Memory.tags s).(j) <- Memory.written ~iter:ivar ~instr:i
  | Some w ->
    if w.len = Array.length w.instr then begin
      let widen a fill =
        let b = Array.make (2 * w.len) fill in
        Array.blit a 0 b 0 w.len;
        b
      in
      w.instr <- widen w.instr 0;
      w.index <- widen w.index 0;
      w.value <- widen w.value 0.
    end;
    w.instr.(w.len) <- i;
    w.index.(w.len) <- at;
    Semantics.copy_operand regs ~frame ~ivar src w.value w.len;
    w.len <- w.len + 1

let exec b ~regs ~frame ~ivar i =
  match b.body.(i) with
  | Instr.Bin { op; dst; a; b = y } -> Semantics.exec_bin regs ~frame ~ivar op ~dst a y
  | Instr.Select { dst; cond; if_true; if_false } ->
    Semantics.exec_select regs ~frame ~ivar ~dst cond if_true if_false
  | Instr.Load { dst; base; addr } ->
    let at = Semantics.address regs ~frame ~ivar addr in
    load b ~regs ~frame ~ivar i ~dst ~cell:base ~index:at ~at
  | Instr.Load_scalar { dst; name } ->
    load b ~regs ~frame ~ivar i ~dst ~cell:name ~index:Readlog.scalar ~at:0
  | Instr.Store { addr; src; _ } ->
    store b ~regs ~frame ~ivar i ~at:(Semantics.address regs ~frame ~ivar addr) src
  | Instr.Store_scalar { src; _ } -> store b ~regs ~frame ~ivar i ~at:0 src
  | Instr.Send _ | Instr.Wait _ -> ()

let exec_instr mem ?log ~regs ~ivar ~instr_idx ~store (ins : Instr.t) =
  let frame = 0 and value = [| 0. |] and tag = Memory.Written { iter = ivar; instr = instr_idx } in
  let load dst cell index (c : Memory.cell) =
    regs.(dst) <- c.value;
    Option.iter (fun l -> Readlog.record l ~iter:ivar ~instr:instr_idx ~cell ~index ~observed:c.tag) log
  in
  match ins with
  | Instr.Load { dst; base; addr } ->
    let index = Semantics.address regs ~frame ~ivar addr in
    load dst base index (Memory.read mem base index)
  | Instr.Load_scalar { dst; name } -> load dst name Readlog.scalar (Memory.read_scalar mem name)
  | Instr.Store { base; addr; src } ->
    Semantics.copy_operand regs ~frame ~ivar src value 0;
    store ~cell:base ~index:(Some (Semantics.address regs ~frame ~ivar addr)) ~value:value.(0) ~tag
  | Instr.Store_scalar { name; src } ->
    Semantics.copy_operand regs ~frame ~ivar src value 0;
    store ~cell:name ~index:None ~value:value.(0) ~tag
  | Instr.Bin { op; dst; a; b } -> Semantics.exec_bin regs ~frame ~ivar op ~dst a b
  | Instr.Select { dst; cond; if_true; if_false } ->
    Semantics.exec_select regs ~frame ~ivar ~dst cond if_true if_false
  | Instr.Send _ | Instr.Wait _ -> ()

let run ?memory ?log (p : Program.t) =
  let mem = match memory with Some m -> m | None -> Memory.create () in
  let b = bind ?log mem p in
  let regs = Array.make (max 1 p.Program.n_regs) 0. in
  for ivar = p.Program.lo to p.Program.lo + p.Program.n_iters - 1 do
    Array.fill regs 0 (Array.length regs) 0.;
    for i = 0 to Array.length b.body - 1 do
      exec b ~regs ~frame:0 ~ivar i
    done
  done;
  mem
