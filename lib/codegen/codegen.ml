module Ast = Isched_frontend.Ast
module Sema = Isched_frontend.Sema
module Affine = Isched_deps.Affine
module Access = Isched_deps.Access
module Plan = Isched_sync.Plan
module Instr = Isched_ir.Instr
module Operand = Isched_ir.Operand
module Program = Isched_ir.Program

(* Value class of an operand: index arithmetic stays on the integer
   units; anything derived from memory is a "value" and uses the
   floating-point units, as real arrays are REAL in the benchmarks. *)
type cls = Cint | Cval

(* CSE keys are structural values, not formatted strings: key
   construction sits on the per-instruction emission path, and
   [Printf.sprintf] there dominated compile time at corpus scale. *)
type cse_key =
  | Kbin of Instr.binop * Operand.t * Operand.t
  | Kload of string * Operand.t  (* base array, byte address *)
  | Kload_scalar of string

type state = {
  loop : Ast.loop;
  plan : Plan.t;
  code : Instr.t Isched_util.Vec.t;
  mem : Program.mem_ref option Isched_util.Vec.t;  (* parallel to code *)
  stmts : int Isched_util.Vec.t;  (* parallel to code: statement id *)
  mutable next_reg : int;
  reg_cls : cls Isched_util.Vec.t;  (* per virtual register *)
  cse : (cse_key, Operand.t) Hashtbl.t;
  (* CSE key -> instruction index that produced the cached value *)
  access_instr_of_key : (cse_key, int) Hashtbl.t;
  (* access (stmt, idx) -> instruction index of the memory op *)
  access_instr : (int * int, int) Hashtbl.t;
  (* arrays that are stored to somewhere in the body / scalars written *)
  stored_arrays : (string, unit) Hashtbl.t;
  written_scalars : (string, unit) Hashtbl.t;
  (* signals to send right after a given access *)
  sends_after : (int * int, int list) Hashtbl.t;
  (* emission positions of the sync instructions *)
  send_instr_tbl : (int, int) Hashtbl.t;  (* signal id -> body index *)
  wait_instr_tbl : (int, int) Hashtbl.t;  (* wait id -> body index *)
  mutable cur_stmt : int;
  mutable acc_cursor : int;  (* next access index within the statement *)
}

let fresh st cls =
  let r = st.next_reg in
  st.next_reg <- r + 1;
  Isched_util.Vec.push st.reg_cls cls;
  r

let cls_of_operand st = function
  | Operand.Reg r -> Isched_util.Vec.get st.reg_cls r
  | Operand.Imm _ | Operand.Ivar -> Cint
  | Operand.Fimm _ -> Cval

let emit ?mem st instr =
  let idx = Isched_util.Vec.length st.code in
  Isched_util.Vec.push st.code instr;
  Isched_util.Vec.push st.mem mem;
  Isched_util.Vec.push st.stmts st.cur_stmt;
  (* Sends scheduled to follow this instruction's access are emitted by
     [take_access]. *)
  idx

let bin_key op a b =
  (* Commutative operands are canonicalized under a fixed total order so
     both argument orders share one key; any total order yields the same
     equivalence classes, so swapping the string order for the structural
     one changes no CSE decision. *)
  let commutative = match op with Instr.Add | Instr.Mul -> true | _ -> false in
  if commutative && Stdlib.compare b a < 0 then Kbin (op, b, a) else Kbin (op, a, b)

(* Emit (or reuse) a pure integer-class binary operation. *)
let emit_int_bin st op a b =
  let key = bin_key op a b in
  match Hashtbl.find_opt st.cse key with
  | Some o -> o
  | None ->
    let dst = fresh st Cint in
    ignore (emit st (Instr.Bin { op; dst; a; b }));
    let o = Operand.Reg dst in
    Hashtbl.add st.cse key o;
    o

(* Advance the access cursor: the current memory operation realizes the
   access (st.cur_stmt, st.acc_cursor).  Record the mapping and emit any
   Send_Signal attached to this access.  Internal memory operations that
   do not correspond to a source-level access (the old-value load of an
   if-converted store) pass [track:false] and leave the cursor alone. *)
let take_access st instr_idx =
  let key = (st.cur_stmt, st.acc_cursor) in
  st.acc_cursor <- st.acc_cursor + 1;
  Hashtbl.replace st.access_instr key instr_idx;
  match Hashtbl.find_opt st.sends_after key with
  | None -> ()
  | Some signals ->
    List.iter
      (fun s ->
        let i = emit st (Instr.Send { signal = s }) in
        Hashtbl.replace st.send_instr_tbl s i)
      (List.sort compare signals)

(* --- subscripts and addresses --- *)

let rec compile_index st (e : Ast.expr) : Operand.t =
  match Affine.of_expr e with
  | Some { Affine.coef = 0; off } -> Operand.Imm off
  | Some { Affine.coef = 1; off = 0 } -> Operand.Ivar
  | Some { Affine.coef = 1; off } -> emit_int_bin st Instr.Add Operand.Ivar (Operand.Imm off)
  | Some { Affine.coef; off } ->
    let scaled = emit_int_bin st Instr.Mul (Operand.Imm coef) Operand.Ivar in
    if off = 0 then scaled else emit_int_bin st Instr.Add scaled (Operand.Imm off)
  | None ->
    (* Non-affine: compile as a general expression in index context. *)
    compile_expr st ~index:true e

(* Byte address of element [idx]: idx << 2 (the paper's 4*x). *)
and address_of st idx =
  match idx with
  | Operand.Imm i -> Operand.Imm (i * 4)
  | _ -> emit_int_bin st Instr.Shl idx (Operand.Imm 2)

and compile_load st base sub =
  let idx = compile_index st sub in
  let addr = address_of st idx in
  let affine =
    match Affine.of_expr sub with Some a -> Some (a.Affine.coef, a.Affine.off) | None -> None
  in
  let mem = { Program.base; affine } in
  (* Loads from arrays the body never stores to are safe to reuse. *)
  let cacheable = not (Hashtbl.mem st.stored_arrays base) in
  let key = Kload (base, addr) in
  match if cacheable then Hashtbl.find_opt st.cse key else None with
  | Some (Operand.Reg r) ->
    (match Hashtbl.find_opt st.access_instr_of_key key with
    | Some i -> take_access st i
    | None -> assert false);
    Operand.Reg r
  | Some _ | None ->
    let dst = fresh st Cval in
    let i = emit ~mem st (Instr.Load { dst; base; addr }) in
    take_access st i;
    if cacheable then begin
      Hashtbl.add st.cse key (Operand.Reg dst);
      Hashtbl.add st.access_instr_of_key key i
    end;
    Operand.Reg dst

and compile_scalar_load st name =
  let cacheable = not (Hashtbl.mem st.written_scalars name) in
  let key = Kload_scalar name in
  match if cacheable then Hashtbl.find_opt st.cse key else None with
  | Some (Operand.Reg r) ->
    (match Hashtbl.find_opt st.access_instr_of_key key with
    | Some i -> take_access st i
    | None -> assert false);
    Operand.Reg r
  | Some _ | None ->
    let dst = fresh st Cval in
    let i = emit st (Instr.Load_scalar { dst; name }) in
    take_access st i;
    if cacheable then begin
      Hashtbl.add st.cse key (Operand.Reg dst);
      Hashtbl.add st.access_instr_of_key key i
    end;
    Operand.Reg dst

(* --- general expressions --- *)

and compile_expr st ~index (e : Ast.expr) : Operand.t =
  match e with
  | Ast.Num x ->
    if Float.is_integer x && Float.abs x < 1e9 then Operand.Imm (int_of_float x)
    else Operand.Fimm x
  | Ast.Ivar -> Operand.Ivar
  | Ast.Scalar name -> compile_scalar_load st name
  | Ast.Aref (base, sub) -> compile_load st base sub
  | Ast.Neg a ->
    let oa = compile_expr st ~index a in
    let int_ctx = index || cls_of_operand st oa = Cint in
    let op = if int_ctx then Instr.Sub else Instr.FSub in
    if int_ctx then emit_int_bin st op (Operand.Imm 0) oa
    else begin
      let dst = fresh st Cval in
      ignore (emit st (Instr.Bin { op; dst; a = Operand.Imm 0; b = oa }));
      Operand.Reg dst
    end
  | Ast.Bin (op, a, b) ->
    let oa = compile_expr st ~index a in
    let ob = compile_expr st ~index b in
    let int_ctx =
      index || (cls_of_operand st oa = Cint && cls_of_operand st ob = Cint)
    in
    let iop =
      match (op, int_ctx) with
      | Ast.Add, true -> Instr.Add
      | Ast.Sub, true -> Instr.Sub
      | Ast.Mul, true -> Instr.Mul
      | Ast.Div, true -> Instr.Div
      | Ast.Add, false -> Instr.FAdd
      | Ast.Sub, false -> Instr.FSub
      | Ast.Mul, false -> Instr.FMul
      | Ast.Div, false -> Instr.FDiv
    in
    if int_ctx then emit_int_bin st iop oa ob
    else begin
      let dst = fresh st Cval in
      ignore (emit st (Instr.Bin { op = iop; dst; a = oa; b = ob }));
      Operand.Reg dst
    end

and compile_cond st (c : Ast.cond) : Operand.t =
  let oa = compile_expr st ~index:false c.lhs in
  let ob = compile_expr st ~index:false c.rhs in
  let op =
    match c.rel with
    | Ast.Lt -> Instr.CmpLt
    | Ast.Le -> Instr.CmpLe
    | Ast.Gt -> Instr.CmpGt
    | Ast.Ge -> Instr.CmpGe
    | Ast.Eq -> Instr.CmpEq
    | Ast.Ne -> Instr.CmpNe
  in
  let dst = fresh st Cint in
  ignore (emit st (Instr.Bin { op; dst; a = oa; b = ob }));
  Operand.Reg dst

(* --- statements --- *)

let compile_stmt st i (s : Ast.stmt) =
  st.cur_stmt <- i;
  st.acc_cursor <- 0;
  (* Wait_Signals of all dependences sinking at this statement, in wait
     id order, before anything else the statement does. *)
  Array.iter
    (fun (p : Plan.pair) ->
      if p.dep.Isched_deps.Dep.snk.Access.stmt = i then begin
        let idx = emit st (Instr.Wait { wait = p.wait }) in
        Hashtbl.replace st.wait_instr_tbl p.wait idx
      end)
    st.plan.Plan.pairs;
  let cond_op = Option.map (fun c -> compile_cond st c) s.guard in
  match s.lhs with
  | Ast.Larr (base, sub) ->
    let idx = compile_index st sub in
    let addr = address_of st idx in
    let affine =
      match Affine.of_expr sub with
      | Some a -> Some (a.Affine.coef, a.Affine.off)
      | None -> None
    in
    let mem = { Program.base; affine } in
    let rhs_op = compile_expr st ~index:false s.rhs in
    let value =
      match cond_op with
      | None -> rhs_op
      | Some cond ->
        (* If-conversion: keep the old value when the guard is false.
           The old-value load is internal: it does not correspond to a
           source-level access and must not advance the access cursor. *)
        let old = fresh st Cval in
        ignore (emit ~mem st (Instr.Load { dst = old; base; addr }));
        let dst = fresh st Cval in
        ignore
          (emit st (Instr.Select { dst; cond; if_true = rhs_op; if_false = Operand.Reg old }));
        Operand.Reg dst
    in
    let store_idx = emit ~mem st (Instr.Store { base; addr; src = value }) in
    take_access st store_idx
  | Ast.Lscalar name ->
    let rhs_op = compile_expr st ~index:false s.rhs in
    let value =
      match cond_op with
      | None -> rhs_op
      | Some cond ->
        let old = fresh st Cval in
        ignore (emit st (Instr.Load_scalar { dst = old; name }));
        let dst = fresh st Cval in
        ignore
          (emit st (Instr.Select { dst; cond; if_true = rhs_op; if_false = Operand.Reg old }));
        Operand.Reg dst
    in
    let store_idx = emit st (Instr.Store_scalar { name; src = value }) in
    take_access st store_idx

(* --- driver --- *)

let dep_kind_of = function
  | Isched_deps.Dep.Flow -> Program.Flow
  | Isched_deps.Dep.Anti -> Program.Anti
  | Isched_deps.Dep.Output -> Program.Output

let lexical_of = function
  | Isched_deps.Dep.LFD -> Program.LFD
  | Isched_deps.Dep.LBD -> Program.LBD

let run ?n_iters (l : Ast.loop) (plan : Plan.t) =
  Sema.check_exn l;
  let st =
    {
      loop = l;
      plan;
      code = Isched_util.Vec.create ();
      mem = Isched_util.Vec.create ();
      stmts = Isched_util.Vec.create ();
      next_reg = 0;
      reg_cls = Isched_util.Vec.create ();
      cse = Hashtbl.create 64;
      access_instr_of_key = Hashtbl.create 64;
      access_instr = Hashtbl.create 64;
      stored_arrays = Hashtbl.create 8;
      written_scalars = Hashtbl.create 8;
      sends_after = Hashtbl.create 8;
      send_instr_tbl = Hashtbl.create 8;
      wait_instr_tbl = Hashtbl.create 8;
      cur_stmt = 0;
      acc_cursor = 0;
    }
  in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.lhs with
      | Ast.Larr (a, _) -> Hashtbl.replace st.stored_arrays a ()
      | Ast.Lscalar n -> Hashtbl.replace st.written_scalars n ())
    l.body;
  Array.iter
    (fun (sd : Plan.signal_decl) ->
      let key = (sd.src.Access.stmt, sd.src.Access.idx) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt st.sends_after key) in
      Hashtbl.replace st.sends_after key (sd.signal :: prev))
    plan.Plan.signals;
  List.iteri (fun i s -> compile_stmt st i s) l.body;
  let find_access what (a : Access.t) =
    match Hashtbl.find_opt st.access_instr (a.stmt, a.idx) with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Codegen: %s access S%d.%d of loop %s has no instruction" what
           (a.stmt + 1) a.idx l.name)
  in
  let signals =
    Array.map
      (fun (sd : Plan.signal_decl) ->
        {
          Program.signal = sd.signal;
          src_stmt = sd.src.Access.stmt;
          src_instr = find_access "source" sd.src;
          send_instr =
            (match Hashtbl.find_opt st.send_instr_tbl sd.signal with
            | Some i -> i
            | None ->
              invalid_arg
                (Printf.sprintf "Codegen: signal %d of loop %s was never sent" sd.signal l.name));
          label = sd.label;
        })
      plan.Plan.signals
  in
  let waits =
    Array.map
      (fun (p : Plan.pair) ->
        let dep = p.dep in
        {
          Program.wait = p.wait;
          signal = p.signal;
          distance = p.distance;
          snk_stmt = dep.Isched_deps.Dep.snk.Access.stmt;
          snk_instr = find_access "sink" dep.Isched_deps.Dep.snk;
          wait_instr =
            (match Hashtbl.find_opt st.wait_instr_tbl p.wait with
            | Some i -> i
            | None ->
              invalid_arg
                (Printf.sprintf "Codegen: wait %d of loop %s was never emitted" p.wait l.name));
          kind = dep_kind_of dep.Isched_deps.Dep.kind;
          lexical = lexical_of dep.Isched_deps.Dep.lexical;
          array = dep.Isched_deps.Dep.src.Access.target;
        })
      plan.Plan.pairs
  in
  let program =
    {
      Program.name = l.name;
      body = Isched_util.Vec.to_array st.code;
      signals;
      waits;
      mem = Isched_util.Vec.to_array st.mem;
      stmt_of = Isched_util.Vec.to_array st.stmts;
      n_regs = st.next_reg;
      lo = l.lo;
      n_iters = (match n_iters with Some n -> n | None -> Ast.iterations l);
      source_lines = Ast.source_lines l;
    }
  in
  Program.validate program;
  program

let compile ?(migrate = false) ?carried ?n_iters l =
  (* [carried], when given, must be [Dep.carried_deps l]: callers that
     already decided DOALL vs DOACROSS pass their analysis along instead
     of re-running it.  Migration reorders the statements, which
     renumbers the accesses the deps refer to, so a provided list is
     only usable on the unmigrated loop. *)
  let l, carried =
    if migrate then (Isched_sync.Migrate.reorder l, None) else (l, carried)
  in
  let plan =
    match carried with Some deps -> Plan.of_deps l deps | None -> Plan.build l
  in
  run ?n_iters l plan

(* Observability shadows: the exported entry points are the traced ones. *)
let run ?n_iters l plan = Isched_obs.Span.with_ ~name:"codegen.run" (fun () -> run ?n_iters l plan)

let compile ?migrate ?carried ?n_iters l =
  Isched_obs.Span.with_ ~name:"codegen.compile" (fun () -> compile ?migrate ?carried ?n_iters l)
