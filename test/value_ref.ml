(* Reference model for the value simulator: the time-stepped engine that
   visited every processor on every cycle, kept verbatim as the oracle
   of the differential test in [test_sim.ml].  Test tree only: the
   library has one engine, [Isched_sim.Value]. *)

module Value = Isched_sim.Value
module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Schedule = Isched_core.Schedule
module Memory = Isched_exec.Memory
module Readlog = Isched_exec.Readlog
module Prog_interp = Isched_exec.Prog_interp

type proc = { k : int; ivar : int; regs : float array; mutable row : int }

let run (s : Schedule.t) =
  let p = s.Schedule.prog in
  let n = p.Program.n_iters in
  let rows = s.Schedule.rows in
  let n_rows = Array.length rows in
  let mem = Memory.create () in
  let log = Readlog.create () in
  let races = ref [] in
  let n_signals = Array.length p.Program.signals in
  let post = Array.init (max 1 n_signals) (fun _ -> Array.make n (-1)) in
  let procs =
    Array.init n (fun k ->
        { k; ivar = p.Program.lo + k; regs = Array.make (max 1 p.Program.n_regs) 0.; row = 0 })
  in
  let live = ref n in
  let cycle = ref 0 in
  let bound = (n * (n_rows + 16)) + 1024 in
  while !live > 0 do
    if !cycle > bound then
      invalid_arg (Printf.sprintf "Value.run: %s did not retire within %d cycles" p.Program.name bound);
    (* Buffered effects: visible from the next cycle. *)
    let writes : (string * int option * float * Memory.tag * int) list ref = ref [] in
    let posts : (int * int) list ref = ref [] in
    Array.iter
      (fun proc ->
        if proc.row < n_rows then begin
          let row = rows.(proc.row) in
          let satisfied =
            Array.for_all
              (fun i ->
                match p.Program.body.(i) with
                | Instr.Wait { wait } ->
                  let w = p.Program.waits.(wait) in
                  let from = proc.k - w.Program.distance in
                  from < 0
                  ||
                  let posted = post.(w.Program.signal).(from) in
                  posted >= 0 && posted < !cycle
                | _ -> true)
              row
          in
          if satisfied then begin
            Array.iter
              (fun i ->
                match p.Program.body.(i) with
                | Instr.Send { signal } -> posts := (signal, proc.k) :: !posts
                | ins ->
                  let store ~cell ~index ~value ~tag:_ =
                    let tag = Memory.Written { iter = proc.ivar; instr = i } in
                    writes := (cell, index, value, tag, proc.k) :: !writes
                  in
                  Prog_interp.exec_instr mem ~log ~regs:proc.regs ~ivar:proc.ivar ~instr_idx:i
                    ~store ins)
              row;
            proc.row <- proc.row + 1;
            if proc.row = n_rows then decr live
          end
        end)
      procs;
    (* Commit writes, lowest iteration last-writer-wins is a race; apply
       ascending so the outcome is deterministic and flagged. *)
    let writes = List.sort (fun (_, _, _, _, ka) (_, _, _, _, kb) -> compare ka kb) !writes in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (cell, index, value, tag, k) ->
        let key = (cell, index) in
        (match Hashtbl.find_opt seen key with
        | Some k0 ->
          races :=
            Printf.sprintf "cycle %d: iterations %d and %d both write %s%s" !cycle
              (p.Program.lo + k0) (p.Program.lo + k) cell
              (match index with Some i -> Printf.sprintf "[%d]" i | None -> "")
            :: !races
        | None -> Hashtbl.add seen key k);
        match index with
        | Some i -> Memory.set mem cell i value tag
        | None -> Memory.set_scalar mem cell value tag)
      writes;
    List.iter (fun (signal, k) -> post.(signal).(k) <- !cycle) !posts;
    incr cycle
  done;
  { Value.finish = !cycle; memory = mem; log; races = List.rev !races }
