module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Schedule = Isched_core.Schedule
module Memory = Isched_exec.Memory
module Readlog = Isched_exec.Readlog
module Prog_interp = Isched_exec.Prog_interp
module Vec = Isched_util.Vec

type result = {
  finish : int;
  memory : Memory.t;
  log : Readlog.t;
  races : string list;
}

exception
  Deadlock of {
    prog : string;
    cycle : int;
    iteration : int;
    wait : int;
    signal : int;
    posting_iteration : int;
  }

let () =
  Printexc.register_printer (function
    | Deadlock { prog; cycle; iteration; wait; signal; posting_iteration } ->
      Some
        (Printf.sprintf
           "Value.Deadlock: %s cannot progress at cycle %d: iteration %d blocks on wait %d \
            (signal %d), which iteration %d never posts"
           prog cycle iteration wait signal posting_iteration)
    | _ -> None)

(* A row split once: the waits that gate it, the signals it posts and
   the instructions it executes, all in ascending body order. *)
type row = { waits : int array; sends : int array; ops : int array }

let split (p : Program.t) row =
  let pick f = Array.of_list (List.filter_map f (Array.to_list row)) in
  {
    waits = pick (fun i -> match p.Program.body.(i) with Instr.Wait { wait } -> Some wait | _ -> None);
    sends =
      pick (fun i -> match p.Program.body.(i) with Instr.Send { signal } -> Some signal | _ -> None);
    ops =
      pick (fun i ->
          match p.Program.body.(i) with Instr.Send _ | Instr.Wait _ -> None | _ -> Some i);
  }

(* [blocked] names the wait a processor is parked on, [-1] while it can
   run; [store] collects the writes of the row it executes. *)
type proc = {
  k : int;
  ivar : int;
  regs : float array;
  mutable row : int;
  mutable blocked : int;
  store : cell:string -> index:int option -> value:float -> tag:Memory.tag -> unit;
}

type write = { cell : string; index : int option; value : float; tag : Memory.tag; by : int }

let run (s : Schedule.t) =
  let p = s.Schedule.prog in
  let n = p.Program.n_iters in
  let rows = Array.map (split p) s.Schedule.rows in
  let n_rows = Array.length rows in
  let mem = Memory.create () in
  let log = Readlog.create ~capacity:(Prog_interp.reads p) () in
  let logged = Some log in
  let races = ref [] in
  let n_signals = Array.length p.Program.signals in
  (* A signal posted in cycle [c] is visible from [c+1]; posts are
     applied after the cycle's last processor, so [posted] only ever
     shows earlier cycles' posts while processors run. *)
  let posted = Array.init n_signals (fun _ -> Array.make n false) in
  let parked = Array.init n_signals (fun _ -> Array.make n []) in
  let row_writes = ref [] and writes = Vec.create () and sends = Vec.create () in
  let procs =
    Array.init n (fun k ->
        {
          k;
          ivar = p.Program.lo + k;
          regs = Array.make (max 1 p.Program.n_regs) 0.;
          row = 0;
          blocked = -1;
          store =
            (fun ~cell ~index ~value ~tag ->
              row_writes := { cell; index; value; tag; by = k } :: !row_writes);
        })
  in
  (* The processors that can run this cycle, ascending: the read log
     records reads in this order.  [next] collects those still running
     after it, [woken] those a post released. *)
  let runnable = Array.init n Fun.id and n_runnable = ref (if n_rows = 0 then 0 else n) in
  let next = Array.make n 0 and n_next = ref 0 in
  let woken = Vec.create () in
  let live = ref !n_runnable in
  let seen = Hashtbl.create 16 in
  let cycle = ref 0 in
  (* [unposted proc r] — the first wait of row [r] whose signal is not
     yet visible to [proc], or [-1]. *)
  let unposted proc r =
    let found = ref (-1) and x = ref 0 in
    while !found < 0 && !x < Array.length r.waits do
      let w = p.Program.waits.(r.waits.(!x)) in
      let from = proc.k - w.Program.distance in
      if from >= 0 && (from >= n || not posted.(w.Program.signal).(from)) then found := r.waits.(!x);
      incr x
    done;
    !found
  in
  let step proc =
    let r = rows.(proc.row) in
    let w = unposted proc r in
    if w >= 0 then begin
      (* Park on the slot whose post will wake it; a wait on an
         iteration past the last never wakes. *)
      proc.blocked <- w;
      let w = p.Program.waits.(w) in
      let from = proc.k - w.Program.distance in
      if from < n then parked.(w.Program.signal).(from) <- proc.k :: parked.(w.Program.signal).(from)
    end
    else begin
      for x = 0 to Array.length r.ops - 1 do
        let i = r.ops.(x) in
        Prog_interp.exec_instr mem ?log:logged ~regs:proc.regs ~ivar:proc.ivar ~instr_idx:i
          ~store:proc.store p.Program.body.(i)
      done;
      (* [row_writes] holds the row's stores latest issue first: the
         order they commit in within one iteration. *)
      List.iter (Vec.push writes) !row_writes;
      row_writes := [];
      Array.iter (fun signal -> Vec.push sends (signal, proc.k)) r.sends;
      proc.row <- proc.row + 1;
      if proc.row = n_rows then decr live
      else begin
        next.(!n_next) <- proc.k;
        incr n_next
      end
    end
  in
  let commit () =
    (* A lone write cannot race. *)
    let contested = Vec.length writes > 1 in
    if contested then Hashtbl.clear seen;
    Vec.iter
      (fun w ->
        if contested then begin
          match Hashtbl.find_opt seen (w.cell, w.index) with
          | Some k0 ->
            races :=
              Printf.sprintf "cycle %d: iterations %d and %d both write %s%s" !cycle
                (p.Program.lo + k0) (p.Program.lo + w.by) w.cell
                (match w.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
              :: !races
          | None -> Hashtbl.add seen (w.cell, w.index) w.by
        end;
        match w.index with
        | Some i -> Memory.set mem w.cell i w.value w.tag
        | None -> Memory.set_scalar mem w.cell w.value w.tag)
      writes;
    Vec.iter
      (fun (signal, k) ->
        if not posted.(signal).(k) then begin
          posted.(signal).(k) <- true;
          List.iter
            (fun k' ->
              procs.(k').blocked <- -1;
              Vec.push woken k')
            parked.(signal).(k);
          parked.(signal).(k) <- []
        end)
      sends
  in
  (* [next] is ascending; merging the sorted [woken] into it gives the
     next cycle's [runnable]. *)
  let rejoin () =
    let w = Vec.to_array woken in
    Array.sort Int.compare w;
    let i = ref 0 and j = ref 0 in
    for x = 0 to !n_next + Array.length w - 1 do
      if !j = Array.length w || (!i < !n_next && next.(!i) < w.(!j)) then begin
        runnable.(x) <- next.(!i);
        incr i
      end
      else begin
        runnable.(x) <- w.(!j);
        incr j
      end
    done;
    n_runnable := !n_next + Array.length w
  in
  let deadlock () =
    let proc = Array.to_seq procs |> Seq.find (fun proc -> proc.blocked >= 0) |> Option.get in
    let w = p.Program.waits.(proc.blocked) in
    raise
      (Deadlock
         {
           prog = p.Program.name;
           cycle = !cycle;
           iteration = proc.k;
           wait = proc.blocked;
           signal = w.Program.signal;
           posting_iteration = proc.k - w.Program.distance;
         })
  in
  while !live > 0 do
    if !n_runnable = 0 then deadlock ();
    n_next := 0;
    Vec.clear woken;
    Vec.clear writes;
    Vec.clear sends;
    for x = 0 to !n_runnable - 1 do
      step procs.(runnable.(x))
    done;
    commit ();
    rejoin ();
    incr cycle
  done;
  { finish = !cycle; memory = mem; log; races = List.rev !races }
