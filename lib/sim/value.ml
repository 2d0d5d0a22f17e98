module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Schedule = Isched_core.Schedule
module Memory = Isched_exec.Memory
module Readlog = Isched_exec.Readlog
module Prog_interp = Isched_exec.Prog_interp

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
  (* [f] maps a body instruction to an id, or [-1] to leave it out. *)
  let pick f =
    let ids = Array.map (fun i -> f i p.Program.body.(i)) row in
    let out = Array.make (Array.fold_left (fun n id -> if id >= 0 then n + 1 else n) 0 ids) 0 in
    ignore (Array.fold_left (fun k id -> if id >= 0 then (out.(k) <- id; k + 1) else k) 0 ids);
    out
  in
  {
    waits = pick (fun _ -> function Instr.Wait { wait } -> wait | _ -> -1);
    sends = pick (fun _ -> function Instr.Send { signal } -> signal | _ -> -1);
    ops = pick (fun i -> function Instr.Send _ | Instr.Wait _ -> -1 | _ -> i);
  }

let run (s : Schedule.t) =
  let p = s.Schedule.prog in
  let n = p.Program.n_iters in
  let rows = Array.map (split p) s.Schedule.rows in
  let n_rows = Array.length rows in
  let mem = Memory.create () in
  let log = Readlog.create ~capacity:(Prog_interp.reads p) () in
  let writes = Prog_interp.writes () in
  let bound = Prog_interp.bind ~log ~writes mem p in
  let races = ref [] in
  let n_signals = Array.length p.Program.signals in
  (* A signal posted in cycle [c] is visible from [c+1]; posts are
     applied after the cycle's last processor, so [posted] only ever
     shows earlier cycles' posts while processors run. *)
  let posted = Array.init n_signals (fun _ -> Array.make n false) in
  let parked = Array.init n_signals (fun _ -> Array.make n []) in
  (* One register file, a frame of [n_regs] per processor. *)
  let n_regs = max 1 p.Program.n_regs in
  let regs = Array.make (n * n_regs) 0. in
  (* Processor [k] runs iteration [lo + k]: [row.(k)] is its next row
     and [blocked.(k)] the wait it is parked on, [-1] while it can run. *)
  let row = Array.make n 0 and blocked = Array.make n (-1) in
  (* The processors that can run this cycle, ascending: the read log
     records reads in this order.  [next] collects those still running
     after it, [woken] those a post released.  [ran.(x)] executed a row
     this cycle and buffered the writes up to [ran_end.(x)]. *)
  let runnable = Array.init n Fun.id and n_runnable = ref (if n_rows = 0 then 0 else n) in
  let next = Array.make n 0 and n_next = ref 0 in
  let woken = Array.make n 0 and n_woken = ref 0 in
  let ran = Array.make n 0 and ran_end = Array.make n 0 and n_ran = ref 0 in
  let live = ref !n_runnable in
  let cycle = ref 0 in
  (* [unposted k r] — the first wait of row [r] whose signal is not yet
     visible to processor [k], or [-1]. *)
  let unposted k r =
    let found = ref (-1) and x = ref 0 in
    while !found < 0 && !x < Array.length r.waits do
      let w = p.Program.waits.(r.waits.(!x)) in
      let from = k - w.Program.distance in
      if from >= 0 && (from >= n || not posted.(w.Program.signal).(from)) then found := r.waits.(!x);
      incr x
    done;
    !found
  in
  let step k =
    let r = rows.(row.(k)) in
    let w = unposted k r in
    if w >= 0 then begin
      (* Park on the slot whose post will wake it; a wait on an
         iteration past the last never wakes. *)
      blocked.(k) <- w;
      let w = p.Program.waits.(w) in
      let from = k - w.Program.distance in
      if from < n then parked.(w.Program.signal).(from) <- k :: parked.(w.Program.signal).(from)
    end
    else begin
      for x = 0 to Array.length r.ops - 1 do
        Prog_interp.exec bound ~regs ~frame:(k * n_regs) ~ivar:(p.Program.lo + k) r.ops.(x)
      done;
      ran.(!n_ran) <- k;
      ran_end.(!n_ran) <- writes.Prog_interp.len;
      incr n_ran;
      row.(k) <- row.(k) + 1;
      if row.(k) = n_rows then decr live
      else begin
        next.(!n_next) <- k;
        incr n_next
      end
    end
  in
  (* The [w]th buffered write, by processor [k].  [marks] stamps each
     cell with the cycle and the first processor that wrote it in that
     cycle, so a second write in the same cycle is a race. *)
  let commit_write w k =
    let i = writes.Prog_interp.instr.(w) and index = writes.Prog_interp.index.(w) in
    let slot = Prog_interp.slot bound i in
    let j = Memory.claim slot index in
    let marks = Memory.marks slot and stamp = !cycle * n in
    if marks.(j) >= stamp then
      races :=
        Printf.sprintf "cycle %d: iterations %d and %d both write %s%s" !cycle
          (p.Program.lo + marks.(j) - stamp) (p.Program.lo + k) (Memory.slot_name slot)
          (if Memory.is_scalar slot then "" else Printf.sprintf "[%d]" index)
        :: !races
    else marks.(j) <- stamp + k;
    (Memory.values slot).(j) <- writes.Prog_interp.value.(w);
    (Memory.tags slot).(j) <- Memory.written ~iter:(p.Program.lo + k) ~instr:i
  in
  (* Writes commit in ascending iteration order and, within one row,
     latest issue first; then the posts, in the same order. *)
  let commit () =
    for x = 0 to !n_ran - 1 do
      for w = ran_end.(x) - 1 downto if x = 0 then 0 else ran_end.(x - 1) do
        commit_write w ran.(x)
      done
    done;
    for x = 0 to !n_ran - 1 do
      let k = ran.(x) in
      let sends = rows.(row.(k) - 1).sends in
      for y = 0 to Array.length sends - 1 do
        let signal = sends.(y) in
        if not posted.(signal).(k) then begin
          posted.(signal).(k) <- true;
          List.iter
            (fun k' ->
              blocked.(k') <- -1;
              woken.(!n_woken) <- k';
              incr n_woken)
            parked.(signal).(k);
          parked.(signal).(k) <- []
        end
      done
    done
  in
  (* [next] is ascending; merging the sorted [woken] into it gives the
     next cycle's [runnable]. *)
  let rejoin () =
    let m = !n_woken in
    if m > 1 then begin
      let sorted = Array.sub woken 0 m in
      Array.sort Int.compare sorted;
      Array.blit sorted 0 woken 0 m
    end;
    let i = ref 0 and j = ref 0 in
    for x = 0 to !n_next + m - 1 do
      if !j = m || (!i < !n_next && next.(!i) < woken.(!j)) then begin
        runnable.(x) <- next.(!i);
        incr i
      end
      else begin
        runnable.(x) <- woken.(!j);
        incr j
      end
    done;
    n_runnable := !n_next + m
  in
  let deadlock () =
    let k = Option.get (Seq.find (fun k -> blocked.(k) >= 0) (Seq.init n Fun.id)) in
    let w = p.Program.waits.(blocked.(k)) in
    raise
      (Deadlock
         {
           prog = p.Program.name;
           cycle = !cycle;
           iteration = k;
           wait = blocked.(k);
           signal = w.Program.signal;
           posting_iteration = k - w.Program.distance;
         })
  in
  while !live > 0 do
    if !n_runnable = 0 then deadlock ();
    n_next := 0;
    n_woken := 0;
    n_ran := 0;
    writes.Prog_interp.len <- 0;
    for x = 0 to !n_runnable - 1 do
      step runnable.(x)
    done;
    commit ();
    rejoin ();
    incr cycle
  done;
  { finish = !cycle; memory = mem; log; races = List.rev !races }
