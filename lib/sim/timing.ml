module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters

(* Fast-path accounting: [timing.extrapolated] counts simulations that
   detected a steady state and wrote the tail closed-form,
   [timing.full_sim] those that simulated every iteration (including
   runs where extrapolation was disabled or structurally unusable);
   [timing.extrapolated_iters] is how many iterations the fast path
   skipped. *)
let c_extrapolated = Counters.counter "timing.extrapolated"
let c_full_sim = Counters.counter "timing.full_sim"
let c_saved_iters = Counters.counter "timing.extrapolated_iters"

type result = {
  finish : int;
  iteration_starts : int array;
  iteration_finishes : int array;
  stall_cycles : int;
  extrapolated_from : int option;
}

type assignment = [ `Cyclic | `Block ]

exception
  Invalid_schedule of {
    prog : string;
    iteration : int;
    wait : int;
    signal : int;
    posting_iteration : int;
  }

let () =
  Printexc.register_printer (function
    | Invalid_schedule { prog; iteration; wait; signal; posting_iteration } ->
      Some
        (Printf.sprintf
           "Timing.Invalid_schedule: %s iteration %d blocks on wait %d (signal %d), but \
            iteration %d never posted it — its Send is missing from the row layout"
           prog iteration wait signal posting_iteration)
    | _ -> None)

(* The LBD loop theorem (PAPER.md Section 3) prices a loop as
   (n/d)(i-j) + l: past a fill transient the per-iteration offset is
   constant, so the tail of the simulation is an arithmetic progression.
   [run_rows] simulates iterations in order as before but watches for
   that steady state — once every component of the iteration state
   (start, retirement, signal-post cycles, stalls) advances by one
   uniform constant per period, the remaining iterations are written out
   closed-form instead of simulated row by row. The periodic invariant
   is checked on real data over a window covering every dependence lag,
   which makes the extrapolation exact, not approximate (cross-checked
   against the full simulation in test_sim). *)

let run_rows_inner ?n_procs ?(assignment = `Cyclic) ?(extrapolate = true) (p : Program.t) rows =
  let n = p.Program.n_iters in
  let n_procs = match n_procs with None -> n | Some np -> np in
  if n_procs < 1 then invalid_arg "Timing.run_rows: n_procs must be >= 1";
  (* finish_at.(k) = retirement cycle of iteration k; with a limited
     processor pool, iteration k waits for its processor's previous
     iteration.  Cyclic: the predecessor is k - n_procs.  Block: chunks
     of ceil(n / n_procs) consecutive iterations share a processor. *)
  let block = (n + n_procs - 1) / n_procs in
  let limited = n_procs < n in
  let prev_on_proc k =
    match assignment with
    | `Cyclic -> if k >= n_procs then Some (k - n_procs) else None
    | `Block -> if k mod block <> 0 then Some (k - 1) else None
  in
  let finish_at = Array.make (Int.max n 1) 0 in
  (* post.(signal).(k) = cycle at which iteration k's Send executed;
     -1 when not yet (or never) posted. *)
  let n_signals = Array.length p.Program.signals in
  let post = Array.init n_signals (fun _ -> Array.make (Int.max n 1) (-1)) in
  let iteration_starts = Array.make (Int.max n 1) 0 in
  let stall_of = Array.make (Int.max n 1) 0 in
  (* Event compression: an iteration's clock advances exactly one cycle
     per row, except at rows containing a Wait (which can stall it) or a
     Send (which must record its post cycle).  Collecting those rows
     once lets [simulate] skip every plain row in O(1) instead of
     re-matching the whole body per iteration. *)
  let n_rows = Array.length rows in
  let ev_rows, ev_waits, ev_sends =
    let rs = ref [] and ws = ref [] and ss = ref [] in
    for r = n_rows - 1 downto 0 do
      let row_waits = ref [] and row_sends = ref [] in
      let row = rows.(r) in
      for x = Array.length row - 1 downto 0 do
        match p.Program.body.(row.(x)) with
        | Instr.Wait { wait } -> row_waits := wait :: !row_waits
        | Instr.Send { signal } -> row_sends := signal :: !row_sends
        | _ -> ()
      done;
      if !row_waits <> [] || !row_sends <> [] then begin
        rs := r :: !rs;
        ws := Array.of_list !row_waits :: !ws;
        ss := Array.of_list !row_sends :: !ss
      end
    done;
    (Array.of_list !rs, Array.of_list !ws, Array.of_list !ss)
  in
  let n_ev = Array.length ev_rows in
  let simulate k =
    let proc_free = match prev_on_proc k with Some j -> finish_at.(j) | None -> 0 in
    let t = ref (proc_free - 1) in
    let stalls = ref 0 in
    (* The iteration start is the clock after row 0: [proc_free] unless
       row 0 itself holds a wait that pushes it. *)
    let start0 = ref proc_free in
    let prev_row = ref (-1) in
    for e = 0 to n_ev - 1 do
      let r = ev_rows.(e) in
      t := !t + (r - !prev_row - 1);
      let earliest = !t + 1 in
      let ready = ref earliest in
      let ws = ev_waits.(e) in
      for x = 0 to Array.length ws - 1 do
        let w = p.Program.waits.(ws.(x)) in
        let from = k - w.Program.distance in
        if from >= 0 then begin
          let posted = post.(w.Program.signal).(from) in
          (* Signals flow from lower iterations, simulated already; a
             send present in the rows has always executed by now.
             [posted < 0] therefore means the matching Send is absent
             from the row layout — an invalid schedule, not a simulator
             bug — and is diagnosed as such. *)
          if posted < 0 then
            raise
              (Invalid_schedule
                 {
                   prog = p.Program.name;
                   iteration = k;
                   wait = w.Program.wait;
                   signal = w.Program.signal;
                   posting_iteration = from;
                 });
          if posted + 1 > !ready then ready := posted + 1
        end
      done;
      stalls := !stalls + (!ready - earliest);
      t := !ready;
      if r = 0 then start0 := !t;
      let ss = ev_sends.(e) in
      for x = 0 to Array.length ss - 1 do
        post.(ss.(x)).(k) <- !t
      done;
      prev_row := r
    done;
    t := !t + (n_rows - 1 - !prev_row);
    iteration_starts.(k) <- (if n_rows = 0 then proc_free else !start0);
    finish_at.(k) <- !t + 1;
    stall_of.(k) <- !stalls
  in
  (* Steady-state parameters.  [period]: the lag at which the iteration
     recurrence repeats (1 with a full pool; the pool size under cyclic
     assignment; the chunk size under block assignment, where chunk
     boundaries lack the processor edge).  [lag]: how far back iteration
     k+1's inputs reach, i.e. the window that must satisfy the periodic
     invariant for the extrapolation to be exact.  [guard]: first
     iteration from which the recurrence shape is the same at k and
     k - period. *)
  let d_max =
    Array.fold_left (fun acc (w : Program.wait_info) -> Int.max acc w.Program.distance) 0 p.Program.waits
  in
  let period =
    if not limited then 1 else match assignment with `Cyclic -> n_procs | `Block -> block
  in
  let lag = Int.max d_max (if limited then match assignment with `Cyclic -> n_procs | `Block -> 1 else 1) in
  let guard = period + Int.max 1 (Int.max d_max (if limited && assignment = `Cyclic then n_procs else 0)) in
  (* The window must cover a full period on top of the input lag:
     under block assignment the residue classes mod [period] behave
     differently (chunk-boundary iterations have no processor edge), so
     every residue must be seen satisfying the invariant before the tail
     is extrapolated. *)
  let window = period + lag + 2 in
  let usable = extrapolate && period <= 512 && n > guard + window + period in
  (* Detection: a run of consecutive iterations whose full state vector
     advances by one shared constant [lambda] over [period]. *)
  let run_len = ref 0 in
  let lambda = ref 0 in
  let lambda_start = ref 0 in
  let state_delta k =
    (* Delta of state(k) - state(k - period): finish and every signal
       post must share one constant; the iteration start may instead be
       exactly constant (delta 0), which happens when the first row has
       no applicable wait and the processor-free input is pinned at
       cycle 0 — then its ready-max contains no growing term, so no
       later dominance crossover is possible.  Stalls are excluded: they
       are not shift-covariant at chunk boundaries and are reconstructed
       exactly from the finish times instead. *)
    let d = finish_at.(k) - finish_at.(k - period) in
    let ds = iteration_starts.(k) - iteration_starts.(k - period) in
    if
      (ds = d || ds = 0)
      &&
      let ok = ref true in
      for s = 0 to n_signals - 1 do
        if post.(s).(k) - post.(s).(k - period) <> d then ok := false
      done;
      !ok
    then Some (d, ds)
    else None
  in
  let stable_at = ref None in
  let k = ref 0 in
  while !k < n && !stable_at = None do
    simulate !k;
    (if usable && !k >= guard + period then
       match state_delta !k with
       | Some (d, ds) when !run_len > 0 && d = !lambda && ds = !lambda_start ->
         incr run_len;
         if !run_len >= window then stable_at := Some !k
       | Some (d, ds) ->
         run_len := 1;
         lambda := d;
         lambda_start := ds
       | None -> run_len := 0);
    incr k
  done;
  (match !stable_at with
  | None -> ()
  | Some k_s ->
    (* Closed-form tail: every residue class mod [period] keeps adding
       [lambda] per period from its last simulated representative.  The
       stall count follows from the timing identity
       finish = proc_free + n_rows + stalls (each row costs one cycle
       plus its stall), which holds whether or not the iteration sits at
       a chunk boundary. *)
    let n_rows = Array.length rows in
    for k = k_s + 1 to n - 1 do
      iteration_starts.(k) <- iteration_starts.(k - period) + !lambda_start;
      finish_at.(k) <- finish_at.(k - period) + !lambda;
      let proc_free = match prev_on_proc k with Some j -> finish_at.(j) | None -> 0 in
      stall_of.(k) <- finish_at.(k) - proc_free - n_rows
    done);
  (match !stable_at with
  | Some k_s ->
    Counters.incr c_extrapolated;
    Counters.add c_saved_iters (n - 1 - k_s)
  | None -> Counters.incr c_full_sim);
  let finish = ref 0 in
  let stalls = ref 0 in
  for k = 0 to n - 1 do
    finish := Int.max !finish finish_at.(k);
    stalls := !stalls + stall_of.(k)
  done;
  let trim a = if n = 0 then [||] else a in
  {
    finish = !finish;
    iteration_starts = trim iteration_starts;
    iteration_finishes = trim finish_at;
    stall_cycles = !stalls;
    extrapolated_from = !stable_at;
  }

let run_rows ?n_procs ?assignment ?extrapolate (p : Program.t) rows =
  if Span.enabled () then
    Span.with_ ~name:"sim.timing"
      ~args:[ ("prog", p.Program.name); ("n_iters", string_of_int p.Program.n_iters) ]
      (fun () -> run_rows_inner ?n_procs ?assignment ?extrapolate p rows)
  else run_rows_inner ?n_procs ?assignment ?extrapolate p rows

let run ?n_procs ?assignment ?extrapolate (s : Isched_core.Schedule.t) =
  run_rows ?n_procs ?assignment ?extrapolate s.Isched_core.Schedule.prog s.Isched_core.Schedule.rows
