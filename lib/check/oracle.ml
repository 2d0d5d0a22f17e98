module Schedule = Isched_core.Schedule
module Program = Isched_ir.Program
module Value = Isched_sim.Value
module Timing = Isched_sim.Timing
module Memory = Isched_exec.Memory
module Readlog = Isched_exec.Readlog
module Prog_interp = Isched_exec.Prog_interp
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters

let c_runs = Counters.counter "check.oracle.runs"
let c_reference_runs = Counters.counter "check.oracle.reference_runs"
let c_failures = Counters.counter "check.oracle.failures"

(* The last program's reference, one slot per domain: a loop's list,
   marker and new schedules, and every fault injected into them, share
   one physical program, so consecutive oracle runs hit.  The key is
   physical identity; it holds because a program is never written after
   codegen. *)
type reference = { prog : Program.t; memory : Memory.t; log : Readlog.t }

let slot : reference option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let reference (p : Program.t) =
  match Domain.DLS.get slot with
  | Some r when r.prog == p -> (r.memory, r.log)
  | _ ->
    (* Drop the old reference first: two are never alive at once. *)
    Domain.DLS.set slot None;
    Counters.incr c_reference_runs;
    let log = Readlog.create ~capacity:(Prog_interp.reads p) () in
    let memory = Prog_interp.run ~log p in
    Domain.DLS.set slot (Some { prog = p; memory; log });
    (memory, log)

(* Stale reads can number in the thousands on a badly corrupted
   schedule; the diagnostic keeps the totals and shows the first few. *)
let max_shown = 5

(* The value run [v] of [s] against the sequential reference and the
   timing engine. *)
let compare_run add (s : Schedule.t) (v : Value.result) =
  let seq_mem, seq_log = reference s.Schedule.prog in
  if not (Memory.equal seq_mem v.Value.memory) then
    add "final memory differs from the sequential reference";
  let stale = Readlog.compare_logs ~reference:seq_log ~actual:v.Value.log in
  (match stale with
  | [] -> ()
  | _ ->
    add (Printf.sprintf "%d stale read(s): parallel execution observed wrong write generations"
           (List.length stale));
    List.iteri
      (fun i m -> if i < max_shown then add (Format.asprintf "  %a" Readlog.pp_mismatch m))
      stale);
  List.iteri (fun i r -> if i < max_shown then add (Printf.sprintf "write race: %s" r)) v.Value.races;
  if List.length v.Value.races > max_shown then
    add (Printf.sprintf "... and %d more race(s)" (List.length v.Value.races - max_shown));
  match Timing.run s with
  | t ->
    if t.Timing.finish <> v.Value.finish then
      add
        (Printf.sprintf "timing simulator finishes at cycle %d, value simulator at %d"
           t.Timing.finish v.Value.finish)
  | exception (Timing.Invalid_schedule _ as e) -> add (Printexc.to_string e)

let differential_inner (s : Schedule.t) =
  Counters.incr c_runs;
  let msgs = ref [] in
  let add m = msgs := m :: !msgs in
  (match Value.run s with
  | v -> compare_run add s v
  | exception (Value.Deadlock _ as e) -> add (Printexc.to_string e));
  match List.rev !msgs with
  | [] -> Ok ()
  | msgs ->
    Counters.incr c_failures;
    Error msgs

let differential (s : Schedule.t) =
  if Span.enabled () then
    Span.with_ ~name:"check.oracle"
      ~args:[ ("prog", s.Schedule.prog.Program.name) ]
      (fun () -> differential_inner s)
  else differential_inner s

let check_schedule ?graph (s : Schedule.t) =
  let static =
    match Static.check ?graph s with
    | Ok () -> []
    | Error vs ->
      List.map (fun v -> Format.asprintf "%a" Violation.pp_located (s.Schedule.prog.Program.name, v)) vs
  in
  let dynamic = match differential s with Ok () -> [] | Error ms -> ms in
  match static @ dynamic with [] -> Ok () | msgs -> Error msgs
