module Schedule = Isched_core.Schedule
module Program = Isched_ir.Program
module Value = Isched_sim.Value
module Timing = Isched_sim.Timing
module Memory = Isched_exec.Memory
module Readlog = Isched_exec.Readlog
module Prog_interp = Isched_exec.Prog_interp
module Semantics = Isched_exec.Semantics
module Ast = Isched_frontend.Ast
module Restructure = Isched_transform.Restructure
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
  if not (Memory.equal seq_mem v.Value.memory) then begin
    let cells = Memory.diff seq_mem v.Value.memory in
    add
      (Printf.sprintf
         "final memory differs from the sequential reference in %d cell(s), reference vs parallel:"
         (List.length cells));
    List.iteri (fun i d -> if i < max_shown then add ("  " ^ d)) cells
  end;
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

(* --- restructured loop against its source --- *)

let check_restructure (l : Ast.loop) (r : Restructure.result) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let mem_orig = Isched_exec.Ast_interp.run l in
  let mem_new = Isched_exec.Ast_interp.run r.Restructure.loop in
  let transformed_scalars =
    List.filter_map
      (function
        | Restructure.Iv_subst { name; _ }
        | Restructure.Reduction { name; _ }
        | Restructure.Expanded { name; _ } ->
          Some name)
      r.Restructure.actions
  in
  let partial_arrays =
    List.filter_map
      (function
        | Restructure.Reduction { partial; _ } | Restructure.Expanded { partial; _ } ->
          Some partial
        | Restructure.Iv_subst _ -> None)
      r.Restructure.actions
  in
  (* Reconcile each action. *)
  List.iter
    (function
      | Restructure.Reduction { name; op; partial } ->
        (* Fold the partials in iteration order, starting from the
           scalar's initial (pre-loop) value. *)
        let fresh = Memory.create () in
        let acc = ref (Memory.get_scalar fresh name) in
        for i = l.Ast.lo to l.Ast.hi do
          let e = Memory.get mem_new partial i in
          acc :=
            (match op with
            | Ast.Add -> !acc +. e
            | Ast.Sub -> !acc -. e
            | Ast.Mul -> !acc *. e
            | Ast.Div -> if e = 0. then 0. else !acc /. e)
        done;
        let got = Memory.get_scalar mem_orig name in
        if not (Semantics.eq !acc got) then
          err "reduction %s: combined partials %h but the original loop computes %h" name !acc got
      | Restructure.Expanded { name; partial } ->
        let expected = Memory.get mem_new partial l.Ast.hi in
        let got = Memory.get_scalar mem_orig name in
        if not (Semantics.eq expected got) then
          err "expanded scalar %s: %s[%d] = %h but the original computes %h" name partial l.Ast.hi
            expected got
      | Restructure.Iv_subst { name; step } ->
        let fresh = Memory.create () in
        let expected =
          Memory.get_scalar fresh name +. float_of_int (step * Ast.iterations l)
        in
        let got = Memory.get_scalar mem_orig name in
        if not (Semantics.eq expected got) then
          err "induction variable %s: closed form gives %h, original computes %h" name expected got)
    r.Restructure.actions;
  (* Everything else must agree cell for cell. *)
  List.iter
    (fun ((name, idx), v) ->
      if not (List.mem name partial_arrays) then begin
        let v' = Memory.get mem_orig name idx in
        if not (Semantics.eq v v') then err "%s[%d]: restructured %h vs original %h" name idx v v'
      end)
    (Memory.written_cells mem_new);
  List.iter
    (fun ((name, idx), v) ->
      let v' = Memory.get mem_new name idx in
      if not (Semantics.eq v v') then err "%s[%d]: original %h vs restructured %h" name idx v v')
    (Memory.written_cells mem_orig);
  List.iter
    (fun (name, v) ->
      if not (List.mem name transformed_scalars) then begin
        let v' = Memory.get_scalar mem_orig name in
        if not (Semantics.eq v v') then err "scalar %s: restructured %h vs original %h" name v v'
      end)
    (Memory.written_scalars mem_new);
  match List.rev !errors with [] -> Ok () | es -> Error es
