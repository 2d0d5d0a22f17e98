module Ast = Isched_frontend.Ast
module Restructure = Isched_transform.Restructure
module Memory = Isched_exec.Memory
module Semantics = Isched_exec.Semantics

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

let check_schedule prog sched =
  let seq_mem, seq_log = Isched_check.Oracle.reference prog in
  let v = Isched_sim.Value.run sched in
  let stale = Isched_exec.Readlog.compare_logs ~reference:seq_log ~actual:v.Isched_sim.Value.log in
  match
    List.map (( ^ ) "memory: ") (Memory.diff seq_mem v.Isched_sim.Value.memory)
    @ List.map (Format.asprintf "stale read: %a" Isched_exec.Readlog.pp_mismatch) stale
    @ List.map (( ^ ) "race: ") v.Isched_sim.Value.races
  with
  | [] -> Ok ()
  | es -> Error es
