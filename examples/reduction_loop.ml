(* The restructuring front end (Parafrase surrogate) at work: a loop
   with an induction variable, a sum reduction and an expandable
   temporary is rewritten until only the true recurrence needs
   synchronization.

   Run with:  dune exec examples/reduction_loop.exe *)

let source =
  {|! energy accumulation with an induction-stepped sample index
DOACROSS I = 1, 100
  S1: K = K + 2
  S2: T = E[I] * C[I+1]
  S3: EN = EN + T * T
  S4: OUT[I] = T + K * D[I]
  S5: ACC[I] = ACC[I-1] + T
ENDDO
|}

let () =
  let loop = Isched_frontend.Parser.parse_loop ~name:"reduction" source in
  Isched_frontend.Sema.check_exn loop;
  print_endline "Original loop:";
  print_string (Isched_frontend.Ast.loop_to_string loop);
  Printf.printf "\ncarried dependences before restructuring: %d\n"
    (List.length (Isched_deps.Dep.carried_deps loop));

  let r = Isched_transform.Restructure.run loop in
  print_endline "\nTransformations applied:";
  List.iter
    (fun a -> Format.printf "  %a@." Isched_transform.Restructure.pp_action a)
    r.Isched_transform.Restructure.actions;
  print_endline "\nRestructured loop:";
  print_string (Isched_frontend.Ast.loop_to_string r.Isched_transform.Restructure.loop);
  Printf.printf "\ncarried dependences after restructuring: %d (only the ACC recurrence)\n"
    (List.length (Isched_deps.Dep.carried_deps r.Isched_transform.Restructure.loop));

  (* The transformations must preserve semantics: final memories agree
     after combining the reduction partials, reading the expanded
     scalar's last element and applying the induction variable's closed
     form. *)
  (match Isched_check.Oracle.check_restructure loop r with
  | Ok () -> print_endline "\nequivalence check: restructured loop matches the original  [ok]"
  | Error es ->
    print_endline "\nequivalence check FAILED:";
    List.iter print_endline es);

  (* And the remaining recurrence still schedules well. *)
  let prog = Isched_codegen.Codegen.compile r.Isched_transform.Restructure.loop in
  let g = Isched_dfg.Dfg.build prog in
  let machine = Isched_ir.Machine.make ~issue:4 ~nfu:1 () in
  let ta =
    (Isched_sim.Timing.run (Isched_core.List_sched.run g machine)).Isched_sim.Timing.finish
  in
  let tb =
    (Isched_sim.Timing.run (Isched_core.Sync_sched.run g machine)).Isched_sim.Timing.finish
  in
  Printf.printf "\n4-issue timing: list %d cycles, new %d cycles (%.1f%% better)\n" ta tb
    (100. *. float_of_int (ta - tb) /. float_of_int ta)
