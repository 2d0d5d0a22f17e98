(* A 1-D wavefront stencil (successive over-relaxation flavour), the
   loop class the paper's intro motivates: the field update carries a
   short recurrence while smoothing and diagnostics consume older
   elements.

   Run with:  dune exec examples/stencil_pipeline.exe

   For each of the paper's four machine configurations, the example
   schedules the kernel both ways, checks the schedules are legal and
   value-correct, and prints the timing comparison. *)

let source =
  {|! wavefront relaxation sweep with diagnostics
DOACROSS I = 2, 101
  S1: FLUX[I] = PHI[I-1] * C[I] + E[I+1]
  S2: RESID[I] = FLUX[I] - Q[I] * PHI[I-2]
  S3: DIAG[I] = PHI[I-2] + D[I-1] * C[I+2]
  S4: NORM[I] = E[I] * Q[I+1] + C[I-1]
  S5: PHI[I] = PHI[I-1] + D[I]
ENDDO
|}

let () =
  let loop = Isched_frontend.Parser.parse_loop ~name:"stencil" source in
  Isched_frontend.Sema.check_exn loop;
  let prog = Isched_codegen.Codegen.compile loop in
  let g = Isched_dfg.Dfg.build prog in
  Printf.printf "stencil kernel: %d statements, %d instructions, %d sync pairs (%d LBD)\n\n"
    (List.length loop.Isched_frontend.Ast.body)
    (Array.length prog.Isched_ir.Program.body)
    (Array.length prog.Isched_ir.Program.waits)
    (Isched_ir.Program.n_lbd prog);
  let table =
    Isched_util.Table.create ~title:"list vs new scheduling on the wavefront stencil"
      ~columns:
        [
          ("machine", Isched_util.Table.Left);
          ("T list", Isched_util.Table.Right);
          ("T new", Isched_util.Table.Right);
          ("improvement", Isched_util.Table.Right);
          ("rows list", Isched_util.Table.Right);
          ("rows new", Isched_util.Table.Right);
        ]
  in
  List.iter
    (fun (name, machine) ->
      let check s =
        (match Isched_core.Schedule.validate s g with
        | Ok () -> ()
        | Error e -> failwith ("illegal schedule: " ^ e));
        (match Isched_check.Oracle.differential s with
        | Ok () -> ()
        | Error es -> failwith ("value mismatch: " ^ String.concat "; " es));
        s
      in
      let sa = check (Isched_core.List_sched.run g machine) in
      let sb = check (Isched_core.Sync_sched.run g machine) in
      let ta = (Isched_sim.Timing.run sa).Isched_sim.Timing.finish in
      let tb = (Isched_sim.Timing.run sb).Isched_sim.Timing.finish in
      Isched_util.Table.add_row table
        [
          name;
          string_of_int ta;
          string_of_int tb;
          Isched_util.Table.fmt_pct (100. *. float_of_int (ta - tb) /. float_of_int ta);
          string_of_int sa.Isched_core.Schedule.length;
          string_of_int sb.Isched_core.Schedule.length;
        ])
    Isched_ir.Machine.paper_configs;
  Isched_util.Table.print table;
  print_endline "(every schedule above was validated and value-checked against the sequential reference)"
