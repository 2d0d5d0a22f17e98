(* Bechamel micro-benchmarks of the pipeline stages, one per reproduced
   artefact as DESIGN.md indexes them.  The tables, ablations, figures
   and the serve load generator are ischedc subcommands; end-to-end
   timings come from benchmark/run.py.

   Run with:  dune exec bench/main.exe *)

module Report = Isched_harness.Report
module Machine = Isched_ir.Machine

let () =
  let open Bechamel in
  let fig1 = Isched_harness.Worked_example.fig1_loop () in
  let prog = Isched_harness.Worked_example.fig2_program () in
  let graph = Isched_dfg.Dfg.build prog in
  let m4 = Machine.make ~issue:4 ~nfu:1 () in
  let small_profiles =
    List.map
      (fun p -> { p with Isched_perfect.Profile.n_generated = 2 })
      Isched_perfect.Profile.all
  in
  let sched_new = Isched_core.Sync_sched.run graph m4 in
  (* A 512-byte generated loop, near the scale-20 corpus mean of 506. *)
  let served_text =
    Isched_frontend.Ast.loop_to_string (Option.get (Isched_perfect.Suite.find_loop "ADM.G2"))
  in
  (* MDG.G58 of the scale-20 corpus (118 instructions): the elimination
     pass removes 6 of its waits. *)
  let elim_prog, elim_graph =
    Isched_perfect.Suite.(chunk_loops (List.hd (chunks ~scale:20 Isched_perfect.Profile.mdg)))
    |> List.find (fun (l : Isched_frontend.Ast.loop) -> l.Isched_frontend.Ast.name = "MDG.G58")
    |> Isched_harness.Pipeline.(prepare_uncached default_options)
    |> function
    | Isched_harness.Pipeline.Doacross { prog; graph; _ }
      when (Isched_sync.Elim.run prog graph).Isched_sync.Elim.eliminated <> [] -> (prog, graph)
    | _ -> failwith "stage-sync-elim: MDG.G58 no longer loses a wait"
  in
  let tests =
    [
      Test.make ~name:"tables-1-2-3-one-config"
        (Staged.stage (fun () ->
             ignore (Report.scaled_tables ~scale:1 small_profiles [ ("4-issue(#FU=1)", m4) ])));
      Test.make ~name:"table3-improvement-metric"
        (Staged.stage (fun () -> ignore (Report.improvement ~t_list:57790 ~t_new:47329)));
      Test.make ~name:"fig4-list-scheduling"
        (Staged.stage (fun () -> ignore (Isched_core.List_sched.run graph m4)));
      Test.make ~name:"fig4-new-scheduling"
        (Staged.stage (fun () -> ignore (Isched_core.Sync_sched.run graph m4)));
      Test.make ~name:"stage-frontend-parse"
        (Staged.stage (fun () ->
             ignore (Isched_frontend.Sema.parse_checked ~name:"request" served_text)));
      Test.make ~name:"stage-sync-elim"
        (Staged.stage (fun () -> ignore (Isched_sync.Elim.run elim_prog elim_graph)));
      Test.make ~name:"stage-dependence-analysis"
        (Staged.stage (fun () -> ignore (Isched_deps.Dep.analyze fig1)));
      Test.make ~name:"stage-codegen"
        (Staged.stage (fun () -> ignore (Isched_codegen.Codegen.compile fig1)));
      Test.make ~name:"stage-dfg-build"
        (Staged.stage (fun () -> ignore (Isched_dfg.Dfg.build prog)));
      Test.make ~name:"stage-timing-simulation"
        (Staged.stage (fun () -> ignore (Isched_sim.Timing.run sched_new)));
      Test.make ~name:"stage-value-simulation"
        (Staged.stage (fun () -> ignore (Isched_sim.Value.run sched_new)));
    ]
  in
  let test = Test.make_grouped ~name:"isched" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 256) () in
  let raw_results = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw_results in
  print_endline "Bechamel micro-benchmarks of the pipeline stages";
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "  %-40s %14.1f ns/run\n" name est
         | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
