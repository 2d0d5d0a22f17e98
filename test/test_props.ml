(* Cross-module property tests: random loops through the whole pipeline.

   The generator reuses the corpus machinery with randomized profile
   parameters, so the space covers tight recurrences, chains, LFD
   motifs, guards, reductions, induction variables and indirect
   subscripts. *)

module Ast = Isched_frontend.Ast
module Dfg = Isched_dfg.Dfg
module Machine = Isched_ir.Machine
module Schedule = Isched_core.Schedule
module Pipeline = Isched_harness.Pipeline

let qtest ?(count = 80) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* A random loop: seed + profile shape + trip count. *)
let gen_loop =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* base = oneofl Isched_perfect.Profile.all in
    let* n_iters = int_range 4 40 in
    let* noise = int_range 0 6 in
    let profile = { base with Isched_perfect.Profile.seed; n_generated = 1; noise_max = noise; n_iters } in
    match Isched_perfect.Genloop.generate profile with
    | [ l ] -> return l
    | _ -> assert false)

let gen_machine =
  QCheck2.Gen.(
    let* issue = int_range 1 8 in
    let* nfu = int_range 1 3 in
    let* pipelined = bool in
    return (Machine.make ~pipelined ~issue ~nfu ()))

let gen_loop_machine = QCheck2.Gen.pair gen_loop gen_machine

let prepare l = Pipeline.prepare l

let prop_compile_validates =
  qtest "pipeline: every random loop compiles to a valid program" gen_loop (fun l ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { prog; _ } ->
        Isched_ir.Program.validate prog;
        true)

let prop_schedules_legal =
  qtest "schedulers: legal on random loops and machines" gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let ok s = match Schedule.validate s graph with Ok () -> true | Error _ -> false in
        ok (Isched_core.List_sched.run graph m) && ok (Isched_core.Sync_sched.run graph m))

let prop_never_worse =
  qtest "new scheduler: never slower than list scheduling" gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross _ as p ->
        Pipeline.loop_time p m Pipeline.Sched_new
        <= Pipeline.loop_time p m Pipeline.Sched_list)

let prop_sync_conditions =
  qtest "schedules: sends after sources, waits before sinks" gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { prog; graph; _ } ->
        List.for_all
          (fun s ->
            Array.for_all
              (fun (si : Isched_ir.Program.signal_info) ->
                Schedule.position s si.Isched_ir.Program.send_instr
                > Schedule.position s si.Isched_ir.Program.src_instr)
              prog.Isched_ir.Program.signals
            && Array.for_all
                 (fun (w : Isched_ir.Program.wait_info) ->
                   Schedule.position s w.Isched_ir.Program.wait_instr
                   < Schedule.position s w.Isched_ir.Program.snk_instr)
                 prog.Isched_ir.Program.waits)
          [ Isched_core.List_sched.run graph m; Isched_core.Sync_sched.run graph m ])

let prop_value_correct =
  qtest ~count:40 "simulation: parallel execution matches the sequential reference"
    gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        List.for_all
          (fun s ->
            match Isched_check.Oracle.differential s with
            | Ok () -> true
            | Error _ -> false)
          [ Isched_core.List_sched.run graph m; Isched_core.Sync_sched.run graph m ])

let prop_timing_lower_bound =
  qtest "timing: simulated time is bounded below by the LBD theorem" gen_loop_machine
    (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        List.for_all
          (fun s ->
            (Isched_sim.Timing.run s).Isched_sim.Timing.finish
            >= Isched_core.Lbd_model.exact_time s)
          [ Isched_core.List_sched.run graph m; Isched_core.Sync_sched.run graph m ])

let prop_timing_exact_single_pair =
  qtest "timing: the theorem is exact for single-pair loops" gen_machine (fun m ->
      let l =
        Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 60\n A[I] = A[I-2] + E[I]\nENDDO"
      in
      match prepare l with
      | Pipeline.Doall _ -> false
      | Pipeline.Doacross { graph; _ } ->
        List.for_all
          (fun s ->
            (Isched_sim.Timing.run s).Isched_sim.Timing.finish
            = Isched_core.Lbd_model.exact_time s)
          [ Isched_core.List_sched.run graph m; Isched_core.Sync_sched.run graph m ])

let prop_compact_never_longer =
  qtest "compact: never lengthens a schedule" gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let s = Isched_core.List_sched.run graph m in
        let c = Schedule.compact s graph in
        c.Schedule.length <= s.Schedule.length
        && (match Schedule.validate c graph with Ok () -> true | Error _ -> false))

let prop_sync_elim_sound =
  qtest ~count:40 "elimination: reduced sync still executes correctly" gen_loop (fun l ->
      let options = { Pipeline.default_options with Pipeline.sync_elim = true } in
      match Pipeline.prepare ~options l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let m = Machine.make ~issue:4 ~nfu:1 () in
        List.for_all
          (fun s ->
            match Isched_check.Oracle.differential s with
            | Ok () -> true
            | Error _ -> false)
          [ Isched_core.List_sched.run graph m; Isched_core.Sync_sched.run graph m ])

let prop_migrate_sound =
  qtest ~count:40 "migration: reordered loops still execute correctly" gen_loop (fun l ->
      let options = { Pipeline.default_options with Pipeline.migrate = true } in
      match Pipeline.prepare ~options l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let m = Machine.make ~issue:2 ~nfu:1 () in
        List.for_all
          (fun s ->
            match Isched_check.Oracle.differential s with
            | Ok () -> true
            | Error _ -> false)
          [ Isched_core.List_sched.run graph m; Isched_core.Sync_sched.run graph m ])

let prop_restructure_preserves =
  qtest ~count:60 "restructure: semantics preserved on random loops" gen_loop (fun l ->
      match Isched_check.Oracle.check_restructure l (Isched_transform.Restructure.run l) with
      | Ok () -> true
      | Error _ -> false)

let prop_marker_legal_and_correct =
  qtest ~count:50 "marker scheduler: legal, sync-safe and between the baselines"
    gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { prog; graph; _ } ->
        let s = Isched_core.Marker_sched.run graph m in
        (match Schedule.validate s graph with Ok () -> true | Error _ -> false)
        && Array.for_all
             (fun (w : Isched_ir.Program.wait_info) ->
               Schedule.position s w.Isched_ir.Program.wait_instr
               < Schedule.position s w.Isched_ir.Program.snk_instr)
             prog.Isched_ir.Program.waits)

let prop_unroll_preserves_semantics =
  qtest ~count:50 "unroll: semantics preserved for every dividing factor" gen_loop (fun l ->
      List.for_all
        (fun factor ->
          let u = Isched_transform.Unroll.run l ~factor in
          Isched_exec.Memory.equal (Isched_exec.Ast_interp.run l) (Isched_exec.Ast_interp.run u))
        [ 2; 4 ])

let prop_unroll_pipeline_correct =
  qtest ~count:25 "unroll: the unrolled loop schedules and executes exactly" gen_loop (fun l ->
      let u = Isched_transform.Unroll.run l ~factor:2 in
      match prepare u with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let m = Machine.make ~issue:4 ~nfu:1 () in
        (match
           Isched_check.Oracle.differential (Isched_core.Sync_sched.run graph m)
         with
        | Ok () -> true
        | Error _ -> false))

let prop_spill_pipeline_correct =
  qtest ~count:25 "spill: rewritten programs schedule and execute exactly" gen_loop (fun l ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { prog; graph = _; _ } ->
        let r = Isched_codegen.Spill.insert prog ~k:6 in
        let p' = r.Isched_codegen.Spill.prog in
        let g' = Isched_dfg.Dfg.build p' in
        let m = Machine.make ~issue:4 ~nfu:1 () in
        List.for_all
          (fun s ->
            (match Schedule.validate s g' with Ok () -> true | Error _ -> false)
            &&
            match Isched_check.Oracle.differential s with
            | Ok () -> true
            | Error _ -> false)
          [ Isched_core.List_sched.run g' m; Isched_core.Sync_sched.run g' m ])

let prop_procs_monotone =
  qtest ~count:40 "timing: more processors never hurt" gen_loop (fun l ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let s = Isched_core.Sync_sched.run graph (Machine.make ~issue:4 ~nfu:1 ()) in
        let t np = (Isched_sim.Timing.run ~n_procs:np s).Isched_sim.Timing.finish in
        let t2 = t 2 and t5 = t 5 and tn = t 1000 in
        t2 >= t5 && t5 >= tn)

let prop_modulo_valid =
  qtest ~count:40 "modulo scheduling: valid with II at or above both bounds" gen_loop_machine
    (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { graph; _ } ->
        let ms = Isched_core.Modulo_sched.run graph m in
        ms.Isched_core.Modulo_sched.ii >= ms.Isched_core.Modulo_sched.res_mii
        && ms.Isched_core.Modulo_sched.ii >= ms.Isched_core.Modulo_sched.rec_mii
        && (match Isched_core.Modulo_sched.validate ms graph with Ok () -> true | Error _ -> false))

let prop_every_instruction_scheduled_once =
  qtest "schedules: a permutation of the body" gen_loop_machine (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { prog; graph; _ } ->
        let s = Isched_core.Sync_sched.run graph m in
        let n = Array.length prog.Isched_ir.Program.body in
        let seen = Array.make n false in
        Array.iter (Array.iter (fun i -> seen.(i) <- true)) s.Schedule.rows;
        Array.for_all (fun x -> x) seen
        && Array.length s.Schedule.cycle_of = n)

(* Large-loop stress: bigger bodies and longer trip counts through the
   whole pipeline, at a low count (these are the expensive cases). *)
let prop_stress_large =
  qtest ~count:10 "stress: large loops through the full pipeline"
    QCheck2.Gen.(pair (int_range 0 100000) (oneofl Isched_perfect.Profile.all))
    (fun (seed, base) ->
      let profile =
        { base with Isched_perfect.Profile.seed; n_generated = 1; noise_max = 24; n_iters = 200 }
      in
      match Isched_perfect.Genloop.generate profile with
      | [ l ] -> (
        match prepare l with
        | Pipeline.Doall _ -> true
        | Pipeline.Doacross { graph; _ } ->
          let m = Machine.make ~issue:4 ~nfu:2 () in
          let s = Isched_core.Sync_sched.run graph m in
          (match Schedule.validate s graph with Ok () -> true | Error _ -> false)
          && (Isched_sim.Timing.run s).Isched_sim.Timing.finish
             >= Isched_core.Lbd_model.exact_time s
          &&
          (* value-check one large case out of ten to bound the cost *)
          (seed mod 10 <> 0
          ||
          match Isched_check.Oracle.differential s with
          | Ok () -> true
          | Error _ -> false))
      | _ -> false)

let prop_all_schedulers_correct =
  qtest ~count:40 "pipeline: every exposed scheduler executes correctly" gen_loop_machine
    (fun (l, m) ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross _ as p ->
        List.for_all
          (fun which ->
            let s = Pipeline.schedule p m which in
            match Isched_check.Oracle.differential s with
            | Ok () -> true
            | Error _ -> false)
          Pipeline.all_schedulers)

let prop_tracing_inert =
  qtest ~count:40 "observability: tracing and counters never change results" gen_loop_machine
    (fun (l, m) ->
      let run () =
        match prepare l with
        | Pipeline.Doall _ -> None
        | Pipeline.Doacross _ as p ->
          Some
            (List.map
               (fun which -> (Pipeline.schedule p m which, Pipeline.loop_time p m which))
               Pipeline.all_schedulers)
      in
      let plain = run () in
      let traced =
        Fun.protect
          ~finally:(fun () ->
            Isched_obs.Span.set_enabled false;
            Isched_obs.Span.reset ();
            Isched_obs.Counters.set_enabled true)
          (fun () ->
            Isched_obs.Span.set_enabled true;
            run ())
      in
      let counters_off =
        Fun.protect
          ~finally:(fun () -> Isched_obs.Counters.set_enabled true)
          (fun () ->
            Isched_obs.Counters.set_enabled false;
            run ())
      in
      plain = traced && plain = counters_off)

let prop_dfg_matches_reference =
  qtest ~count:60 "dfg: arena CSR arcs equal the list-based reference builder" gen_loop
    (fun l ->
      match prepare l with
      | Pipeline.Doall _ -> true
      | Pipeline.Doacross { prog; graph; _ } ->
        let check sync_arcs =
          let g = if sync_arcs then graph else Dfg.build ~sync_arcs:false prog in
          let succs_ref, preds_ref = Dfg.build_reference ~sync_arcs prog in
          let n = Array.length prog.Isched_ir.Program.body in
          g.Dfg.n = n
          && Array.length succs_ref = n
          &&
          let ok = ref true in
          for i = 0 to n - 1 do
            (* Arc-for-arc, including row order: the schedulers'
               tie-breaking depends on it. *)
            if Dfg.succs_list g i <> succs_ref.(i) then ok := false;
            if Dfg.preds_list g i <> preds_ref.(i) then ok := false
          done;
          !ok
        in
        check true && check false)

let prop_provenance_inert =
  qtest ~count:40 "observability: provenance recording never changes schedules" gen_loop_machine
    (fun (l, m) ->
      let run () =
        match prepare l with
        | Pipeline.Doall _ -> None
        | Pipeline.Doacross _ as p ->
          Some
            (List.map
               (fun which ->
                 ((Pipeline.schedule p m which).Isched_core.Schedule.cycle_of, Pipeline.loop_time p m which))
               Pipeline.all_schedulers)
      in
      let plain = run () in
      let recorded =
        Fun.protect
          ~finally:(fun () ->
            Isched_obs.Provenance.set_enabled false;
            Isched_obs.Provenance.reset ())
          (fun () ->
            Isched_obs.Provenance.set_enabled true;
            run ())
      in
      plain = recorded)

let suite =
  [
    prop_compile_validates;
    prop_schedules_legal;
    prop_never_worse;
    prop_sync_conditions;
    prop_value_correct;
    prop_timing_lower_bound;
    prop_timing_exact_single_pair;
    prop_compact_never_longer;
    prop_sync_elim_sound;
    prop_migrate_sound;
    prop_restructure_preserves;
    prop_every_instruction_scheduled_once;
    prop_marker_legal_and_correct;
    prop_unroll_preserves_semantics;
    prop_unroll_pipeline_correct;
    prop_spill_pipeline_correct;
    prop_procs_monotone;
    prop_modulo_valid;
    prop_stress_large;
    prop_all_schedulers_correct;
    prop_tracing_inert;
    prop_dfg_matches_reference;
    prop_provenance_inert;
  ]
