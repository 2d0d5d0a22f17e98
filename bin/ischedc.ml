(* ischedc - compiler-explorer CLI for the DOACROSS instruction
   scheduling reproduction.

   Subcommands:
     compile   - parse, restructure, insert sync, emit three-address code
     deps      - print the dependence analysis of each loop
     dfg       - emit the data-flow graph (Graphviz dot)
     sched     - schedule with the list, marker and new schedulers; report times
     sim       - run the value-accurate simulation and the stale check
     check     - static checker + differential oracle (+ fault injection)
     asm       - DLX-flavoured assembly with physical registers
     viz       - ASCII/SVG execution wavefronts of a schedule
     explain   - where each sync pair's send and wait landed, and why
     example   - the paper's Figs. 1-4 worked example
     tables    - the paper's Tables 1-3 and categories (any corpus scale)
     ablations - the ablation, sweep and study tables
     serve     - scheduling-as-a-service daemon over a Unix socket
     top       - live monitor of a running daemon
     load      - Zipf closed-loop load generator against a running daemon *)

open Cmdliner
module Pipeline = Isched_harness.Pipeline

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Malformed source, a source with no loop included, is a user error:
   one line naming the file, exit 2. *)
let load_loops path =
  let name = Filename.remove_extension (Filename.basename path) in
  let fail m =
    Printf.eprintf "%s: %s\n%!" path m;
    exit 2
  in
  match Isched_frontend.Sema.parse_checked ~name (read_file path) with
  | Ok [] -> fail "source contains no loops"
  | Ok loops -> loops
  | Error m -> fail m

(* --- common flags --- *)

(* Observability: every subcommand accepts --trace FILE (Perfetto
   trace_event JSON of the whole run) and --counters (dump the counter
   registry on exit).  Both are wired through at_exit so they fire after
   the subcommand's normal output, whatever path it exits on. *)
let obs_term =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome/Perfetto trace_event JSON of this run to $(docv) \
                 (open at https://ui.perfetto.dev).")
  in
  let counters =
    Arg.(value & flag & info [ "counters" ]
           ~doc:"Print the observability counter registry (memo hits, scheduler runs, sync-span \
                 histograms, ...) when the command finishes.")
  in
  let setup trace counters =
    (match trace with
    | None -> ()
    | Some path ->
      Isched_obs.Span.set_enabled true;
      at_exit (fun () ->
          Isched_obs.Span.write_file path;
          Printf.eprintf "wrote %s\n%!" path));
    if counters then
      at_exit (fun () ->
          print_string "--- counters ---\n";
          print_string (Isched_obs.Counters.render ());
          flush stdout)
  in
  Term.(const setup $ trace $ counters)

(* A number with a lower bound; anything else is a usage error. *)
let at_least parse pp min =
  let parse s =
    match parse s with
    | Some v when v >= min -> Ok v
    | _ -> Error (`Msg (Format.asprintf "%S is not a number >= %a" s pp min))
  in
  Arg.conv (parse, pp)

let count_conv = at_least int_of_string_opt Format.pp_print_int 1

let jobs_arg =
  let doc =
    "Width of the domain pool that fans independent loops, chunks or table cells across cores; \
     1 means sequential."
  in
  Term.(
    const Isched_util.Pool.set_default_jobs
    $ Arg.(value & opt count_conv 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mini-Fortran source file.")

let restructure_flag =
  Arg.(value & flag & info [ "restructure"; "r" ] ~doc:"Apply the Parafrase-surrogate restructuring first.")

let issue_arg =
  Arg.(value & opt count_conv 4 & info [ "issue" ] ~docv:"N" ~doc:"Issue width (default 4).")

let nfu_arg =
  Arg.(value & opt count_conv 1 & info [ "nfu" ] ~docv:"N"
         ~doc:"Copies of each function unit (default 1).")

let machine_term =
  let make issue nfu = Isched_ir.Machine.make ~issue ~nfu () in
  Term.(const make $ issue_arg $ nfu_arg)

let unroll_arg =
  Arg.(value & opt count_conv 1 & info [ "unroll" ] ~docv:"U"
         ~doc:"Unroll the loop by U before compiling.")

let spill_arg =
  Arg.(value & opt (some count_conv) None & info [ "spill-k" ] ~docv:"K"
         ~doc:"Materialize spill code for a K-register file.")

let nprocs_arg =
  Arg.(value & opt (some count_conv) None & info [ "nprocs" ] ~docv:"P"
         ~doc:"Simulate with P processors (cyclic assignment) instead of one per iteration.")

let scheduler_arg =
  let which_conv =
    Arg.enum (List.map (fun w -> (Pipeline.scheduler_tag w, w)) Pipeline.all_schedulers)
  in
  Arg.(value & opt (some which_conv) None & info [ "scheduler" ] ~docv:"WHICH"
         ~doc:"Restrict to one scheduler: list, marker or new (default: compare all).")

let maybe_unroll factor l = if factor > 1 then Isched_transform.Unroll.run l ~factor else l

let maybe_spill k prog =
  match k with
  | None -> prog
  | Some k ->
    let r = Isched_codegen.Spill.insert prog ~k in
    if r.Isched_codegen.Spill.n_spill_ops > 0 then
      Format.printf "! spilled %d registers (%d memory operations added)@."
        (List.length r.Isched_codegen.Spill.spilled)
        r.Isched_codegen.Spill.n_spill_ops;
    r.Isched_codegen.Spill.prog

let maybe_restructure restructure l =
  if restructure then begin
    let r = Isched_transform.Restructure.run l in
    List.iter
      (fun a -> Format.printf "! %a@." Isched_transform.Restructure.pp_action a)
      r.Isched_transform.Restructure.actions;
    r.Isched_transform.Restructure.loop
  end
  else l

(* --- compile --- *)

let compile_cmd =
  let run () file restructure =
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        Format.printf "! loop %s@." l.Isched_frontend.Ast.name;
        if Isched_deps.Dep.is_doall l then
          Format.printf "! DOALL after restructuring - no synchronization needed@.";
        let plan = Isched_sync.Plan.build l in
        Isched_sync.Plan.pp_annotated Format.std_formatter l plan;
        let prog = Isched_codegen.Codegen.run l plan in
        print_string (Isched_ir.Program.to_string prog);
        print_newline ())
      (load_loops file)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Emit annotated source and three-address code.")
    Term.(const run $ obs_term $ file_arg $ restructure_flag)

(* --- deps --- *)

let deps_cmd =
  let run () file restructure =
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        Format.printf "loop %s (%s):@." l.Isched_frontend.Ast.name
          (Isched_transform.Doall.category_name (Isched_transform.Doall.categorize l));
        List.iter
          (fun d -> Format.printf "  %s@." (Isched_deps.Dep.to_string d))
          (Isched_deps.Dep.analyze l))
      (load_loops file)
  in
  Cmd.v
    (Cmd.info "deps" ~doc:"Print the dependence analysis of each loop.")
    Term.(const run $ obs_term $ file_arg $ restructure_flag)

(* --- dfg --- *)

let dfg_cmd =
  let run () file restructure =
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        let prog = Isched_codegen.Codegen.compile l in
        let g = Isched_dfg.Dfg.build prog in
        Isched_dfg.Dfg.pp_dot Format.std_formatter g)
      (load_loops file)
  in
  Cmd.v
    (Cmd.info "dfg" ~doc:"Emit the data-flow graph in Graphviz dot syntax.")
    Term.(const run $ obs_term $ file_arg $ restructure_flag)

(* --- sched --- *)

let sched_cmd =
  let run () file restructure machine wide unroll spill_k nprocs which =
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        let l = maybe_unroll unroll l in
        let prog = maybe_spill spill_k (Isched_codegen.Codegen.compile l) in
        let g = Isched_dfg.Dfg.build prog in
        let report name s =
          Format.printf "--- %s, %a ---@." name Isched_ir.Machine.pp machine;
          if wide then Isched_core.Schedule.pp_wide Format.std_formatter s
          else Isched_core.Schedule.pp Format.std_formatter s;
          let t = Isched_sim.Timing.run ?n_procs:nprocs s in
          Format.printf "cycles per iteration: %d; remaining LBD pairs: %d@." s.Isched_core.Schedule.length
            (Isched_core.Lbd_model.n_lbd s);
          Format.printf "parallel time over %d iterations%s: %d (analytic with full pool: %d)@.@."
            prog.Isched_ir.Program.n_iters
            (match nprocs with None -> "" | Some p -> Printf.sprintf " on %d processors" p)
            t.Isched_sim.Timing.finish
            (Isched_core.Lbd_model.exact_time s)
        in
        Format.printf "=== loop %s ===@." l.Isched_frontend.Ast.name;
        match which with
        | Some w -> report (Pipeline.scheduler_name w) (Pipeline.schedule_graph w g machine)
        | None ->
          List.iter
            (fun w -> report (Pipeline.scheduler_name w) (Pipeline.schedule_graph w g machine))
            Pipeline.all_schedulers)
      (load_loops file)
  in
  let wide =
    Arg.(value & flag & info [ "wide" ] ~doc:"Print full instruction texts instead of numbers.")
  in
  Cmd.v
    (Cmd.info "sched" ~doc:"Schedule each loop and report times (list, marker and new schedulers).")
    Term.(
      const run $ obs_term $ file_arg $ restructure_flag $ machine_term $ wide $ unroll_arg
      $ spill_arg $ nprocs_arg $ scheduler_arg)

(* --- sim --- *)

let sim_cmd =
  let run () file restructure machine =
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        let prog = Isched_codegen.Codegen.compile l in
        let g = Isched_dfg.Dfg.build prog in
        let s = Isched_core.Sync_sched.run g machine in
        (* The oracle fails any schedule on which the timing and value
           simulators disagree, so the timing engine's cycle stands for
           both. *)
        Format.printf "loop %s: finished in %d cycles; " l.Isched_frontend.Ast.name
          (Isched_sim.Timing.run s).Isched_sim.Timing.finish;
        match Isched_check.Oracle.differential s with
        | Ok () -> Format.printf "matches the sequential reference@."
        | Error msgs ->
          Format.printf "DIFFERS from the sequential reference:@.";
          List.iter (Format.printf "  %s@.") msgs)
      (load_loops file)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Value-accurate parallel simulation with the stale-data check.")
    Term.(const run $ obs_term $ file_arg $ restructure_flag $ machine_term)

(* --- asm --- *)

let asm_cmd =
  let run () file restructure machine unroll spill_k k scheduled which =
    let failed = ref false in
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        let l = maybe_unroll unroll l in
        let prog = maybe_spill spill_k (Isched_codegen.Codegen.compile l) in
        let result =
          if scheduled then begin
            let g = Isched_dfg.Dfg.build prog in
            let w = Option.value ~default:Pipeline.Sched_new which in
            Isched_codegen.Asm.emit_schedule ~k (Pipeline.schedule_graph w g machine)
          end
          else Isched_codegen.Asm.emit ~k prog
        in
        match result with
        | Ok text -> print_string text
        | Error e ->
          failed := true;
          Printf.eprintf "error: %s\n%!" e)
      (load_loops file);
    if !failed then exit 1
  in
  let k =
    Arg.(value & opt count_conv 16 & info [ "regs" ] ~docv:"K" ~doc:"Physical registers (default 16).")
  in
  let scheduled =
    Arg.(value & flag & info [ "scheduled" ] ~doc:"Emit the scheduled VLIW-style bundles instead of program order.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Emit DLX-flavoured assembly with physical registers.")
    Term.(
      const run $ obs_term $ file_arg $ restructure_flag $ machine_term $ unroll_arg $ spill_arg
      $ k $ scheduled $ scheduler_arg)

(* --- viz --- *)

let viz_cmd =
  let run () file restructure machine unroll nprocs which out =
    List.iter
      (fun l ->
        let l = maybe_restructure restructure l in
        let l = maybe_unroll unroll l in
        let prog = Isched_codegen.Codegen.compile l in
        let g = Isched_dfg.Dfg.build prog in
        let w = Option.value ~default:Pipeline.Sched_new which in
        let s = Pipeline.schedule_graph w g machine in
        print_string (Isched_sim.Viz.wavefront_ascii ?n_procs:nprocs s);
        match out with
        | None -> ()
        | Some prefix ->
          let write path contents =
            let oc = open_out path in
            Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
            Format.printf "wrote %s@." path
          in
          write
            (Printf.sprintf "%s-%s-wavefront.svg" prefix l.Isched_frontend.Ast.name)
            (Isched_sim.Viz.wavefront_svg ?n_procs:nprocs s);
          write
            (Printf.sprintf "%s-%s-schedule.svg" prefix l.Isched_frontend.Ast.name)
            (Isched_sim.Viz.schedule_svg s))
      (load_loops file)
  in
  let out =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"PREFIX"
           ~doc:"Also write PREFIX-<loop>-wavefront.svg and PREFIX-<loop>-schedule.svg.")
  in
  Cmd.v
    (Cmd.info "viz"
       ~doc:"Render the execution wavefront (ASCII, optionally SVG) of each loop's schedule.")
    Term.(
      const run $ obs_term $ file_arg $ restructure_flag $ machine_term $ unroll_arg $ nprocs_arg
      $ scheduler_arg $ out)

(* --- check --- *)

let check_cmd =
  let module Check = Isched_check.Oracle in
  let module Inject = Isched_check.Inject in
  (* One loop's report: built as data so the pool can fan loops across
     domains while the printed order stays the input order.  [uncached]
     skips the prepare memo — the streamed --scale path would otherwise
     grow the cache by the whole scaled corpus. *)
  let check_loop ?(uncached = false) options machine which inject (l : Isched_frontend.Ast.loop) =
    let name = l.Isched_frontend.Ast.name in
    let lines = ref [] in
    let fails = ref 0 in
    let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
    (match
       if uncached then Pipeline.prepare_uncached options l else Pipeline.prepare ~options l
     with
    | Pipeline.Doall _ -> add "DOALL after restructuring - no schedule to check"
    | Pipeline.Doacross { graph; _ } ->
      let scheds = match which with None -> Pipeline.all_schedulers | Some w -> [ w ] in
      List.iter
        (fun w ->
          let s = Pipeline.schedule_graph w graph machine in
          match Check.check_schedule ~graph s with
          | Ok () -> add "%s: ok (static + differential)" (Pipeline.scheduler_name w)
          | Error msgs ->
            incr fails;
            add "%s: INVALID" (Pipeline.scheduler_name w);
            List.iter (fun m -> add "  %s" m) msgs)
        scheds;
      (if which = None then
         let t = Isched_core.Modulo_sched.run graph machine in
         match Isched_core.Modulo_sched.validate t graph with
         | Ok () -> add "modulo scheduling: ok (II=%d)" t.Isched_core.Modulo_sched.ii
         | Error msg ->
           incr fails;
           add "modulo scheduling: INVALID - %s" msg);
      if inject then
        List.iter
          (fun w ->
            let s = Pipeline.schedule_graph w graph machine in
            List.iter
              (fun (o : Inject.outcome) ->
                if not o.Inject.injected then
                  add "[inject] %s under %s: no opportunity" (Inject.name o.Inject.fault)
                    (Pipeline.scheduler_name w)
                else begin
                  (* Name both sides of the experiment — the injected
                     fault class and the classes the checker reported —
                     so a missed injection (nothing reported) and a
                     miscaught one (only other classes reported) read
                     differently from the output alone. *)
                  let reported =
                    List.fold_left
                      (fun acc v ->
                        let c = Isched_check.Violation.class_name v in
                        if List.mem c acc then acc else acc @ [ c ])
                      [] o.Inject.violations
                  in
                  if o.Inject.detected then
                    add "[inject] injected %s under %s: detected as [%s] (%d violation(s))"
                      (Inject.name o.Inject.fault) (Pipeline.scheduler_name w)
                      (String.concat ", " reported)
                      (List.length o.Inject.violations)
                  else begin
                    incr fails;
                    add "[inject] injected %s under %s: MISSED - checker reported %s"
                      (Inject.name o.Inject.fault) (Pipeline.scheduler_name w)
                      (if reported = [] then "nothing"
                       else Printf.sprintf "only [%s]" (String.concat ", " reported))
                  end
                end)
              (Inject.campaign ~graph s))
          scheds);
    (name, List.rev !lines, !fails)
  in
  let run () () file corpus scale sync_elim machine which inject =
    let options = { Pipeline.default_options with Pipeline.sync_elim } in
    if scale > 1 then begin
      (* A scaled corpus is streamed (Suite.chunks), so it composes with
         --corpus only; a scale-N sweep is thousands of loops, so only
         the failing reports print, plus a one-line summary. *)
      if file <> None || not corpus then begin
        prerr_endline "ischedc check: --scale N with N > 1 requires --corpus (and no FILE)";
        exit 2
      end;
      let total_loops = ref 0 and total_fails = ref 0 and failed_loops = ref 0 in
      List.iter
        (fun p ->
          let chunks = Isched_perfect.Suite.chunks ~scale p in
          let reports =
            Isched_util.Pool.map
              (fun c ->
                List.map
                  (check_loop ~uncached:true options machine which inject)
                  (Isched_perfect.Suite.chunk_loops c))
              chunks
          in
          List.iter
            (List.iter (fun (name, lines, fails) ->
                 incr total_loops;
                 total_fails := !total_fails + fails;
                 if fails > 0 then begin
                   incr failed_loops;
                   Format.printf "=== loop %s ===@." name;
                   List.iter (fun s -> Format.printf "  %s@." s) lines
                 end))
            reports)
        (Isched_perfect.Suite.profiles ());
      if !total_fails > 0 then begin
        Format.printf "check: %d FAILURE(S) in %d of %d loop(s) at scale %d@." !total_fails
          !failed_loops !total_loops scale;
        exit 1
      end
      else Format.printf "check: all %d loop(s) clean at scale %d@." !total_loops scale
    end
    else begin
      let loops =
        (match file with Some f -> load_loops f | None -> [])
        @
        if corpus then Isched_perfect.Suite.all_loops () else []
      in
      if loops = [] then begin
        prerr_endline "ischedc check: nothing to check (give FILE and/or --corpus)";
        exit 2
      end;
      let reports = Isched_util.Pool.map (check_loop options machine which inject) loops in
      let total_fails =
        List.fold_left
          (fun acc (name, lines, fails) ->
            Format.printf "=== loop %s ===@." name;
            List.iter (fun s -> Format.printf "  %s@." s) lines;
            acc + fails)
          0 reports
      in
      if total_fails > 0 then begin
        Format.printf "check: %d FAILURE(S) over %d loop(s)@." total_fails (List.length loops);
        exit 1
      end
      else Format.printf "check: all %d loop(s) clean@." (List.length loops)
    end
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mini-Fortran source file.")
  in
  let corpus =
    Arg.(value & flag & info [ "corpus" ]
           ~doc:"Also check every loop of the five Perfect-surrogate seed corpora.")
  in
  let scale =
    Arg.(value & opt count_conv 1 & info [ "scale" ] ~docv:"N"
           ~doc:"Check an N-fold generated corpus (requires --corpus).  The stream is chunked \
                 and fanned across the job pool in bounded memory; only failing loops print, \
                 plus a summary line.")
  in
  let sync_elim =
    Arg.(value & flag & info [ "sync-elim" ]
           ~doc:"Run the redundant-synchronization elimination pass before scheduling, so every \
                 elimination is machine-checked against the static analyzer and the sequential \
                 value-simulation oracle.")
  in
  let inject =
    Arg.(value & flag & info [ "inject" ]
           ~doc:"Fault-injection mode: corrupt each schedule in every violation class (stale-data \
                 hoist, premature send, dropped dependence arc, FU/issue over-subscription) and \
                 fail unless the checker detects every one.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify schedule validity (sync conditions, dependence arcs, resources, LBD \
             accounting) and run the differential oracle against the sequential reference; \
             non-zero exit on any violation.")
    Term.(
      const run $ obs_term $ jobs_arg $ file $ corpus $ scale $ sync_elim $ machine_term
      $ scheduler_arg $ inject)

(* --- explain --- *)

let explain_cmd =
  let module Explain = Isched_harness.Explain in
  let run () file machine which fmt pair =
    let which = Option.value ~default:Pipeline.Sched_new which in
    let failed = ref false in
    List.iter
      (fun l ->
        match Explain.build ~which l machine with
        | Error msg ->
          failed := true;
          Printf.eprintf "ischedc explain: %s\n%!" msg
        | Ok t -> (
          (match pair with
          | Some p when not (List.exists (fun pt -> String.equal (Explain.pair_key pt) p) t.Explain.pairs) ->
            failed := true;
            Printf.eprintf "ischedc explain: loop %s has no pair %s (pairs: %s)\n%!" t.Explain.loop_name
              p
              (match t.Explain.pairs with
              | [] -> "none"
              | ps -> String.concat ", " (List.map Explain.pair_key ps))
          | _ -> ());
          match fmt with
          | `Ascii -> print_string (Explain.render_ascii ?pair t)
          | `Json -> print_string (Explain.render_json ?pair t)
          | `Svg ->
            print_string
              (Isched_sim.Viz.gantt_svg ~decisions:t.Explain.decisions t.Explain.schedule)))
      (load_loops file);
    if !failed then exit 1
  in
  let fmt =
    Arg.(
      value
      & vflag `Ascii
          [
            (`Ascii, info [ "ascii" ] ~doc:"Human-readable report (default).");
            ( `Json,
              info [ "json" ]
                ~doc:"One JSON document: header, per-pair traces, raw decision list." );
            ( `Svg,
              info [ "svg" ]
                ~doc:"SVG Gantt of the schedule with sync arcs overlaid and provenance tooltips."
            );
          ])
  in
  let pair =
    Arg.(
      value
      & opt (some string) None
      & info [ "pair" ] ~docv:"SRC:SNK"
          ~doc:
            "Trace one dependence only: the pair whose source statement is labelled SRC and \
             sink SNK (e.g. S3:S1).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain where each synchronization pair's send (i) and wait (j) landed and why: the \
          LBD contribution (n/d)(i-j)+l per pair, backed by the recorded scheduling-decision \
          chains (candidate sets, ready cycles, priorities, resource rejections, binding \
          sync-arcs).")
    Term.(const run $ obs_term $ file_arg $ machine_term $ scheduler_arg $ fmt $ pair)

(* --- serve --- *)

let serve_cmd =
  let module Server = Isched_serve.Server in
  let run () socket workers queue_capacity cache_capacity cache_stripes validate sync_elim slow_ms
      metrics_file metrics_interval =
    let config =
      {
        Server.socket_path = socket;
        workers;
        queue_capacity;
        cache_capacity;
        cache_stripes;
        validate;
        sync_elim;
        slow_ms;
        metrics_file;
        metrics_interval;
      }
    in
    let server =
      try Server.create config
      with Invalid_argument m ->
        prerr_endline ("ischedc serve: " ^ m);
        exit 2
    in
    Server.install_signal_handlers server;
    Server.run
      ~on_ready:(fun () ->
        Printf.printf "ischedc serve: listening on %s (%d workers, cache %d)\n%!" socket workers
          cache_capacity)
      server;
    Printf.printf "ischedc serve: drained after %d request(s)\n%!" (Server.requests_served server)
  in
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path to listen on (created, replacing a stale one; removed \
                 on shutdown).")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (default 4).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Accepted connections allowed to wait for a worker; beyond it new connections \
                 get a structured overloaded error instead of buffering without bound \
                 (default 64).")
  in
  let cache_capacity =
    Arg.(value & opt int 1024 & info [ "cache" ] ~docv:"N"
           ~doc:"Schedule cache capacity in entries, LRU-evicted (default 1024).")
  in
  let cache_stripes =
    Arg.(value & opt int 16 & info [ "cache-stripes" ] ~docv:"N"
           ~doc:"Lock stripes of the schedule cache (default 16).")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Re-check every served schedule (cache hits included) with the independent \
                 static analyzer before answering; a failing entry is evicted and reported, \
                 never served.")
  in
  let sync_elim =
    Arg.(value & flag & info [ "sync-elim" ]
           ~doc:"Default to the redundant-synchronization elimination pass for requests that \
                 do not carry a sync_elim member (the resolved setting is part of the \
                 schedule-cache key).")
  in
  let slow_ms =
    Arg.(value & opt float 100. & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Requests slower than $(docv) milliseconds (decode through socket write) are \
                 promoted to the retained slow-log visible in ischedc top and the stats \
                 request (default 100).")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"PATH"
           ~doc:"Periodically dump the Prometheus text exposition to $(docv) \
                 (write-temp-then-rename, safe to scrape at any moment).")
  in
  let metrics_interval =
    Arg.(value & opt float 5. & info [ "metrics-interval" ] ~docv:"S"
           ~doc:"Seconds between --metrics-file dumps (default 5).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the scheduling service: a daemon answering length-prefixed JSON requests \
             (schedule source text or named corpus loops, stats, metrics, ping) over a \
             Unix-domain socket, with a digest-keyed LRU schedule cache, bounded-queue \
             backpressure, per-request stage telemetry and graceful SIGTERM drain.  \
             Protocol: doc/serving.md.")
    Term.(
      const run $ obs_term $ socket $ workers $ queue $ cache_capacity $ cache_stripes $ validate
      $ sync_elim $ slow_ms $ metrics_file $ metrics_interval)

(* --- reading a daemon's stats reply (top, load) --- *)

let stat_member path v =
  List.fold_left (fun acc k -> Option.bind acc (Isched_obs.Json.member k)) (Some v) path

let stat path v = Option.value ~default:0. (Option.bind (stat_member path v) Isched_obs.Json.to_float)

(* Windowed hit ratio when the cache saw traffic this window, the
   since-boot counters otherwise (a freshly idle daemon still reports
   something meaningful). *)
let hit_ratio stats =
  if stat [ "cache_window"; "count" ] stats > 0. then
    1. -. stat [ "cache_window"; "flagged_ratio" ] stats
  else
    let h = stat [ "counters"; "serve.cache.hit" ] stats
    and m = stat [ "counters"; "serve.cache.miss" ] stats in
    if h +. m > 0. then h /. (h +. m) else 0.

(* --- top --- *)

let top_cmd =
  let module Client = Isched_serve.Client in
  let module Protocol = Isched_serve.Protocol in
  let module Json = Isched_obs.Json in
  let mem = stat_member and f = stat in
  let summary_json stats =
    let n path = Json.Num (f path stats) in
    let ms path = Json.Num (f path stats /. 1e6) in
    Json.Obj
      [
        ("requests", n [ "requests" ]);
        ("rps", n [ "window"; "rate" ]);
        ("p50_ms", ms [ "window"; "p50_ns" ]);
        ("p99_ms", ms [ "window"; "p99_ns" ]);
        ("p999_ms", ms [ "window"; "p999_ns" ]);
        ("error_rate", n [ "window"; "flagged_ratio" ]);
        ("window_count", n [ "window"; "count" ]);
        ("hit_ratio", Json.Num (hit_ratio stats));
        ("cache_entries", n [ "cache"; "entries" ]);
        ("cache_capacity", n [ "cache"; "capacity" ]);
        ("queue_depth", n [ "queue"; "depth" ]);
        ("queue_hwm", n [ "queue"; "hwm" ]);
        ("workers_busy", n [ "workers"; "busy" ]);
        ("workers_total", n [ "workers"; "total" ]);
        ( "sync_elim",
          Json.Obj
            [
              ("waits_removed", n [ "counters"; "sync.elim.waits_removed" ]);
              ("sends_removed", n [ "counters"; "sync.elim.sends_removed" ]);
            ] );
        ("slow", Option.value ~default:(Json.Arr []) (mem [ "slow"; "entries" ] stats));
      ]
  in
  let render_screen socket stats =
    let b = Buffer.create 1024 in
    let pct x = 100. *. x in
    Printf.bprintf b "ischedc top — %s\n\n" socket;
    Printf.bprintf b "requests  %-10.0f rps %8.1f    errors %5.2f%%\n" (f [ "requests" ] stats)
      (f [ "window"; "rate" ] stats)
      (pct (f [ "window"; "flagged_ratio" ] stats));
    Printf.bprintf b "window    p50 %8.3f ms   p99 %8.3f ms   p999 %8.3f ms   (n=%.0f / %.0f s)\n"
      (f [ "window"; "p50_ns" ] stats /. 1e6)
      (f [ "window"; "p99_ns" ] stats /. 1e6)
      (f [ "window"; "p999_ns" ] stats /. 1e6)
      (f [ "window"; "count" ] stats)
      (f [ "window"; "window_ns" ] stats /. 1e9);
    Printf.bprintf b "cache     hit %5.1f%%   entries %.0f/%.0f   probe p99 %.3f ms\n"
      (pct (hit_ratio stats))
      (f [ "cache"; "entries" ] stats)
      (f [ "cache"; "capacity" ] stats)
      (f [ "cache_window"; "p99_ns" ] stats /. 1e6);
    Printf.bprintf b "queue     depth %.0f/%.0f   hwm %.0f        workers %.0f/%.0f busy\n"
      (f [ "queue"; "depth" ] stats)
      (f [ "queue"; "capacity" ] stats)
      (f [ "queue"; "hwm" ] stats)
      (f [ "workers"; "busy" ] stats)
      (f [ "workers"; "total" ] stats);
    Printf.bprintf b "sync-elim waits_removed %.0f   sends_removed %.0f\n"
      (f [ "counters"; "sync.elim.waits_removed" ] stats)
      (f [ "counters"; "sync.elim.sends_removed" ] stats);
    let slow = Option.bind (mem [ "slow"; "entries" ] stats) Json.to_list in
    Printf.bprintf b "\nslow requests (>= %.0f ms): %d retained\n"
      (f [ "slow"; "threshold_ms" ] stats)
      (match slow with Some l -> List.length l | None -> 0);
    (match slow with
    | None | Some [] -> ()
    | Some entries ->
      List.iteri
        (fun i e ->
          if i < 8 then
            Printf.bprintf b "  id %-8.0f %9.3f ms  %-9s %-6s compute %.3f ms\n" (f [ "id" ] e)
              (f [ "total_ns" ] e /. 1e6)
              (Option.value ~default:"?" (Option.bind (Json.member "verdict" e) Json.to_str))
              (Option.value ~default:"" (Option.bind (Json.member "scheduler" e) Json.to_str))
              (f [ "stages"; "compute" ] e /. 1e6))
        entries);
    Buffer.contents b
  in
  let run () socket interval once json metrics =
    let fail msg =
      prerr_endline ("ischedc top: " ^ msg);
      exit 1
    in
    (match Client.with_connection socket (fun client ->
         let rec tick () =
           (if metrics then
              match Client.request client Protocol.Metrics with
              | Ok (Protocol.Metrics_reply e) -> print_string e
              | Ok (Protocol.Error { message; _ }) -> fail message
              | Ok _ -> fail "unexpected response to metrics"
              | Error m -> fail m
            else
              match Client.request client Protocol.Stats with
              | Ok (Protocol.Stats_reply stats) ->
                if json then print_endline (Json.to_string (summary_json stats))
                else begin
                  (* Home + clear: repaint in place without scrollback spam. *)
                  print_string "\027[H\027[2J";
                  print_string (render_screen socket stats)
                end
              | Ok (Protocol.Error { message; _ }) -> fail message
              | Ok _ -> fail "unexpected response to stats"
              | Error m -> fail m);
           flush stdout;
           if not once then begin
             Unix.sleepf interval;
             tick ()
           end
         in
         tick ())
     with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      fail (Printf.sprintf "cannot reach %s: %s" socket (Unix.error_message e)))
  in
  let socket =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
           ~doc:"Unix-domain socket of the daemon to watch.")
  in
  let interval =
    Arg.(value & opt float 2. & info [ "interval" ] ~docv:"S"
           ~doc:"Seconds between refreshes (default 2).")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Render one sample and exit (for scripting).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print one compact JSON summary per sample instead of the ANSI dashboard \
                 (combine with --once for scripting).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Print the raw Prometheus text exposition instead of the dashboard.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live monitor for a running ischedc serve daemon: req/s, windowed latency \
             quantiles, cache hit ratio, queue depth, worker utilisation, sync-elim counters \
             and the slow-request log, polled over the stats/metrics protocol verbs.")
    Term.(const run $ obs_term $ socket $ interval $ once $ json $ metrics)

(* --- example --- *)

let example_cmd =
  let run () () = print_string (Isched_harness.Worked_example.report ()) in
  Cmd.v
    (Cmd.info "example" ~doc:"Print the paper's Figs. 1-4 worked example.")
    Term.(const run $ obs_term $ const ())

(* --- tables --- *)

let sync_elim_flag =
  Arg.(value & flag & info [ "sync-elim" ]
         ~doc:"Run the redundant-synchronization elimination pass (lib/sync/elim) before \
               scheduling.")

let tables_cmd =
  let module Report = Isched_harness.Report in
  let run () () which scale sync_elim =
    let options = { Pipeline.default_options with Pipeline.sync_elim } in
    (* Table 1 and the categories need no timing runs. *)
    let configs =
      match which with `Table1 | `Categories -> [] | _ -> Isched_ir.Machine.paper_configs
    in
    let t1, ms, cats, sync_ops =
      Report.scaled_tables ~options ~scale (Isched_perfect.Suite.profiles ()) configs
    in
    let print = Isched_util.Table.print in
    match which with
    | `Table1 -> print t1
    | `Table2 -> print (Report.table2 ms)
    | `Table3 -> print (Report.table3 ms)
    | `Categories -> print cats
    | `All ->
      print t1;
      print (Report.table2 ms);
      print (Report.table3 ms);
      let two, four = Report.overall ms in
      Printf.printf "Overall enhancement: %.2f%% for 2-issue and %.2f%% for 4-issue\n" two four;
      Printf.printf "Send/Wait instructions across the generated programs: %d\n" sync_ops;
      print cats
  in
  let which =
    Arg.(value
         & opt
             (enum
                [
                  ("table1", `Table1); ("table2", `Table2); ("table3", `Table3);
                  ("categories", `Categories); ("all", `All);
                ])
             `All
         & info [ "which" ] ~docv:"WHICH"
             ~doc:"One of table1, table2, table3, categories, all.  $(b,all) also prints the \
                   overall 2-/4-issue enhancement and the Send/Wait instruction count.")
  in
  let scale =
    Arg.(value & opt count_conv 1 & info [ "scale" ] ~docv:"N"
           ~doc:"Tabulate the N-fold generated corpus (default 1, the corpus itself).  The \
                 corpus is streamed in chunks across the job pool, in bounded memory.")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables over the surrogate corpora.")
    Term.(const run $ obs_term $ jobs_arg $ which $ scale $ sync_elim_flag)

(* --- ablations --- *)

let ablations_cmd =
  let module Report = Isched_harness.Report in
  let module Suite = Isched_perfect.Suite in
  let benches = lazy (Suite.all ()) in
  let on f () = f (Lazy.force benches) in
  let tables =
    [
      ("order", on Report.ablation_order);
      ("migration", on Report.ablation_migration);
      ("sweep", fun () -> Report.sweep (Suite.profiles ()));
      ("markers", on Report.ablation_markers);
      ("sync-elim", on Report.ablation_sync_elim);
      ("unroll", Report.unroll_study);
      ("processors", on Report.processor_sweep);
      ("registers", on Report.register_study);
      ("architecture", on Report.architecture_comparison);
    ]
  in
  let run () () which =
    let chosen = if which = "all" then tables else [ (which, List.assoc which tables) ] in
    List.iter (fun (_, table) -> Isched_util.Table.print (table ())) chosen
  in
  let which =
    let names = List.map fst tables @ [ "all" ] in
    Arg.(value & opt (enum (List.map (fun w -> (w, w)) names)) "all" & info [ "which" ]
           ~docv:"WHICH" ~doc:("One of " ^ String.concat ", " names ^ "."))
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Print the ablation tables: A1 damage ordering, A3 migration, A4 machine sweep, A5 \
             marker-guided comparison, A6 redundant-sync elimination (over the corpora and the \
             elimination kernels), the unroll study, the processor sweep, the register study \
             and the software-pipelining comparison.")
    Term.(const run $ obs_term $ jobs_arg $ which)

(* --- load --- *)

let load_cmd =
  let module Client = Isched_serve.Client in
  let module Protocol = Isched_serve.Protocol in
  let module Prng = Isched_util.Prng in
  let module Hist = Isched_obs.Hist in
  let module Json = Isched_obs.Json in
  (* Zipf-skewed key popularity: rank r (0-based) drawn with probability
     proportional to 1/(r+1)^theta; theta 0 is uniform.  Precomputed CDF
     + binary search keeps the draw O(log n) off the request path. *)
  let zipf_cdf ~theta n =
    let c = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (i + 1) ** theta));
      c.(i) <- !acc
    done;
    c
  in
  let pick rng cdf =
    let n = Array.length cdf in
    let u = Prng.float rng *. cdf.(n - 1) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  (* The canonical response encoding starts with a fixed envelope, so
     hit/miss is a prefix check instead of parsing 400-byte JSON bodies
     off the timed path (the protocol suite pins the encoding these
     prefixes assume). *)
  let hit_prefix = "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": \"hit\"" in
  let miss_prefix = "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": \"miss\"" in
  (* One client domain: one connection, [quota] requests drawn from the
     shared popularity distribution with a private PRNG stream; the
     latencies land in a private hit and a private miss histogram. *)
  let worker ~socket ~names ~cdf ~seed ~quota =
    let rng = Prng.create seed in
    let hit = Array.make Hist.n_buckets 0 and miss = Array.make Hist.n_buckets 0 in
    let errors = ref 0 in
    let record h t0 =
      let b = Hist.index (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)) in
      h.(b) <- h.(b) + 1
    in
    Client.with_connection socket (fun c ->
        for _ = 1 to quota do
          let req = Protocol.schedule_request (Protocol.Corpus_loop names.(pick rng cdf)) in
          let t0 = Unix.gettimeofday () in
          match Client.request_raw c req with
          | Ok payload when String.starts_with ~prefix:hit_prefix payload -> record hit t0
          | Ok payload when String.starts_with ~prefix:miss_prefix payload -> record miss t0
          | Ok _ | Error _ -> incr errors
        done);
    (hit, miss, !errors)
  in
  let total h = Array.fold_left ( + ) 0 h in
  (* Quantiles are bucket upper bounds, within 25% of the exact order
     statistic. *)
  let us h p = float_of_int (Hist.quantile h p) /. 1e3 in
  let summarize name h =
    match total h with
    | 0 -> Printf.printf "  %-10s (no samples)\n" name
    | n ->
      Printf.printf "  %-10s n=%-8d p50=%8.1fus  p99=%8.1fus  p999=%8.1fus\n" name n (us h 0.50)
        (us h 0.99) (us h 0.999)
  in
  let latency_json h =
    let num i = Json.Num (float_of_int i) in
    Json.Obj
      [
        ("count", num (total h));
        ("p50_ns", num (Hist.quantile h 0.50));
        ("p99_ns", num (Hist.quantile h 0.99));
        ("p999_ns", num (Hist.quantile h 0.999));
      ]
  in
  let run () socket requests concurrency zipf json =
    let names =
      Array.of_list
        (List.map (fun (l : Isched_frontend.Ast.loop) -> l.name) (Isched_perfect.Suite.all_loops ()))
    in
    let cdf = zipf_cdf ~theta:zipf (Array.length names) in
    if not json then
      Printf.printf "%d requests, %d clients, %d corpus keys, zipf %.2f, daemon at %s\n%!" requests
        concurrency (Array.length names) zipf socket;
    let quota = requests / concurrency and extra = requests mod concurrency in
    let t0 = Unix.gettimeofday () in
    let results =
      List.init concurrency (fun i ->
          let quota = quota + if i < extra then 1 else 0 in
          Domain.spawn (fun () -> worker ~socket ~names ~cdf ~seed:(0x5eed0000 + i) ~quota))
      |> List.map (fun d ->
             try Domain.join d
             with Unix.Unix_error (e, _, _) ->
               prerr_endline
                 (Printf.sprintf "ischedc load: cannot reach %s: %s" socket (Unix.error_message e));
               exit 1)
    in
    let wall = Unix.gettimeofday () -. t0 in
    (* The daemon's own windowed view, read over the socket right after
       the run: what ischedc top renders, cross-checked below against
       the client-side samples of the very same run. *)
    let server =
      match Client.with_connection socket (fun c -> Client.request c Protocol.Stats) with
      | Ok (Protocol.Stats_reply stats) -> Some stats
      | Ok _ | Error _ | (exception (Unix.Unix_error _ | Failure _)) -> None
    in
    let errors = List.fold_left (fun a (_, _, e) -> a + e) 0 results in
    let merge pick =
      let m = Array.make Hist.n_buckets 0 in
      List.iter (fun r -> Array.iteri (fun i c -> m.(i) <- m.(i) + c) (pick r)) results;
      m
    in
    let hit = merge (fun (h, _, _) -> h) and miss = merge (fun (_, m, _) -> m) in
    let all = Array.map2 ( + ) hit miss in
    let rps = float_of_int requests /. wall in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("requests", Json.Num (float_of_int requests));
                ("concurrency", Json.Num (float_of_int concurrency));
                ("zipf", Json.Num zipf);
                ("wall_clock_seconds", Json.Num wall);
                ("throughput_rps", Json.Num rps);
                ("errors", Json.Num (float_of_int errors));
                ( "latency",
                  Json.Obj
                    [ ("all", latency_json all); ("hit", latency_json hit); ("miss", latency_json miss) ]
                );
                ( "server_window",
                  match server with
                  | None -> Json.Null
                  | Some stats ->
                    Json.Obj
                      [
                        ("count", Json.Num (stat [ "window"; "count" ] stats));
                        ("p50_ns", Json.Num (stat [ "window"; "p50_ns" ] stats));
                        ("p99_ns", Json.Num (stat [ "window"; "p99_ns" ] stats));
                        ("rate_rps", Json.Num (stat [ "window"; "rate" ] stats));
                        ("hit_ratio", Json.Num (hit_ratio stats));
                      ] );
              ]))
    else begin
      Printf.printf "replayed %d requests in %.2f s (%.0f req/s), %d error(s)\n" requests wall rps
        errors;
      summarize "all" all;
      summarize "warm(hit)" hit;
      summarize "cold(miss)" miss;
      if total hit > 0 && total miss > 0 then
        Printf.printf "  warm-cache p50 is %.1fx below the cold-path p50\n"
          (us miss 0.50 /. Float.max 1e-3 (us hit 0.50));
      match server with
      | None -> ()
      | Some stats ->
        let p50 = stat [ "window"; "p50_ns" ] stats /. 1e3 in
        Printf.printf
          "  server    n=%-8.0f p50=%8.1fus  p99=%8.1fus  rate=%7.0f req/s  hit=%5.1f%%\n"
          (stat [ "window"; "count" ] stats)
          p50
          (stat [ "window"; "p99_ns" ] stats /. 1e3)
          (stat [ "window"; "rate" ] stats)
          (100. *. hit_ratio stats);
        (* The daemon measures decode-to-write, the client adds the two
           socket hops — so the server p50 sits at or below the client
           p50, within the same order of magnitude (and its bucketed
           quantiles overshoot <= 25%). *)
        if total all > 0 && p50 > 0. then
          Printf.printf "  cross-check: server/client p50 ratio %.2f\n"
            (p50 /. Float.max 1e-3 (us all 0.50))
    end
  in
  let socket =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
           ~doc:"Unix-domain socket of the daemon to load (start one with ischedc serve).")
  in
  let requests =
    Arg.(value & opt count_conv 100_000 & info [ "requests" ] ~docv:"N"
           ~doc:"Total requests to replay (default 100000).")
  in
  let concurrency =
    Arg.(value & opt count_conv 8 & info [ "concurrency" ] ~docv:"C"
           ~doc:"Client domains, one connection each (default 8).")
  in
  let zipf =
    Arg.(value & opt (at_least float_of_string_opt Format.pp_print_float 0.) 1.0
         & info [ "zipf" ] ~docv:"S"
             ~doc:"Skew of the key popularity over the 75 corpus loops; 0 is uniform (default 1).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print one JSON object (errors, throughput_rps, latency.{all,hit,miss}.{count, \
                 p50_ns,p99_ns,p999_ns}, server_window) instead of the text summary.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Closed-loop load generator: C clients replay N schedule requests for Zipf-drawn \
             corpus loops against a running ischedc serve daemon, and report client-side \
             latency quantiles (all, cache hit, cache miss) next to the daemon's own window.")
    Term.(const run $ obs_term $ socket $ requests $ concurrency $ zipf $ json)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ischedc" ~version:"1.0.0"
      ~doc:"Synchronization-aware instruction scheduling for DOACROSS loops (IPPS'97 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            compile_cmd; deps_cmd; dfg_cmd; sched_cmd; sim_cmd; check_cmd; asm_cmd; viz_cmd;
            explain_cmd; example_cmd; tables_cmd; ablations_cmd; serve_cmd; top_cmd; load_cmd;
          ]))
