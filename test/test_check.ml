(* Tests for the independent schedule-validity checker: the static
   analyzer on known-good and deliberately corrupted schedules, the
   fault-injection campaign (the checker's own differential test), the
   value/reference oracle, and the pipeline's opt-in validation hook. *)

module Static = Isched_check.Static
module Violation = Isched_check.Violation
module Inject = Isched_check.Inject
module Oracle = Isched_check.Oracle
module Schedule = Isched_core.Schedule
module Dfg = Isched_dfg.Dfg
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Parser = Isched_frontend.Parser
module Pipeline = Isched_harness.Pipeline

let check = Alcotest.check
let compile src = Isched_codegen.Codegen.compile (Parser.parse_loop src)

let fig1_src =
  "DOACROSS I = 1, 100\n\
  \ S1: B[I] = A[I-2] + E[I+1]\n\
  \ S2: G[I-3] = A[I-1] * E[I+2]\n\
  \ S3: A[I] = B[I] + C[I+3]\n\
   ENDDO"

let machines =
  [
    Machine.make ~issue:2 ~nfu:1 ();
    Machine.make ~issue:4 ~nfu:2 ();
    Machine.make ~pipelined:false ~issue:4 ~nfu:2 ();
  ]

(* Every (scheduler, machine) schedule of [src], with the graph the
   scheduler consumed. *)
let schedules_of src =
  let p = compile src in
  let g = Dfg.build p in
  List.concat_map
    (fun m ->
      [
        ("list", Isched_core.List_sched.run g m, g);
        ("marker", Isched_core.Marker_sched.run g m, g);
        ("new", Isched_core.Sync_sched.run g m, g);
      ])
    machines

let fail_violations name vs =
  Alcotest.failf "%s: %s" name (Static.errors_to_string name vs)

(* --- static analyzer --- *)

let test_static_accepts_valid () =
  List.iter
    (fun (name, s, g) ->
      (match Static.check s with Ok () -> () | Error vs -> fail_violations name vs);
      match Static.check ~graph:g s with Ok () -> () | Error vs -> fail_violations name vs)
    (schedules_of fig1_src)

let test_static_malformed_rows () =
  let _, s, _ = List.hd (schedules_of fig1_src) in
  let truncated = { s with Schedule.rows = Array.sub s.Schedule.rows 0 1 } in
  match Static.check truncated with
  | Ok () -> Alcotest.fail "truncated rows accepted"
  | Error vs ->
    Alcotest.(check bool) "reported as malformed" true
      (List.exists (fun v -> Violation.class_name v = "malformed-schedule") vs)

let test_static_malformed_negative_cycle () =
  let _, s, _ = List.hd (schedules_of fig1_src) in
  let cycle_of = Array.copy s.Schedule.cycle_of in
  cycle_of.(0) <- -1;
  match Static.check { s with Schedule.cycle_of } with
  | Ok () -> Alcotest.fail "negative cycle accepted"
  | Error [ v ] ->
    (* shape violations are fatal: reported alone, later passes skipped *)
    check Alcotest.string "class" "malformed-schedule" (Violation.class_name v)
  | Error vs -> Alcotest.failf "expected one fatal violation, got %d" (List.length vs)

let test_static_catches_missing_sync_arcs () =
  (* The motivating bug: a scheduler fed a graph without the sync arcs
     reorders sync operations against the memory traffic they guard (on
     Fig. 1 the send hoists above its source store).  The checker
     re-derives both sync conditions from the program tables, so it
     catches this no matter which graph it is given — including the very
     graph that misled the scheduler. *)
  let p = compile fig1_src in
  let g0 = Dfg.build ~sync_arcs:false p in
  let s0 = Isched_core.List_sched.run g0 (Machine.make ~issue:4 ~nfu:1 ()) in
  match Static.check ~graph:g0 s0 with
  | Ok () -> Alcotest.fail "stale-data schedule accepted"
  | Error vs ->
    Alcotest.(check bool) "a sync condition violation reported" true
      (List.exists
         (fun v ->
           match Violation.class_name v with
           | "premature-send" | "hoisted-sink" -> true
           | _ -> false)
         vs)

(* --- fault injection --- *)

let test_inject_every_class_detected () =
  List.iter
    (fun (name, s, g) ->
      List.iter
        (fun fault ->
          match Inject.inject fault s with
          | None -> Alcotest.failf "%s: no opportunity for %s" name (Inject.name fault)
          | Some corrupted -> (
            match Static.check ~graph:g corrupted with
            | Ok () ->
              Alcotest.failf "%s: injected %s not detected" name (Inject.name fault)
            | Error vs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s detected as its own class" name (Inject.name fault))
                true
                (List.exists (Inject.detects fault) vs)))
        Inject.all)
    (schedules_of fig1_src)

let test_inject_never_mutates () =
  let _, s, _ = List.hd (schedules_of fig1_src) in
  let saved = Array.copy s.Schedule.cycle_of in
  List.iter (fun fault -> ignore (Inject.inject fault s)) Inject.all;
  check Alcotest.(array int) "original cycles untouched" saved s.Schedule.cycle_of

let test_campaign_corpus_sample () =
  (* First DOACROSS loop of each corpus, all three schedulers: every
     injected fault must be detected. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      match b.Isched_perfect.Suite.loops with
      | [] -> ()
      | l :: _ -> (
        match Pipeline.prepare l with
        | Pipeline.Doall _ -> ()
        | Pipeline.Doacross { graph; _ } ->
          List.iter
            (fun which ->
              let s =
                Pipeline.schedule (Pipeline.prepare l) (Machine.make ~issue:4 ~nfu:2 ()) which
              in
              List.iter
                (fun (o : Inject.outcome) ->
                  if o.Inject.injected && not o.Inject.detected then
                    Alcotest.failf "%s/%s: injected %s missed" l.Isched_frontend.Ast.name
                      (Pipeline.scheduler_name which)
                      (Inject.name o.Inject.fault))
                (Inject.campaign ~graph s))
            Pipeline.all_schedulers))
    (Isched_perfect.Suite.all ())

(* --- differential oracle --- *)

let test_oracle_accepts_valid () =
  List.iter
    (fun (name, s, g) ->
      (match Oracle.differential s with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "%s: %s" name (String.concat "; " msgs));
      match Oracle.check_schedule ~graph:g s with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "%s: %s" name (String.concat "; " msgs))
    (schedules_of fig1_src)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let test_oracle_catches_stale_reads () =
  let p = compile fig1_src in
  let g0 = Dfg.build ~sync_arcs:false p in
  let s0 = Isched_core.List_sched.run g0 (Machine.make ~issue:4 ~nfu:1 ()) in
  match Oracle.differential s0 with
  | Ok () -> Alcotest.fail "oracle accepted a stale-data schedule"
  | Error msgs ->
    Alcotest.(check bool) "stale reads named" true
      (List.exists (contains "stale read") msgs)

let test_oracle_names_corrupted_cells () =
  (* A stale-data hoist corrupts the final memory; the verdict names
     the differing cells, not just the fact. *)
  let g = Dfg.build (compile fig1_src) in
  let s = Isched_core.List_sched.run g (Machine.make ~issue:4 ~nfu:1 ()) in
  match Inject.inject Inject.Hoist_wait s with
  | None -> Alcotest.fail "no stale-data hoist opportunity on Fig. 1"
  | Some bad -> (
    match Oracle.differential bad with
    | Ok () -> Alcotest.fail "oracle accepted a stale-data hoist"
    | Error msgs ->
      Alcotest.(check bool) "memory difference reported" true
        (List.exists (contains "final memory differs") msgs);
      Alcotest.(check bool) "a corrupted cell of A named" true
        (List.exists (fun m -> contains "  A[" m) msgs))

let test_oracle_reports_deadlock () =
  (* A wait at distance 0 (which [Program.validate] rejects) issued
     before its own iteration's send: no processor ever gets past it.
     The value simulator finds this the first cycle nothing can run, and
     the oracle reports it instead of raising. *)
  let module I = Isched_ir.Instr in
  let p =
    {
      Program.name = "self-wait";
      body =
        [|
          I.Wait { wait = 0 };
          I.Store_scalar { name = "S"; src = Isched_ir.Operand.Imm 1 };
          I.Send { signal = 0 };
        |];
      signals = [| { Program.signal = 0; src_stmt = 0; src_instr = 1; send_instr = 2; label = "S1" } |];
      waits =
        [|
          {
            Program.wait = 0;
            signal = 0;
            distance = 0;
            snk_stmt = 0;
            snk_instr = 1;
            wait_instr = 0;
            kind = Program.Output;
            lexical = Program.LBD;
            array = "S";
          };
        |];
      mem = [| None; None; None |];
      stmt_of = [| 0; 0; 0 |];
      n_regs = 1;
      lo = 1;
      n_iters = 4;
      source_lines = 1;
    }
  in
  let s = Schedule.of_cycles p (Machine.make ~issue:4 ~nfu:1 ()) [| 0; 1; 2 |] in
  (match Isched_sim.Value.run s with
  | _ -> Alcotest.fail "expected Value.Deadlock"
  | exception Isched_sim.Value.Deadlock { cycle; iteration; wait; signal; posting_iteration; _ } ->
    check Alcotest.(list int) "cycle, iteration, wait, signal, poster" [ 1; 0; 0; 0; 0 ]
      [ cycle; iteration; wait; signal; posting_iteration ]);
  match Oracle.check_schedule s with
  | Ok () -> Alcotest.fail "oracle accepted a deadlocking schedule"
  | Error msgs ->
    Alcotest.(check bool) "deadlock reported" true
      (List.exists (fun m -> String.starts_with ~prefix:"Value.Deadlock: self-wait" m) msgs)

(* --- the shared sequential reference --- *)

module Readlog = Isched_exec.Readlog
module Value = Isched_sim.Value

let m41 = Machine.make ~issue:4 ~nfu:1 ()
let c_reference_runs = Isched_obs.Counters.counter "check.oracle.reference_runs"

let three_schedules g =
  [
    ("list", Isched_core.List_sched.run g m41);
    ("marker", Isched_core.Marker_sched.run g m41);
    ("new", Isched_core.Sync_sched.run g m41);
  ]

(* Each schedule followed by every fault injected into it. *)
let with_faults schedules =
  List.concat_map
    (fun (w, s) ->
      (w, s)
      :: List.filter_map
           (fun f -> Option.map (fun c -> (w ^ "+" ^ Inject.name f, c)) (Inject.inject f s))
           Inject.all)
    schedules

(* Every DOACROSS corpus loop as [ischedc check --corpus] prepares it. *)
let corpus_programs () =
  List.filter_map
    (fun l ->
      match Pipeline.prepare l with
      | Pipeline.Doall _ -> None
      | Pipeline.Doacross { prog; graph; _ } -> Some (prog, graph))
    (Isched_perfect.Suite.all_loops ())

let test_readlog_compare_corpus () =
  let mismatches = ref 0 in
  List.iter
    (fun (p, g) ->
      let reference = Readlog.create () in
      ignore (Isched_exec.Prog_interp.run ~log:reference p);
      let entries = Readlog.to_list reference in
      List.iter
        (fun (w, s) ->
          match Value.run s with
          | exception Value.Deadlock _ -> ()
          | v ->
            let expected =
              Readlog_ref.compare_logs ~reference:entries ~actual:(Readlog.to_list v.Value.log)
            in
            mismatches := !mismatches + List.length expected;
            if Readlog.compare_logs ~reference ~actual:v.Value.log <> expected then
              Alcotest.failf "%s %s: mismatch lists differ" p.Program.name w)
        (with_faults (three_schedules g)))
    (corpus_programs ());
  Alcotest.(check bool) "some fault caused stale reads" true (!mismatches > 0)

let verdict = Alcotest.(result unit (list string))

(* The verdict on [s] with a cold reference slot: whatever program the
   slot held before, this reference is computed afresh. *)
let evict =
  let other = compile "DOACROSS I = 1, 3\n A[I] = A[I-1]\nENDDO" in
  fun () -> ignore (Oracle.reference other)

let cold (s : Schedule.t) =
  evict ();
  Oracle.differential s

(* Valid schedules and failing ones (no sync arcs; a hoisted wait) of
   one program. *)
let oracle_cases p =
  let g = Dfg.build p in
  let unsynced = Isched_core.List_sched.run (Dfg.build ~sync_arcs:false p) m41 in
  let s = Isched_core.Sync_sched.run g m41 in
  [ s; Isched_core.List_sched.run g m41; unsynced; Option.get (Inject.inject Inject.Hoist_wait s) ]

let kernel_b = "DOACROSS I = 1, 50\n S1: A[I] = A[I-1] * E[I]\n S2: B[I] = A[I-2] + B[I-1]\nENDDO"

let test_reference_memo_interleaved () =
  let a = compile fig1_src and b = compile kernel_b in
  let ca = oracle_cases a and cb = oracle_cases b in
  let expected = List.map cold (ca @ cb @ ca) in
  evict ();
  let before = Isched_obs.Counters.value c_reference_runs in
  let got = List.map Oracle.differential (ca @ cb @ ca) in
  let runs = Isched_obs.Counters.value c_reference_runs - before in
  check (Alcotest.list verdict) "A, B, A verdicts" expected got;
  check Alcotest.int "one reference per run of one program" 3 runs;
  Alcotest.(check bool) "the failing cases fail" true
    (List.exists Result.is_error got && List.exists Result.is_ok got)

let test_reference_memo_identity () =
  let a = compile fig1_src in
  let s = Isched_core.Sync_sched.run (Dfg.build a) m41 in
  ignore (Oracle.differential s);
  (* Equal, but another program: the slot must not answer for it. *)
  let twin = { a with Program.name = a.Program.name } in
  Alcotest.(check bool) "structurally equal" true (twin = a);
  let before = Isched_obs.Counters.value c_reference_runs in
  let m, log = Oracle.reference twin in
  check Alcotest.int "a twin is a miss" 1 (Isched_obs.Counters.value c_reference_runs - before);
  let m', log' = Oracle.reference a in
  Alcotest.(check bool) "same reference memory" true (Isched_exec.Memory.equal m m');
  Alcotest.(check bool) "same reference log" true (Readlog.to_list log = Readlog.to_list log');
  (* A shorter run of the same body right after the full one: a stale
     hit would report the full run's memory. *)
  let short = { a with Program.n_iters = 7 } in
  let s_short = Schedule.of_cycles short m41 s.Schedule.cycle_of in
  let got = Oracle.differential s_short in
  check verdict "short twin" (cold s_short) got;
  check verdict "short twin passes" (Ok ()) got

let test_reference_memo_two_domains () =
  let cases = oracle_cases (compile fig1_src) @ oracle_cases (compile kernel_b) in
  let cases = cases @ List.rev cases @ cases in
  let expected = List.map cold cases in
  let run () = List.map Oracle.differential cases in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check (Alcotest.list verdict) "domain 1" expected r1;
  check (Alcotest.list verdict) "domain 2" expected r2

(* The reference is keyed on the program's physical identity, which is
   sound only if nothing writes a program after codegen: every
   scheduler, the oracle and the injection campaign leave the body and
   the sync tables as they found them, and schedule the very program
   they were given. *)
let test_program_never_written () =
  List.iter
    (fun (p, g) ->
      let body = p.Program.body and signals = p.Program.signals and waits = p.Program.waits in
      let copies = (Array.copy body, Array.copy signals, Array.copy waits) in
      let schedules = three_schedules g in
      ignore (Isched_core.Modulo_sched.run g m41);
      List.iter
        (fun (_, s) ->
          ignore (Oracle.check_schedule ~graph:g s);
          ignore (Inject.campaign ~graph:g s))
        schedules;
      List.iter
        (fun (w, s) ->
          if s.Schedule.prog != p then Alcotest.failf "%s %s: another program" p.Program.name w)
        (with_faults schedules);
      if (body, signals, waits) <> copies then Alcotest.failf "%s: program written" p.Program.name;
      Alcotest.(check bool) "same arrays" true
        (p.Program.body == body && p.Program.signals == signals && p.Program.waits == waits))
    (corpus_programs ())

(* --- the oracle's own cost --- *)

(* A stride of 10^5 touches 200 cells spread over 10^7 indices: the
   store keeps them without a window spanning that range, so the major
   heap grows by far less than one column of it would take. *)
let test_oracle_sparse_subscript () =
  let p =
    compile
      "DOACROSS I = 1, 100\n\
      \ S1: A[100000*I] = B[100000*I-100000] + E[I]\n\
      \ S2: B[100000*I] = A[100000*I] * 2\n\
       ENDDO"
  in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let runs = List.map (fun (w, s) -> (w, Value.run s, Oracle.differential s)) (three_schedules (Dfg.build p)) in
  let grown = ((Gc.quick_stat ()).Gc.heap_words - before) * (Sys.word_size / 8) in
  List.iter
    (fun (w, (v : Value.result), verdict) ->
      check Alcotest.int (w ^ ": A and B written") 200
        (List.length (Isched_exec.Memory.written_cells v.Value.memory));
      match verdict with Ok () -> () | Error ms -> Alcotest.failf "%s: %s" w (String.concat "; " ms))
    runs;
  if grown >= 4 lsl 20 then Alcotest.failf "the major heap grew by %d bytes" grown

(* Minor words per executed instruction over the check corpus (list,
   marker and new schedules on 4-issue #FU=1), for the value simulator
   and for the sequential reference. *)
let test_oracle_allocation () =
  let programs = corpus_programs () in
  let schedules = List.concat_map (fun (_, g) -> List.map snd (three_schedules g)) programs in
  let executed (p : Program.t) = p.Program.n_iters * Array.length p.Program.body in
  let per_instruction what progs f =
    let n = List.fold_left (fun n p -> n + executed p) 0 progs in
    let w0 = Gc.minor_words () in
    f ();
    let words = (Gc.minor_words () -. w0) /. float_of_int n in
    if words > 4. then Alcotest.failf "%s: %.2f minor words per executed instruction" what words
  in
  per_instruction "Value.run"
    (List.map (fun (s : Schedule.t) -> s.Schedule.prog) schedules)
    (fun () -> List.iter (fun s -> ignore (Value.run s)) schedules);
  (* Another program first, so that every reference below is computed. *)
  ignore (Oracle.reference (compile "DO I = 1, 2\n A[I] = 1\nENDDO"));
  per_instruction "Oracle.reference" (List.map fst programs) (fun () ->
      List.iter (fun (p, _) -> ignore (Oracle.reference p)) programs)

(* --- pipeline hook --- *)

let test_pipeline_validate_passes () =
  let l = Parser.parse_loop fig1_src in
  match Pipeline.prepare l with
  | Pipeline.Doall _ -> Alcotest.fail "fig1 is DOACROSS"
  | Pipeline.Doacross _ as prepared ->
    List.iter
      (fun which ->
        List.iter
          (fun m ->
            let s = Pipeline.schedule ~validate:true prepared m which in
            Alcotest.(check bool) "non-empty schedule" true (s.Schedule.length > 0);
            Alcotest.(check bool) "loop_time positive" true
              (Pipeline.loop_time ~validate:true prepared m which > 0))
          machines)
      Pipeline.all_schedulers

let suite =
  [
    ("static: accepts all schedulers' output on Fig. 1", `Quick, test_static_accepts_valid);
    ("static: truncated rows are malformed", `Quick, test_static_malformed_rows);
    ("static: negative cycle is fatal and alone", `Quick, test_static_malformed_negative_cycle);
    ("static: catches scheduling without the sync arcs", `Quick,
      test_static_catches_missing_sync_arcs);
    ("inject: every fault class detected on Fig. 1", `Quick, test_inject_every_class_detected);
    ("inject: never mutates the input schedule", `Quick, test_inject_never_mutates);
    ("inject: campaign clean over corpus sample", `Slow, test_campaign_corpus_sample);
    ("oracle: accepts all schedulers' output on Fig. 1", `Quick, test_oracle_accepts_valid);
    ("oracle: catches stale reads", `Quick, test_oracle_catches_stale_reads);
    ("oracle: names the corrupted cells of a stale-data hoist", `Quick,
      test_oracle_names_corrupted_cells);
    ("pipeline: validate:true passes on valid schedules", `Quick, test_pipeline_validate_passes);
    ("oracle: reports a deadlock instead of raising", `Quick, test_oracle_reports_deadlock);
    ("readlog: compare matches the hash-table reference on the corpus", `Slow,
      test_readlog_compare_corpus);
    ("oracle: reference memo, programs A, B, A", `Quick, test_reference_memo_interleaved);
    ("oracle: reference memo keys on identity", `Quick, test_reference_memo_identity);
    ("oracle: reference memo from two domains", `Quick, test_reference_memo_two_domains);
    ("oracle: programs are never written after codegen", `Slow, test_program_never_written);
    ("oracle: a sparse subscript stays in bounded memory", `Quick, test_oracle_sparse_subscript);
    ("oracle: allocation per executed instruction on the check corpus", `Slow,
      test_oracle_allocation);
  ]
