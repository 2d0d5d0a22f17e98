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

let test_oracle_catches_stale_reads () =
  let p = compile fig1_src in
  let g0 = Dfg.build ~sync_arcs:false p in
  let s0 = Isched_core.List_sched.run g0 (Machine.make ~issue:4 ~nfu:1 ()) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  match Oracle.differential s0 with
  | Ok () -> Alcotest.fail "oracle accepted a stale-data schedule"
  | Error msgs ->
    Alcotest.(check bool) "stale reads named" true
      (List.exists (contains "stale read") msgs)

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
    ("pipeline: validate:true passes on valid schedules", `Quick, test_pipeline_validate_passes);
    ("oracle: reports a deadlock instead of raising", `Quick, test_oracle_reports_deadlock);
  ]
