(* Tests for the resource table, schedule legality, the list-scheduling
   baseline and the paper's new synchronization-aware scheduler
   (Fig. 4 and the "never degrades" claim). *)

module Resource = Isched_core.Resource
module Schedule = Isched_core.Schedule
module List_sched = Isched_core.List_sched
module Sync_sched = Isched_core.Sync_sched
module Lbd_model = Isched_core.Lbd_model
module Dfg = Isched_dfg.Dfg
module Machine = Isched_ir.Machine
module Instr = Isched_ir.Instr
module Operand = Isched_ir.Operand
module Program = Isched_ir.Program
module Parser = Isched_frontend.Parser

let check = Alcotest.check
let compile src = Isched_codegen.Codegen.compile (Parser.parse_loop src)

let fig1 =
  "DOACROSS I = 1, 100\n\
  \ S1: B[I] = A[I-2] + E[I+1]\n\
  \ S2: G[I-3] = A[I-1] * E[I+2]\n\
  \ S3: A[I] = B[I] + C[I+3]\n\
   ENDDO"

let m4 = Machine.make ~issue:4 ~nfu:1 ()

let expect_ok g s =
  match Schedule.validate s g with Ok () -> () | Error e -> Alcotest.failf "illegal schedule: %s" e

(* --- Resource --- *)

let add = Instr.Bin { op = Instr.Add; dst = 0; a = Operand.Ivar; b = Operand.Imm 1 }
let mul = Instr.Bin { op = Instr.FMul; dst = 1; a = Operand.Reg 0; b = Operand.Reg 0 }
let wait_i = Instr.Wait { wait = 0 }

let test_resource_issue_width () =
  let r = Resource.create (Machine.make ~issue:2 ~nfu:2 ()) in
  Alcotest.(check bool) "slot 1" true (Resource.fits r ~cycle:0 add);
  Resource.reserve r ~cycle:0 add;
  Resource.reserve r ~cycle:0 wait_i;
  Alcotest.(check bool) "width exhausted" false (Resource.fits r ~cycle:0 add);
  Alcotest.(check bool) "next cycle free" true (Resource.fits r ~cycle:1 add)

let test_resource_fu_conflict () =
  let r = Resource.create (Machine.make ~issue:4 ~nfu:1 ()) in
  Resource.reserve r ~cycle:0 add;
  Alcotest.(check bool) "adder busy" false (Resource.fits r ~cycle:0 add);
  Alcotest.(check bool) "multiplier free" true (Resource.fits r ~cycle:0 mul)

let test_resource_nonpipelined_mul () =
  let r = Resource.create (Machine.make ~issue:4 ~nfu:1 ()) in
  Resource.reserve r ~cycle:0 mul;
  (* A non-pipelined multiplier stays busy for its 3-cycle latency. *)
  Alcotest.(check bool) "busy at 1" false (Resource.fits r ~cycle:1 mul);
  Alcotest.(check bool) "busy at 2" false (Resource.fits r ~cycle:2 mul);
  Alcotest.(check bool) "free at 3" true (Resource.fits r ~cycle:3 mul)

let test_resource_pipelined_mul () =
  let r = Resource.create (Machine.make ~pipelined:true ~issue:4 ~nfu:1 ()) in
  Resource.reserve r ~cycle:0 mul;
  Alcotest.(check bool) "pipelined accepts next cycle" true (Resource.fits r ~cycle:1 mul)

let test_resource_sync_needs_no_fu () =
  let r = Resource.create (Machine.make ~issue:2 ~nfu:1 ()) in
  Resource.reserve r ~cycle:0 add;
  Alcotest.(check bool) "wait beside the add" true (Resource.fits r ~cycle:0 wait_i)

let test_resource_first_fit () =
  let r = Resource.create (Machine.make ~issue:1 ~nfu:1 ()) in
  Resource.reserve r ~cycle:0 add;
  Resource.reserve r ~cycle:1 add;
  check Alcotest.int "lands at 2" 2 (Resource.first_fit r ~from:0 add)

let test_resource_reserve_checks () =
  let r = Resource.create (Machine.make ~issue:1 ~nfu:1 ()) in
  Resource.reserve r ~cycle:0 add;
  Alcotest.(check bool) "double reserve raises" true
    (try
       Resource.reserve r ~cycle:0 add;
       false
     with Invalid_argument _ -> true)

let test_resource_rejects_zero_fu () =
  (* An instruction needing a unit with zero copies can never fit;
     instead of letting first_fit spin forever, the degenerate machine
     is rejected at table creation. *)
  let m = Machine.with_fu (Machine.make ~issue:2 ~nfu:1 ()) Isched_ir.Fu.Multiplier 0 in
  Alcotest.(check bool) "create validates the machine" true
    (try
       ignore (Resource.create m);
       false
     with Invalid_argument _ -> true)

let test_resource_first_fit_far_start () =
  (* Starting past every reservation must land on the start cycle, not
     scan or raise: all cycles beyond the table horizon are free. *)
  let r = Resource.create (Machine.make ~issue:1 ~nfu:1 ()) in
  check Alcotest.int "empty tables" 500 (Resource.first_fit r ~from:500 add);
  Resource.reserve r ~cycle:0 add;
  check Alcotest.int "past the horizon" 500 (Resource.first_fit r ~from:500 add)

let test_resource_matches_hashtbl_oracle () =
  (* Oracle: the pre-overhaul Hashtbl reservation tables.  Drive both
     models with one random placement stream and require identical fits
     answers, first-fit landing sites and occupancy evolution. *)
  let m = Machine.make ~issue:2 ~nfu:1 () in
  let issue_used : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let fu_used : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let ref_fits ~cycle i =
    cycle >= 0
    && get issue_used cycle < m.Machine.issue_width
    &&
    match Instr.fu i with
    | None -> true
    | Some kind ->
      let k = Isched_ir.Fu.index kind in
      let avail = Machine.fu_count m kind in
      let ok = ref true in
      for c = cycle to cycle + Isched_ir.Fu.latency kind - 1 do
        if get fu_used (k, c) >= avail then ok := false
      done;
      !ok
  in
  let ref_reserve ~cycle i =
    Hashtbl.replace issue_used cycle (get issue_used cycle + 1);
    match Instr.fu i with
    | None -> ()
    | Some kind ->
      let k = Isched_ir.Fu.index kind in
      for c = cycle to cycle + Isched_ir.Fu.latency kind - 1 do
        Hashtbl.replace fu_used (k, c) (get fu_used (k, c) + 1)
      done
  in
  let r = Resource.create m in
  let rng = Isched_util.Prng.create 123 in
  for step = 1 to 300 do
    let i = Isched_util.Prng.choose rng [| add; mul; wait_i |] in
    let probe = Isched_util.Prng.int rng 40 in
    Alcotest.(check bool)
      (Printf.sprintf "step %d: fits agree at %d" step probe)
      (ref_fits ~cycle:probe i) (Resource.fits r ~cycle:probe i);
    let from = Isched_util.Prng.int rng 40 in
    let c = Resource.first_fit r ~from i in
    let expected = ref from in
    while not (ref_fits ~cycle:!expected i) do
      incr expected
    done;
    check Alcotest.int (Printf.sprintf "step %d: first_fit from %d" step from) !expected c;
    Resource.reserve r ~cycle:c i;
    ref_reserve ~cycle:c i
  done

(* --- Schedule --- *)

let test_schedule_of_cycles () =
  let p = compile "DO I = 1, 4\n A[I] = E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  let cycles = Array.init n (fun i -> i) in
  let s = Schedule.of_cycles p m4 cycles in
  check Alcotest.int "length" n s.Schedule.length;
  check Alcotest.int "position is 1-based" 1 (Schedule.position s 0)

let test_schedule_rejects_unscheduled () =
  let p = compile "DO I = 1, 4\n A[I] = E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  let cycles = Array.make n (-1) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Schedule.of_cycles p m4 cycles);
       false
     with Invalid_argument _ -> true)

let test_validate_catches_latency () =
  let p = compile "DO I = 1, 4\n A[I] = E[I] * C[I]\nENDDO" in
  let g = Dfg.build p in
  (* Serial order, one per cycle: violates the multiplier's 3-cycle
     latency into the store. *)
  let n = Array.length p.Program.body in
  let s = Schedule.of_cycles p m4 (Array.init n (fun i -> i)) in
  Alcotest.(check bool) "latency violation caught" true
    (match Schedule.validate s g with
    | Error _ -> true
    | Ok () -> false)

let test_validate_catches_width () =
  let p = compile "DO I = 1, 4\n A[I] = E[I]\nENDDO" in
  let g = Dfg.build p in
  let n = Array.length p.Program.body in
  let s = Schedule.of_cycles p (Machine.make ~issue:2 ~nfu:4 ()) (Array.make n 0) in
  Alcotest.(check bool) "width violation caught" true
    (match Schedule.validate s g with Error _ -> true | Ok () -> false)

let test_compact_removes_empty_rows () =
  let p = compile "DO I = 1, 4\n A[I] = E[I]\nENDDO" in
  let g = Dfg.build p in
  let n = Array.length p.Program.body in
  (* every instruction 3 cycles apart: plenty of removable empties *)
  let s = Schedule.of_cycles p m4 (Array.init n (fun i -> 3 * i)) in
  expect_ok g s;
  let c = Schedule.compact s g in
  expect_ok g c;
  Alcotest.(check bool) "shorter" true (c.Schedule.length < s.Schedule.length)

let test_compact_keeps_latency_gaps () =
  let p = compile "DO I = 1, 4\n A[I] = E[I] / 2\nENDDO" in
  let g = Dfg.build p in
  let s = Sync_sched.run g (Machine.make ~issue:4 ~nfu:1 ()) in
  expect_ok g s;
  (* compact already ran inside Sync_sched; run again: must stay legal *)
  let c = Schedule.compact s g in
  expect_ok g c

(* --- list scheduling --- *)

let test_list_legal_fig1 () =
  let g = Dfg.build (compile fig1) in
  expect_ok g (List_sched.run g m4)

let test_list_fig4a_shape () =
  (* Fig. 4(a): both waits hoist early, the send lands last; two LBDs. *)
  let g = Dfg.build (compile fig1) in
  let s = List_sched.run g m4 in
  check Alcotest.int "both pairs stay LBD" 2 (Lbd_model.n_lbd s);
  check Alcotest.int "12 rows like the paper" 12 s.Schedule.length;
  let p = g.Dfg.prog in
  let send = p.Program.signals.(0).Program.send_instr in
  Alcotest.(check bool) "send in the last row" true
    (Schedule.position s send >= s.Schedule.length - 1);
  Alcotest.(check bool) "wait for d=2 in the first row" true
    (Schedule.position s p.Program.waits.(0).Program.wait_instr = 1)

let test_list_time_fig4a () =
  (* Paper: parallel time 12N + 13.  Our split add gives span 11 over 12
     rows: (n-1)/1 * (11+1) + 12 = 1200 for n = 100. *)
  let g = Dfg.build (compile fig1) in
  let s = List_sched.run g m4 in
  check Alcotest.int "exact analytic" 1200 (Lbd_model.exact_time s);
  check Alcotest.int "simulator agrees" 1200 (Isched_sim.Timing.run s).Isched_sim.Timing.finish

(* --- new scheduler --- *)

let test_new_legal_fig1 () =
  let g = Dfg.build (compile fig1) in
  expect_ok g (Sync_sched.run g m4)

let test_new_fig4b_shape () =
  let g = Dfg.build (compile fig1) in
  let s = Sync_sched.run g m4 in
  check Alcotest.int "only one LBD remains" 1 (Lbd_model.n_lbd s);
  (* the sync path is contiguous up to the one unavoidable ld/st stall *)
  let reports = Lbd_model.pairs s in
  let lbd = List.find (fun r -> r.Lbd_model.is_lbd) reports in
  check Alcotest.int "it is the d=2 pair" 2 lbd.Lbd_model.distance;
  Alcotest.(check bool) "span is the path length" true
    (lbd.Lbd_model.send_pos - lbd.Lbd_model.wait_pos <= 8);
  let lfd = List.find (fun r -> not r.Lbd_model.is_lbd) reports in
  Alcotest.(check bool) "the d=1 pair converted" true
    (lfd.Lbd_model.send_pos < lfd.Lbd_model.wait_pos)

let test_new_beats_list_fig4 () =
  let g = Dfg.build (compile fig1) in
  let ta = (Isched_sim.Timing.run (List_sched.run g m4)).Isched_sim.Timing.finish in
  let tb = (Isched_sim.Timing.run (Sync_sched.run g m4)).Isched_sim.Timing.finish in
  Alcotest.(check bool) "better than half" true (tb * 2 < ta)

let test_new_converts_all_convertible () =
  (* Consumer-only loop: every pair must become LFD and the time is one
     pipeline fill, not n * span. *)
  let g =
    Dfg.build
      (compile
         "DOACROSS I = 1, 100\n\
         \ S1: O1[I] = A[I-1] * E[I]\n\
         \ S2: O2[I] = A[I-2] + C[I]\n\
         \ S3: A[I] = E[I+1] + C[I-1]\n\
          ENDDO")
  in
  let s = Sync_sched.run g m4 in
  check Alcotest.int "no LBD left" 0 (Lbd_model.n_lbd s);
  let t = (Isched_sim.Timing.run s).Isched_sim.Timing.finish in
  Alcotest.(check bool) "costs about one iteration" true (t <= 2 * s.Schedule.length + 100)

let test_new_sig_wat_cross_component () =
  (* Anti dependence with the send in a Sig graph and the wait in a Wat
     graph: the send must still precede the wait. *)
  let g = Dfg.build (compile "DOACROSS I = 1, 10\n S1: B[I-1] = A[I+1]\n S2: A[I] = E[I-2]\nENDDO") in
  let s = Sync_sched.run g m4 in
  check Alcotest.int "converted" 0 (Lbd_model.n_lbd s)

let test_new_handles_self_recurrence () =
  let g = Dfg.build (compile "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO") in
  let s = Sync_sched.run g m4 in
  expect_ok g s;
  check Alcotest.int "one unavoidable LBD" 1 (Lbd_model.n_lbd s)

let test_new_multiple_paths_grouped () =
  (* Two recurrences with different damage: both scheduled, legal, and
     the total time bounded by the worse one. *)
  let g =
    Dfg.build
      (compile
         "DOACROSS I = 1, 100\n\
         \ S1: A[I] = A[I-1] + E[I]\n\
         \ S2: B[I] = B[I-4] * C[I] + A[I]\n\
          ENDDO")
  in
  let s = Sync_sched.run g m4 in
  expect_ok g s;
  check Alcotest.int "two LBDs" 2 (Lbd_model.n_lbd s)

let test_new_order_paths_flag () =
  let g = Dfg.build (compile fig1) in
  let s1 = Sync_sched.run ~options:{ Sync_sched.order_paths = false } g m4 in
  expect_ok g s1;
  let s2 = Sync_sched.run g m4 in
  (* with a single path group the flag cannot matter *)
  check Alcotest.int "same result for one path" (Isched_sim.Timing.run s2).Isched_sim.Timing.finish
    (Isched_sim.Timing.run s1).Isched_sim.Timing.finish

let test_new_infeasible_lfd_pair_resolved () =
  (* Two scalar updates in one body (the shape loop unrolling produces)
     give two sync pairs whose sends each depend on the other pair's
     wait: both cannot become lexically forward.  The scheduler must
     pick one, stay legal, and terminate (this was a livelock once). *)
  let g =
    Dfg.build
      (compile
         "DOACROSS I = 1, 20\n\
         \ S1: A[I] = K * E[I]\n\
         \ S2: K = K + 1\n\
         \ S3: B[I] = K * C[I]\n\
         \ S4: K = K + 1\n\
          ENDDO")
  in
  let s = Sync_sched.run g m4 in
  expect_ok g s;
  (* and it still executes exactly *)
  match Isched_check.Oracle.differential s with
  | Ok () -> ()
  | Error es -> Alcotest.failf "value mismatch: %s" (String.concat "; " es)

let test_deterministic_schedules () =
  let g = Dfg.build (compile fig1) in
  let s1 = Sync_sched.run g m4 and s2 = Sync_sched.run g m4 in
  check Alcotest.(array int) "same cycles" s1.Schedule.cycle_of s2.Schedule.cycle_of;
  let l1 = List_sched.run g m4 and l2 = List_sched.run g m4 in
  check Alcotest.(array int) "list deterministic" l1.Schedule.cycle_of l2.Schedule.cycle_of

(* --- Lbd_model directly --- *)

let test_lbd_model_positions () =
  let g = Dfg.build (compile fig1) in
  let s = List_sched.run g m4 in
  List.iter
    (fun (r : Lbd_model.pair_report) ->
      Alcotest.(check bool) "positions in range" true
        (r.Lbd_model.wait_pos >= 1 && r.Lbd_model.send_pos <= s.Schedule.length);
      Alcotest.(check bool) "paper time at least l" true (r.Lbd_model.paper_time >= s.Schedule.length);
      Alcotest.(check bool) "exact time at least l" true (r.Lbd_model.exact_time >= s.Schedule.length))
    (Lbd_model.pairs s)

let test_lbd_model_lfd_costs_l () =
  (* A hand-built layout where the send precedes the wait: both model
     variants must charge exactly the schedule length. *)
  let p = compile "DOACROSS I = 1, 100\n S1: B[I] = A[I-1]\n S2: A[I] = E[I]\nENDDO" in
  let g = Dfg.build p in
  let s = Isched_core.Sync_sched.run g m4 in
  List.iter
    (fun (r : Lbd_model.pair_report) ->
      Alcotest.(check bool) "forward in the schedule" false r.Lbd_model.is_lbd;
      check Alcotest.int "paper time = l" s.Schedule.length r.Lbd_model.paper_time;
      check Alcotest.int "exact time = l" s.Schedule.length r.Lbd_model.exact_time)
    (Lbd_model.pairs s)

let test_lbd_model_formulas () =
  (* Serial one-instruction-per-row layout: positions are the body
     indices, so the formulas are directly checkable. *)
  let p = compile "DOACROSS I = 1, 100\n A[I] = A[I-2] + E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  let s = Schedule.of_cycles p m4 (Array.init n (fun i -> i)) in
  match Lbd_model.pairs s with
  | [ r ] ->
    let i = r.Lbd_model.send_pos and j = r.Lbd_model.wait_pos in
    check Alcotest.int "paper formula" ((100 / 2 * (i - j)) + n) r.Lbd_model.paper_time;
    check Alcotest.int "exact formula" ((99 / 2 * (i - j + 1)) + n) r.Lbd_model.exact_time
  | _ -> Alcotest.fail "expected one pair"

let test_schedule_pp_shapes () =
  let g = Dfg.build (compile fig1) in
  let s = List_sched.run g m4 in
  let text = Schedule.to_string s in
  let first_line = List.hd (String.split_on_char '\n' text) in
  check Alcotest.string "fig4 tuple form" "  1: (1, 2, 3, 11)" first_line;
  let wide = Format.asprintf "%a" Schedule.pp_wide s in
  Alcotest.(check bool) "wide shows instruction text" true
    (let affix = "Wait_Signal(S3, I-2)" in
     let n = String.length wide and m = String.length affix in
     let rec go i = i + m <= n && (String.sub wide i m = affix || go (i + 1)) in
     go 0)

let all_machines =
  [
    Machine.make ~issue:1 ~nfu:1 ();
    Machine.make ~issue:2 ~nfu:1 ();
    Machine.make ~issue:2 ~nfu:2 ();
    Machine.make ~issue:4 ~nfu:1 ();
    Machine.make ~issue:4 ~nfu:2 ();
    Machine.make ~issue:8 ~nfu:4 ();
    Machine.make ~pipelined:true ~issue:4 ~nfu:1 ();
  ]

let test_corpus_schedules_legal () =
  (* Every DOACROSS loop of every corpus, on seven machines, both
     schedulers: legal, and new never loses. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          let p = Isched_codegen.Codegen.compile l in
          let g = Dfg.build p in
          List.iter
            (fun m ->
              let sa = List_sched.run g m in
              let sb = Sync_sched.run g m in
              expect_ok g sa;
              expect_ok g sb;
              let ta = (Isched_sim.Timing.run sa).Isched_sim.Timing.finish in
              let tb = (Isched_sim.Timing.run sb).Isched_sim.Timing.finish in
              if tb > ta then
                Alcotest.failf "new scheduler lost on %s (%s): %d vs %d" l.Isched_frontend.Ast.name
                  (Machine.name m) tb ta)
            all_machines)
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ())

let test_sync_conditions_in_schedules () =
  (* In every schedule, sends never precede their sources and waits
     never follow their sinks. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          let p = Isched_codegen.Codegen.compile l in
          let g = Dfg.build p in
          List.iter
            (fun s ->
              Array.iter
                (fun (si : Program.signal_info) ->
                  Alcotest.(check bool) "send after src" true
                    (Schedule.position s si.Program.send_instr
                    > Schedule.position s si.Program.src_instr))
                p.Program.signals;
              Array.iter
                (fun (w : Program.wait_info) ->
                  Alcotest.(check bool) "wait before snk" true
                    (Schedule.position s w.Program.wait_instr
                    < Schedule.position s w.Program.snk_instr))
                p.Program.waits)
            [ List_sched.run g m4; Sync_sched.run g m4 ])
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ())

(* Minor words per scheduled instruction over the scale-20 corpus on
   the four paper machines.  The graphs' memos (critical path, sync
   paths, priority order) are forced by a warm-up pass first, as the
   pipeline's memoized graphs have them; what is measured is the
   schedulers' own per-run allocation. *)
let test_scheduler_allocation () =
  let module Pipeline = Isched_harness.Pipeline in
  let graphs =
    List.concat_map
      (fun profile ->
        List.concat_map
          (fun c ->
            List.filter_map
              (fun l ->
                match Pipeline.prepare_uncached Pipeline.default_options l with
                | Pipeline.Doall _ -> None
                | Pipeline.Doacross { graph; _ } -> Some graph)
              (Isched_perfect.Suite.chunk_loops c))
          (Isched_perfect.Suite.chunks ~scale:20 profile))
      Isched_perfect.Profile.all
  in
  let machines = List.map snd Machine.paper_configs in
  let runs = List.concat_map (fun g -> List.map (fun m -> (g, m)) machines) graphs in
  let baselines = List.map (fun (g, m) -> List_sched.run g m) runs in
  List.iter2 (fun (g, m) b -> ignore (Sync_sched.run ~baseline:b g m)) runs baselines;
  let n = List.fold_left (fun n ((g : Dfg.t), _) -> n + g.Dfg.n) 0 runs in
  let per_instruction what limit f =
    let w0 = Gc.minor_words () in
    f ();
    let words = (Gc.minor_words () -. w0) /. float_of_int n in
    if words > limit then
      Alcotest.failf "%s: %.2f minor words per scheduled instruction (limit %.0f)" what words limit
  in
  per_instruction "List_sched.run" 5. (fun () ->
      List.iter (fun (g, m) -> ignore (List_sched.run g m)) runs);
  per_instruction "Sync_sched.run ~baseline" 10. (fun () ->
      List.iter2 (fun (g, m) b -> ignore (Sync_sched.run ~baseline:b g m)) runs baselines)

let suite =
  [
    ("resource: issue width", `Quick, test_resource_issue_width);
    ("resource: function-unit conflicts", `Quick, test_resource_fu_conflict);
    ("resource: non-pipelined multiplier busy 3 cycles", `Quick, test_resource_nonpipelined_mul);
    ("resource: pipelined multiplier", `Quick, test_resource_pipelined_mul);
    ("resource: sync ops use no unit", `Quick, test_resource_sync_needs_no_fu);
    ("resource: first_fit", `Quick, test_resource_first_fit);
    ("resource: zero-copy units rejected", `Quick, test_resource_rejects_zero_fu);
    ("resource: first_fit far past the horizon", `Quick, test_resource_first_fit_far_start);
    ("resource: agrees with the Hashtbl oracle", `Quick, test_resource_matches_hashtbl_oracle);
    ("resource: reserve checks fit", `Quick, test_resource_reserve_checks);
    ("schedule: of_cycles and positions", `Quick, test_schedule_of_cycles);
    ("schedule: rejects unscheduled nodes", `Quick, test_schedule_rejects_unscheduled);
    ("schedule: validate catches latency violations", `Quick, test_validate_catches_latency);
    ("schedule: validate catches width violations", `Quick, test_validate_catches_width);
    ("schedule: compact removes empty rows", `Quick, test_compact_removes_empty_rows);
    ("schedule: compact preserves legality", `Quick, test_compact_keeps_latency_gaps);
    ("list: legal on Fig. 1", `Quick, test_list_legal_fig1);
    ("list: Fig. 4(a) shape (waits early, send last)", `Quick, test_list_fig4a_shape);
    ("list: Fig. 4(a) time matches the theorem", `Quick, test_list_time_fig4a);
    ("new: legal on Fig. 1", `Quick, test_new_legal_fig1);
    ("new: Fig. 4(b) shape (1 LBD, tight path)", `Quick, test_new_fig4b_shape);
    ("new: beats list scheduling on Fig. 1", `Quick, test_new_beats_list_fig4);
    ("new: converts all convertible pairs", `Quick, test_new_converts_all_convertible);
    ("new: cross-component Sig/Wat pairs", `Quick, test_new_sig_wat_cross_component);
    ("new: self recurrences", `Quick, test_new_handles_self_recurrence);
    ("new: multiple sync paths", `Quick, test_new_multiple_paths_grouped);
    ("new: path-ordering flag is sound", `Quick, test_new_order_paths_flag);
    ("new: infeasible cross LFD pairs resolved", `Quick, test_new_infeasible_lfd_pair_resolved);
    ("lbd model: report sanity", `Quick, test_lbd_model_positions);
    ("lbd model: forward pairs cost one iteration", `Quick, test_lbd_model_lfd_costs_l);
    ("lbd model: both formulas on a serial layout", `Quick, test_lbd_model_formulas);
    ("schedule: Fig. 4 text forms", `Quick, test_schedule_pp_shapes);
    ("schedulers are deterministic", `Quick, test_deterministic_schedules);
    ("corpus x 7 machines: legal and never worse", `Slow, test_corpus_schedules_legal);
    ("corpus: sync conditions hold in every schedule", `Slow, test_sync_conditions_in_schedules);
    ("sched: allocation per scheduled instruction on the scale-20 corpus", `Slow,
      test_scheduler_allocation);
  ]
