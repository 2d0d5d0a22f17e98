(* Tests for the multiprocessor simulators: the fast timing engine
   against the LBD loop theorem, and the cycle-accurate value engine
   against the sequential reference. *)

module Timing = Isched_sim.Timing
module Value = Isched_sim.Value
module Schedule = Isched_core.Schedule
module Lbd_model = Isched_core.Lbd_model
module Dfg = Isched_dfg.Dfg
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Parser = Isched_frontend.Parser

let check = Alcotest.check
let compile ?n_iters src = Isched_codegen.Codegen.compile ?n_iters (Parser.parse_loop src)

let qtest ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)
let m4 = Machine.make ~issue:4 ~nfu:1 ()

let schedules_of src =
  let p = compile src in
  let g = Dfg.build p in
  (p, g, Isched_core.List_sched.run g m4, Isched_core.Sync_sched.run g m4)

(* --- timing --- *)

let test_timing_doall () =
  (* No synchronization: all processors run the same rows in lockstep;
     the loop costs exactly the schedule length. *)
  let _, _, s, _ = schedules_of "DO I = 1, 50\n A[I] = E[I] + C[I]\nENDDO" in
  let t = Timing.run s in
  check Alcotest.int "finish = length" s.Schedule.length t.Timing.finish;
  check Alcotest.int "no stalls" 0 t.Timing.stall_cycles

let test_timing_matches_theorem_d1 () =
  let _, _, s, _ = schedules_of "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  check Alcotest.int "single-pair chain exact" (Lbd_model.exact_time s) (Timing.run s).Timing.finish

let test_timing_matches_theorem_d3 () =
  let _, _, s, _ = schedules_of "DOACROSS I = 1, 100\n A[I] = A[I-3] * E[I]\nENDDO" in
  check Alcotest.int "distance-3 chain exact" (Lbd_model.exact_time s) (Timing.run s).Timing.finish

let test_timing_lfd_costs_nothing () =
  let _, _, _, s = schedules_of "DOACROSS I = 1, 100\n S1: B[I] = A[I-1]\n S2: A[I] = E[I]\nENDDO" in
  (* fully converted: start offsets are bounded by the row count *)
  let t = Timing.run s in
  Alcotest.(check bool) "about one iteration" true (t.Timing.finish <= 2 * s.Schedule.length + 2)

let test_timing_iteration_starts_monotone_chain () =
  let _, _, s, _ = schedules_of "DOACROSS I = 1, 50\n A[I] = A[I-1] + E[I]\nENDDO" in
  let t = Timing.run s in
  let starts = t.Timing.iteration_starts in
  for k = 1 to Array.length starts - 1 do
    Alcotest.(check bool) "chain starts increase" true (starts.(k) >= starts.(k - 1))
  done

let test_timing_n_iters_scaling () =
  let time n =
    let p = compile ~n_iters:n "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
    let g = Dfg.build p in
    (Timing.run (Isched_core.List_sched.run g m4)).Timing.finish
  in
  let t100 = time 100 and t200 = time 200 in
  (* Per the theorem the time is linear in n. *)
  Alcotest.(check bool) "roughly doubles" true (abs (t200 - (2 * t100)) <= t100 / 2)

let test_timing_invalid_schedule_error () =
  (* Regression: a row layout that omits the Send leaves later
     iterations waiting on a signal nobody posts.  This used to die in a
     bare [assert]; it must now raise the structured error with the
     iteration/signal context. *)
  let p = compile "DOACROSS I = 1, 10\n A[I] = A[I-1] + E[I]\nENDDO" in
  let keep = ref [] in
  Array.iteri
    (fun i instr ->
      match instr with Isched_ir.Instr.Send _ -> () | _ -> keep := i :: !keep)
    p.Program.body;
  let rows = Array.of_list (List.rev_map (fun i -> [| i |]) !keep) in
  match Timing.run_rows p rows with
  | _ -> Alcotest.fail "expected Invalid_schedule"
  | exception Timing.Invalid_schedule { prog; iteration; wait; signal; posting_iteration } ->
    check Alcotest.string "prog named" p.Program.name prog;
    Alcotest.(check bool) "stalled iteration is not the first" true (iteration >= 1);
    check Alcotest.int "posting iteration at the dependence distance" (iteration - 1)
      posting_iteration;
    Alcotest.(check bool) "wait and signal ids in range" true (wait >= 0 && signal >= 0)

let test_timing_run_rows_hand_layout () =
  (* A hand-built two-row layout: wait+load in row 1, store+send in
     row 2 is illegal for latency but Timing trusts its input; use the
     simple exactness instead: 1 row per instruction. *)
  let p = compile "DOACROSS I = 1, 10\n A[I] = A[I-1] + E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  let rows = Array.init n (fun i -> [| i |]) in
  let t = Timing.run_rows p rows in
  (* serial rows: span = send - wait positions; theorem applies *)
  Alcotest.(check bool) "finishes" true (t.Timing.finish > 0)

(* --- steady-state extrapolation --- *)

let same_result msg (a : Timing.result) (b : Timing.result) =
  check Alcotest.int (msg ^ ": finish") a.Timing.finish b.Timing.finish;
  check Alcotest.int (msg ^ ": stalls") a.Timing.stall_cycles b.Timing.stall_cycles;
  check Alcotest.(array int) (msg ^ ": starts") a.Timing.iteration_starts b.Timing.iteration_starts;
  check
    Alcotest.(array int)
    (msg ^ ": finishes") a.Timing.iteration_finishes b.Timing.iteration_finishes

let test_timing_extrapolation_matches_full () =
  (* The satellite cross-check: over the Perfect-surrogate corpora, the
     steady-state fast path must be bit-identical to the full simulation
     for short, transient-only and steady-state trip counts, under both
     iteration-to-processor assignments and several pool sizes. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      let loops =
        List.filteri (fun i _ -> i < 3) b.Isched_perfect.Suite.loops
      in
      List.iter
        (fun l ->
          List.iter
            (fun n ->
              match Isched_codegen.Codegen.compile ~n_iters:n l with
              | exception Invalid_argument _ -> ()
              | p ->
                let g = Dfg.build p in
                List.iter
                  (fun s ->
                    List.iter
                      (fun assignment ->
                        List.iter
                          (fun n_procs ->
                            let fast = Timing.run ?n_procs ~assignment s in
                            let full = Timing.run ?n_procs ~assignment ~extrapolate:false s in
                            check Alcotest.(option int) "oracle never extrapolates" None
                              full.Timing.extrapolated_from;
                            same_result
                              (Printf.sprintf "%s n=%d procs=%s" l.Isched_frontend.Ast.name n
                                 (match n_procs with None -> "all" | Some p -> string_of_int p))
                              full fast)
                          [ None; Some 4; Some 10 ])
                      [ `Cyclic; `Block ])
                  [ Isched_core.List_sched.run g m4; Isched_core.Sync_sched.run g m4 ])
            [ 1; 7; 100 ])
        loops)
    (Isched_perfect.Suite.all ())

let test_timing_extrapolation_fires () =
  (* On a long recurrence the fast path must actually engage (and stay
     exact): that is where the 4x bench win comes from. *)
  let p = compile ~n_iters:5000 "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  let g = Dfg.build p in
  let s = Isched_core.Sync_sched.run g m4 in
  let fast = Timing.run s in
  Alcotest.(check bool) "extrapolation engaged" true (fast.Timing.extrapolated_from <> None);
  same_result "n=5000 chain" (Timing.run ~extrapolate:false s) fast;
  let fast4 = Timing.run ~n_procs:4 s in
  Alcotest.(check bool) "engages with a limited pool" true
    (fast4.Timing.extrapolated_from <> None);
  same_result "n=5000 chain, 4 procs" (Timing.run ~n_procs:4 ~extrapolate:false s) fast4

(* The extrapolation fast path splits a `Block pool into equal chunks
   plus a ragged remainder when n_procs does not divide n; the residues
   at the chunk boundaries are exactly where an off-by-one would hide.
   Property: fast path and full simulation are bit-identical there. *)
let prop_block_extrapolation_ragged =
  qtest "timing: extrapolation exact under `Block with ragged chunks"
    QCheck2.Gen.(
      let* d = int_range 1 4 in
      let* n = int_range 8 400 in
      let* n_procs = int_range 2 9 in
      let* issue = oneofl [ 2; 4 ] in
      let* which = oneofl [ `List; `New ] in
      return (d, n, n_procs, issue, which))
    (fun (d, n, n_procs, issue, which) ->
      (* force a non-zero residue: n_procs >= 2, so n+1 never divides *)
      let n = if n mod n_procs = 0 then n + 1 else n in
      let p =
        compile ~n_iters:n (Printf.sprintf "DOACROSS I = 1, 100\n A[I] = A[I-%d] + E[I]\nENDDO" d)
      in
      let g = Dfg.build p in
      let m = Machine.make ~issue ~nfu:1 () in
      let s =
        match which with
        | `List -> Isched_core.List_sched.run g m
        | `New -> Isched_core.Sync_sched.run g m
      in
      let fast = Timing.run ~n_procs ~assignment:`Block s in
      let full = Timing.run ~n_procs ~assignment:`Block ~extrapolate:false s in
      fast.Timing.finish = full.Timing.finish
      && fast.Timing.stall_cycles = full.Timing.stall_cycles
      && fast.Timing.iteration_starts = full.Timing.iteration_starts
      && fast.Timing.iteration_finishes = full.Timing.iteration_finishes)

(* Steady-state boundary cases.  [Program.validate] rejects trip counts
   below 1, so the n=0 record is built directly and driven through
   [run_rows]. *)

let chain_rows n_iters =
  let p = compile ~n_iters:(max n_iters 1) "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  ({ p with Program.n_iters }, Array.init n (fun i -> [| i |]))

let test_timing_boundary_zero_iters () =
  let p, rows = chain_rows 0 in
  (* The default pool is one processor per iteration — zero of them. *)
  Alcotest.check_raises "default pool of zero rejected"
    (Invalid_argument "Timing.run_rows: n_procs must be >= 1") (fun () ->
      ignore (Timing.run_rows p rows));
  let t = Timing.run_rows ~n_procs:1 p rows in
  check Alcotest.int "finish" 0 t.Timing.finish;
  check Alcotest.int "stalls" 0 t.Timing.stall_cycles;
  check Alcotest.(array int) "no starts" [||] t.Timing.iteration_starts;
  check Alcotest.(array int) "no finishes" [||] t.Timing.iteration_finishes;
  check Alcotest.(option int) "nothing to extrapolate" None t.Timing.extrapolated_from

let test_timing_boundary_one_iter () =
  let p, rows = chain_rows 1 in
  let t = Timing.run_rows p rows in
  check Alcotest.(option int) "single iteration never extrapolates" None
    t.Timing.extrapolated_from;
  same_result "n=1" (Timing.run_rows ~extrapolate:false p rows) t;
  check Alcotest.int "one iteration, no cross-iteration stall" 0 t.Timing.stall_cycles

let test_timing_boundary_below_period () =
  (* Cyclic pool of 8 over 10 iterations: the recurrence period is the
     pool size, and 10 iterations cannot cover guard + window + period,
     so the fast path must decline (and still agree with the oracle). *)
  let p, rows = chain_rows 10 in
  let t = Timing.run_rows ~n_procs:8 p rows in
  check Alcotest.(option int) "trip count below the period: full sim" None
    t.Timing.extrapolated_from;
  same_result "n=10 procs=8" (Timing.run_rows ~n_procs:8 ~extrapolate:false p rows) t

let test_timing_boundary_unusable_period () =
  (* A cyclic pool of 600 puts the period past the 512 cap: the fast
     path is structurally unusable however long the loop runs.  The
     fallback is observable through the [timing.full_sim] counter. *)
  let p, rows = chain_rows 2000 in
  let c_full = Isched_obs.Counters.counter "timing.full_sim" in
  let c_extra = Isched_obs.Counters.counter "timing.extrapolated" in
  let full0 = Isched_obs.Counters.value c_full in
  let extra0 = Isched_obs.Counters.value c_extra in
  let t = Timing.run_rows ~n_procs:600 p rows in
  check Alcotest.(option int) "never stabilises" None t.Timing.extrapolated_from;
  check Alcotest.int "full-sim fallback counted" (full0 + 1)
    (Isched_obs.Counters.value c_full);
  check Alcotest.int "not counted as extrapolated" extra0
    (Isched_obs.Counters.value c_extra);
  same_result "n=2000 procs=600" (Timing.run_rows ~n_procs:600 ~extrapolate:false p rows) t;
  (* Same trip count with a small pool does stabilise — the cap, not the
     loop, is what blocked the fast path above. *)
  let t4 = Timing.run_rows ~n_procs:4 p rows in
  Alcotest.(check bool) "small pool extrapolates" true (t4.Timing.extrapolated_from <> None);
  check Alcotest.int "extrapolation counted" (extra0 + 1)
    (Isched_obs.Counters.value c_extra)

(* --- value simulation --- *)

let expect_equiv src =
  let _, _, sa, sb = schedules_of src in
  List.iter
    (fun s ->
      match Isched_check.Oracle.differential s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" src (String.concat "; " es))
    [ sa; sb ]

let test_value_fig1 () =
  expect_equiv
    "DOACROSS I = 1, 100\n\
    \ S1: B[I] = A[I-2] + E[I+1]\n\
    \ S2: G[I-3] = A[I-1] * E[I+2]\n\
    \ S3: A[I] = B[I] + C[I+3]\n\
     ENDDO"

let test_value_recurrence () = expect_equiv "DOACROSS I = 1, 60\n A[I] = A[I-1] * C[I] + E[I]\nENDDO"

let test_value_guard () =
  expect_equiv "DOACROSS I = 1, 40\n IF (E[I] > 0) A[I] = A[I-2] + C[I]\nENDDO"

let test_value_anti_dep () =
  expect_equiv "DOACROSS I = 1, 40\n S1: B[I] = A[I+1]\n S2: A[I] = E[I]\nENDDO"

let test_value_scalar_dep () =
  expect_equiv "DOACROSS I = 1, 30\n S1: S = S + A[I-1]\n S2: A[I] = E[I] + S\nENDDO"

let test_value_finish_matches_timing () =
  let _, _, sa, sb =
    schedules_of
      "DOACROSS I = 1, 100\n\
      \ S1: B[I] = A[I-2] + E[I+1]\n\
      \ S2: G[I-3] = A[I-1] * E[I+2]\n\
      \ S3: A[I] = B[I] + C[I+3]\n\
       ENDDO"
  in
  List.iter
    (fun s ->
      check Alcotest.int "the two simulators agree on time" (Timing.run s).Timing.finish
        (Value.run s).Value.finish)
    [ sa; sb ]

let test_value_no_races_under_sync () =
  let _, _, sa, sb = schedules_of "DOACROSS I = 1, 50\n A[I] = A[I-1] + E[I]\nENDDO" in
  List.iter
    (fun s -> check Alcotest.int "race-free" 0 (List.length (Value.run s).Value.races))
    [ sa; sb ]

let test_value_stale_without_sync_arcs () =
  (* The motivating bug: scheduling without the sync-condition arcs lets
     sinks run before their waits. *)
  let p =
    compile
      "DOACROSS I = 1, 100\n\
      \ S1: B[I] = A[I-2] + E[I+1]\n\
      \ S2: G[I-3] = A[I-1] * E[I+2]\n\
      \ S3: A[I] = B[I] + C[I+3]\n\
       ENDDO"
  in
  let g0 = Dfg.build ~sync_arcs:false p in
  let s0 = Isched_core.List_sched.run g0 (Machine.make ~issue:4 ~nfu:1 ()) in
  let v = Value.run s0 in
  let seq_log = Isched_exec.Readlog.create () in
  let seq_mem = Isched_exec.Prog_interp.run ~log:seq_log p in
  let stale = Isched_exec.Readlog.compare_logs ~reference:seq_log ~actual:v.Value.log in
  Alcotest.(check bool) "stale reads detected" true (List.length stale > 0);
  Alcotest.(check bool) "memory corrupted" false (Isched_exec.Memory.equal seq_mem v.Value.memory)

let test_value_corpus_sample () =
  (* One loop from each corpus, both schedulers, value-checked. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      match b.Isched_perfect.Suite.loops with
      | l :: _ ->
        let p = Isched_codegen.Codegen.compile l in
        let g = Dfg.build p in
        List.iter
          (fun s ->
            match Isched_check.Oracle.differential s with
            | Ok () -> ()
            | Error es ->
              Alcotest.failf "%s: %s" l.Isched_frontend.Ast.name (String.concat "; " es))
          [ Isched_core.List_sched.run g m4; Isched_core.Sync_sched.run g m4 ]
      | [] -> ())
    (Isched_perfect.Suite.all ())

(* --- the value engine against its time-stepped reference --- *)

let read_entry =
  Alcotest.testable
    (fun ppf (e : Isched_exec.Readlog.entry) ->
      Format.fprintf ppf "iter %d instr %d %s%s <- %a" e.iter e.instr e.cell
        (match e.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
        Isched_exec.Memory.pp_tag e.observed)
    ( = )

let tag = Alcotest.testable Isched_exec.Memory.pp_tag Isched_exec.Memory.tag_equal

(* [Value.run] and [Value_ref.run] must agree on everything they report,
   final values bitwise and with their writer tags; returns the number
   of races. *)
let same_as_reference what (s : Schedule.t) =
  let module M = Isched_exec.Memory in
  let what = Printf.sprintf "%s %s" what s.Schedule.prog.Program.name in
  let r = Value_ref.run s and v = Value.run s in
  let cells (m : M.t) = List.map (fun (c, x) -> (c, Int64.bits_of_float x)) (M.written_cells m)
  and scalars (m : M.t) = List.map (fun (c, x) -> (c, Int64.bits_of_float x)) (M.written_scalars m)
  and writers (m : M.t) =
    List.map (fun ((a, i), _) -> M.tag_of m a i) (M.written_cells m)
    @ List.map (fun (a, _) -> M.scalar_tag_of m a) (M.written_scalars m)
  in
  check Alcotest.int (what ^ ": finish") r.Value.finish v.Value.finish;
  check Alcotest.(list string) (what ^ ": races") r.Value.races v.Value.races;
  check (Alcotest.list read_entry) (what ^ ": read log")
    (Isched_exec.Readlog.to_list r.Value.log) (Isched_exec.Readlog.to_list v.Value.log);
  check Alcotest.(list (pair (pair string int) int64)) (what ^ ": cells")
    (cells r.Value.memory) (cells v.Value.memory);
  check Alcotest.(list (pair string int64)) (what ^ ": scalars")
    (scalars r.Value.memory) (scalars v.Value.memory);
  check (Alcotest.list tag) (what ^ ": writers") (writers r.Value.memory) (writers v.Value.memory);
  List.length r.Value.races

let all_schedulers g =
  [
    ("list", Isched_core.List_sched.run g m4);
    ("marker", Isched_core.Marker_sched.run g m4);
    ("new", Isched_core.Sync_sched.run g m4);
  ]

(* Each schedule of [p] under the three schedulers, every injected fault
   on those, and the schedules built without the sync-condition arcs. *)
let reference_cases p =
  let synced = all_schedulers (Dfg.build p) in
  synced
  @ List.concat_map
      (fun (w, s) ->
        List.filter_map
          (fun f ->
            Option.map
              (fun s -> (w ^ "+" ^ Isched_check.Inject.name f, s))
              (Isched_check.Inject.inject f s))
          Isched_check.Inject.all)
      synced
  @ List.map (fun (w, s) -> (w ^ " unsynced", s)) (all_schedulers (Dfg.build ~sync_arcs:false p))

let test_value_matches_reference_corpus () =
  let loops = List.filteri (fun i _ -> i mod 10 = 0) (Isched_perfect.Suite.all_loops ()) in
  List.iter
    (fun l ->
      match Isched_harness.Pipeline.prepare l with
      | Isched_harness.Pipeline.Doall _ -> ()
      | Isched_harness.Pipeline.Doacross { prog; _ } ->
        List.iter (fun (w, s) -> ignore (same_as_reference w s)) (reference_cases prog))
    loops

let test_value_matches_reference_kernels () =
  let races src cases =
    List.fold_left (fun acc (w, s) -> acc + same_as_reference (w ^ " " ^ src) s) 0 cases
  in
  (* Without the sync arcs both kernels put two iterations' stores to one
     cell into one cycle: a scalar every iteration writes, and an array
     cell written by one iteration's S2 and the next one's S1. *)
  List.iter
    (fun src ->
      check Alcotest.bool (src ^ ": some schedule races") true
        (races src (reference_cases (compile src)) > 0))
    [
      "DOACROSS I = 1, 10\n S = E[I]\nENDDO";
      "DOACROSS I = 1, 10\n S1: A[I] = E[I]\n S2: A[I+1] = C[I]\nENDDO";
    ];
  (* Waits hoisted into the first row, both sends sunk into the last:
     iteration 0's posts wake iteration 3 (distance 3, first send)
     before iteration 2 (distance 2), and the two must rejoin, and then
     read, in ascending order. *)
  let p =
    compile
      "DOACROSS I = 1, 30\n S1: A[I] = E[I]\n S2: B[I] = C[I]\n S3: D[I] = A[I-3] + B[I-2]\nENDDO"
  in
  let last = Array.length p.Program.body in
  let moved =
    Array.mapi
      (fun i ins ->
        match ins with Isched_ir.Instr.Wait _ -> 0 | Isched_ir.Instr.Send _ -> last | _ -> i)
      p.Program.body
  in
  ignore (races "moved sync" [ ("hand", Schedule.of_cycles p m4 moved) ]);
  (* The whole body in one row: each iteration's two stores to A[I]
     commit in the same cycle, the later one first. *)
  let p = compile "DOACROSS I = 1, 10\n S1: A[I] = E[I]\n S2: A[I] = C[I]\nENDDO" in
  let one_row = Schedule.of_cycles p m4 (Array.make (Array.length p.Program.body) 0) in
  check Alcotest.int "one row: every iteration races with itself" 10
    (races "one row" [ ("hand", one_row) ])

let suite =
  [
    ("timing: doall costs the schedule length", `Quick, test_timing_doall);
    ("timing: LBD theorem, distance 1", `Quick, test_timing_matches_theorem_d1);
    ("timing: LBD theorem, distance 3", `Quick, test_timing_matches_theorem_d3);
    ("timing: converted pairs cost one iteration", `Quick, test_timing_lfd_costs_nothing);
    ("timing: chained iteration starts increase", `Quick, test_timing_iteration_starts_monotone_chain);
    ("timing: linear in the iteration count", `Quick, test_timing_n_iters_scaling);
    ("timing: missing send raises a located Invalid_schedule", `Quick,
      test_timing_invalid_schedule_error);
    ("timing: run_rows on a hand layout", `Quick, test_timing_run_rows_hand_layout);
    prop_block_extrapolation_ragged;
    ( "timing: extrapolation exact on corpora, n in {1,7,100}, both assignments",
      `Slow,
      test_timing_extrapolation_matches_full );
    ("timing: extrapolation engages on long runs", `Quick, test_timing_extrapolation_fires);
    ("timing: boundary, zero iterations", `Quick, test_timing_boundary_zero_iters);
    ("timing: boundary, one iteration", `Quick, test_timing_boundary_one_iter);
    ("timing: boundary, trip count below the period", `Quick, test_timing_boundary_below_period);
    ("timing: boundary, period past the cap falls back", `Quick, test_timing_boundary_unusable_period);
    ("value: Fig. 1 is exact", `Quick, test_value_fig1);
    ("value: multiplicative recurrence", `Quick, test_value_recurrence);
    ("value: guarded recurrence", `Quick, test_value_guard);
    ("value: anti dependence", `Quick, test_value_anti_dep);
    ("value: scalar dependence", `Quick, test_value_scalar_dep);
    ("value: agrees with the timing engine", `Quick, test_value_finish_matches_timing);
    ("value: race-free under synchronization", `Quick, test_value_no_races_under_sync);
    ("value: stale reads without the sync arcs", `Quick, test_value_stale_without_sync_arcs);
    ("value: corpus sample is exact", `Slow, test_value_corpus_sample);
    ("value: same as reference, corpus sample", `Quick, test_value_matches_reference_corpus);
    ("value: same as reference, hand-written kernels", `Quick,
      test_value_matches_reference_kernels);
  ]
