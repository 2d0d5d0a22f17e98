(* Tests for the reproduction's extensions: the marker-guided scheduler
   (ISPAN'94 baseline), DOACROSS loop unrolling, and limited processor
   pools in the timing simulator. *)

module Marker_sched = Isched_core.Marker_sched
module Unroll = Isched_transform.Unroll
module Timing = Isched_sim.Timing
module Schedule = Isched_core.Schedule
module Dfg = Isched_dfg.Dfg
module Machine = Isched_ir.Machine
module Ast = Isched_frontend.Ast
module Parser = Isched_frontend.Parser

let check = Alcotest.check
let compile src = Isched_codegen.Codegen.compile (Parser.parse_loop src)
let m4 = Machine.make ~issue:4 ~nfu:1 ()

let fig1 =
  "DOACROSS I = 1, 100\n\
  \ S1: B[I] = A[I-2] + E[I+1]\n\
  \ S2: G[I-3] = A[I-1] * E[I+2]\n\
  \ S3: A[I] = B[I] + C[I+3]\n\
   ENDDO"

(* --- Marker_sched --- *)

let test_marker_legal () =
  let g = Dfg.build (compile fig1) in
  let s = Marker_sched.run g m4 in
  match Schedule.validate s g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "illegal: %s" e

let test_marker_defers_waits () =
  let g = Dfg.build (compile fig1) in
  let p = g.Dfg.prog in
  let s_list = Isched_core.List_sched.run g m4 in
  let s_marker = Marker_sched.run g m4 in
  (* The d=1 wait (protecting S2's load) issues later under markers than
     under plain list scheduling, which hoists it to cycle 1. *)
  let w1 = p.Isched_ir.Program.waits.(1).Isched_ir.Program.wait_instr in
  Alcotest.(check bool) "wait deferred" true
    (Schedule.position s_marker w1 > Schedule.position s_list w1)

let test_marker_between_baseline_and_new () =
  (* Over the corpora, marker guidance beats plain list scheduling but
     not the structured technique. *)
  let totals = ref (0, 0, 0) in
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          match Isched_harness.Pipeline.prepare l with
          | Isched_harness.Pipeline.Doall _ -> ()
          | Isched_harness.Pipeline.Doacross { graph; _ } ->
            let t s = (Timing.run s).Timing.finish in
            let a, b', c = !totals in
            totals :=
              ( a + t (Isched_core.List_sched.run graph m4),
                b' + t (Marker_sched.run graph m4),
                c + t (Isched_core.Sync_sched.run graph m4) ))
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ());
  let tl, tm, tn = !totals in
  Alcotest.(check bool) "marker < list" true (tm < tl);
  Alcotest.(check bool) "new < marker" true (tn < tm)

let test_marker_value_correct () =
  let p = compile fig1 in
  let g = Dfg.build p in
  match Isched_check.Oracle.differential (Marker_sched.run g m4) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "value mismatch: %s" (String.concat "; " es)

(* --- Unroll --- *)

let test_unroll_applicability () =
  let l = Parser.parse_loop "DO I = 1, 100\n A[I] = A[I-1]\nENDDO" in
  Alcotest.(check bool) "u=2 divides" true (Unroll.applicable l ~factor:2);
  Alcotest.(check bool) "u=3 does not" false (Unroll.applicable l ~factor:3);
  Alcotest.(check bool) "u=1 is identity" false (Unroll.applicable l ~factor:1);
  let id = Unroll.run l ~factor:3 in
  check Alcotest.string "non-divisor returns the loop" (Ast.loop_to_string l) (Ast.loop_to_string id)

let test_unroll_shape () =
  let l = Parser.parse_loop "DO I = 1, 100\n S1: A[I] = A[I-1] + E[I]\nENDDO" in
  let u = Unroll.run l ~factor:4 in
  check Alcotest.int "quarter the iterations" 25 (Ast.iterations u);
  check Alcotest.int "four copies" 4 (List.length u.Ast.body);
  Isched_frontend.Sema.check_exn u

let test_unroll_equivalence () =
  List.iter
    (fun src ->
      let l = Parser.parse_loop src in
      List.iter
        (fun factor ->
          let u = Unroll.run l ~factor in
          let m1 = Isched_exec.Ast_interp.run l in
          let m2 = Isched_exec.Ast_interp.run u in
          if not (Isched_exec.Memory.equal m1 m2) then
            Alcotest.failf "unroll by %d changed semantics of %s" factor src)
        [ 2; 4; 5 ])
    [
      "DO I = 1, 20\n A[I] = A[I-1] * C[I] + E[I]\nENDDO";
      "DO I = 1, 20\n S1: B[I] = A[I-2]\n S2: A[I] = E[I] + B[I]\nENDDO";
      "DO I = 1, 20\n IF (E[I] > 0) A[I] = A[I-3] + 1\nENDDO";
      "DO I = 1, 20\n S1: S = S + A[I]\n S2: OUT[I] = S\nENDDO";
    ]

let test_unroll_rescales_distances () =
  (* d=2 unrolled by 2: the carried distance becomes 1 (plus a
     loop-independent dep between the copies). *)
  let l = Parser.parse_loop "DO I = 1, 100\n A[I] = A[I-2] + E[I]\nENDDO" in
  let u = Unroll.run l ~factor:2 in
  let carried = Isched_deps.Dep.carried_deps u in
  Alcotest.(check bool) "all carried distances are 1" true
    (carried <> []
    && List.for_all (fun d -> Isched_deps.Dep.sync_distance d = 1) carried)

let test_unroll_compiles_and_runs () =
  let l = Parser.parse_loop fig1 in
  let u = Unroll.run l ~factor:2 in
  let p = Isched_codegen.Codegen.compile u in
  let g = Dfg.build p in
  let s = Isched_core.Sync_sched.run g m4 in
  (match Schedule.validate s g with Ok () -> () | Error e -> Alcotest.failf "illegal: %s" e);
  match Isched_check.Oracle.differential s with
  | Ok () -> ()
  | Error es -> Alcotest.failf "value mismatch: %s" (String.concat "; " es)

(* --- Spill --- *)

module Spill = Isched_codegen.Spill
module Regalloc = Isched_codegen.Regalloc

let test_spill_identity_when_enough () =
  let p = compile fig1 in
  let order = Regalloc.original_order p in
  let k = Regalloc.max_pressure p ~order in
  let r = Spill.insert p ~k in
  check Alcotest.int "no spill ops" 0 r.Spill.n_spill_ops;
  Alcotest.(check bool) "program unchanged" true (r.Spill.prog == p)

let test_spill_validates () =
  let p = compile fig1 in
  let r = Spill.insert p ~k:4 in
  Alcotest.(check bool) "spilled something" true (r.Spill.spilled <> []);
  Isched_ir.Program.validate r.Spill.prog;
  Alcotest.(check bool) "body grew" true
    (Array.length r.Spill.prog.Isched_ir.Program.body > Array.length p.Isched_ir.Program.body)

let test_spill_semantics_preserved () =
  (* The spilled program computes the same user-visible cells as the
     original (spill slots excepted). *)
  let p = compile fig1 in
  let r = Spill.insert p ~k:4 in
  let m_orig = Isched_exec.Prog_interp.run p in
  let m_spill = Isched_exec.Prog_interp.run r.Spill.prog in
  List.iter
    (fun ((name, idx), v) ->
      if String.length name < 5 || String.sub name 0 5 <> "spill" then begin
        let v' = Isched_exec.Memory.get m_spill name idx in
        if not (Isched_exec.Semantics.eq v v') then
          Alcotest.failf "%s[%d] changed: %h vs %h" name idx v v'
      end)
    (Isched_exec.Memory.written_cells m_orig)

let test_spill_parallel_correct () =
  let p = compile fig1 in
  let r = Spill.insert p ~k:4 in
  let g = Dfg.build r.Spill.prog in
  List.iter
    (fun s ->
      (match Schedule.validate s g with Ok () -> () | Error e -> Alcotest.failf "illegal: %s" e);
      match Isched_check.Oracle.differential s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "value mismatch: %s" (String.concat "; " es))
    [ Isched_core.List_sched.run g m4; Isched_core.Sync_sched.run g m4 ]

let test_spill_monotone_traffic () =
  let p = compile fig1 in
  let ops k = (Spill.insert p ~k).Spill.n_spill_ops in
  Alcotest.(check bool) "fewer registers, more traffic" true (ops 3 >= ops 4 && ops 4 >= ops 6)

let test_spill_invalid_k () =
  let p = compile fig1 in
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Spill.insert p ~k:0);
       false
     with Invalid_argument _ -> true)

(* --- limited processors --- *)

let sched_of src =
  let p = compile src in
  let g = Dfg.build p in
  Isched_core.Sync_sched.run g m4

let test_procs_default_is_full () =
  let s = sched_of fig1 in
  check Alcotest.int "P = n matches the default" (Timing.run s).Timing.finish
    (Timing.run ~n_procs:100 s).Timing.finish

let test_procs_monotone () =
  let s = sched_of "DOACROSS I = 1, 100\n S1: O[I] = A[I-1] * C[I]\n S2: A[I] = E[I] + C[I]\nENDDO" in
  let t np = (Timing.run ~n_procs:np s).Timing.finish in
  let prev = ref max_int in
  List.iter
    (fun np ->
      let now = t np in
      Alcotest.(check bool) (Printf.sprintf "P=%d no slower than fewer procs" np) true (now <= !prev);
      prev := now)
    [ 1; 2; 4; 8; 16; 100 ]

let test_procs_one_is_serial () =
  (* With one processor and no stalls possible (signals always posted by
     the time the single processor reaches them), the time is exactly
     n * rows. *)
  let s = sched_of "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  check Alcotest.int "serial execution" (100 * s.Schedule.length)
    (Timing.run ~n_procs:1 s).Timing.finish

let test_procs_chain_insensitive () =
  (* A distance-1 chain serializes across iterations anyway: processor
     count barely matters once the per-link delay exceeds the reuse
     delay. *)
  let s = sched_of "DOACROSS I = 1, 100\n A[I] = A[I-1] * C[I] + E[I] * Q[I] + R[I]\nENDDO" in
  let t np = (Timing.run ~n_procs:np s).Timing.finish in
  Alcotest.(check bool) "P=8 ~ P=100" true (t 8 = t 100)

let test_procs_block_vs_cyclic () =
  (* Block assignment serializes consecutive iterations: on a distance-1
     chain it cannot be faster than cyclic, and on a convertible loop it
     destroys the overlap cyclic assignment keeps. *)
  let s = sched_of "DOACROSS I = 1, 100\n S1: O[I] = A[I-1] * C[I]\n S2: A[I] = E[I] + C[I]\nENDDO" in
  let t assignment = (Timing.run ~n_procs:10 ~assignment s).Timing.finish in
  Alcotest.(check bool) "block no faster than cyclic" true (t `Block >= t `Cyclic)

let test_procs_block_full_pool_serial_chunks () =
  (* With P = n, block assignment degenerates to one iteration per
     processor: identical to cyclic. *)
  let s = sched_of fig1 in
  check Alcotest.int "P = n: block = cyclic"
    (Timing.run ~n_procs:100 ~assignment:`Cyclic s).Timing.finish
    (Timing.run ~n_procs:100 ~assignment:`Block s).Timing.finish

let test_procs_invalid () =
  let s = sched_of fig1 in
  Alcotest.(check bool) "P=0 rejected" true
    (try
       ignore (Timing.run ~n_procs:0 s);
       false
     with Invalid_argument _ -> true)

(* --- Modulo_sched --- *)

module Modulo_sched = Isched_core.Modulo_sched

let modulo_of src =
  let p = compile src in
  let g = Dfg.build p in
  (p, g, Modulo_sched.run g m4)

let test_modulo_valid_fig1 () =
  let _, g, ms = modulo_of fig1 in
  match Modulo_sched.validate ms g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid modulo schedule: %s" e

let test_modulo_ii_bounds () =
  let _, _, ms = modulo_of fig1 in
  Alcotest.(check bool) "II >= ResMII" true (ms.Modulo_sched.ii >= ms.Modulo_sched.res_mii);
  Alcotest.(check bool) "II >= RecMII" true (ms.Modulo_sched.ii >= ms.Modulo_sched.rec_mii)

let test_modulo_recurrence_bound () =
  (* A[I] = A[I-1] * C[I] + E[I]: the cycle is load -> fmul(3) -> fadd
     -> store -> load, distance 1, so RecMII >= 6. *)
  let _, _, ms = modulo_of "DOACROSS I = 1, 100\n A[I] = A[I-1] * C[I] + E[I]\nENDDO" in
  Alcotest.(check bool) "RecMII reflects the chain" true (ms.Modulo_sched.rec_mii >= 6)

let test_modulo_independent_is_resource_bound () =
  let _, _, ms = modulo_of "DO I = 1, 100\n P[I] = E[I] * C[I] + Q[I]\nENDDO" in
  check Alcotest.int "no recurrence" 1 ms.Modulo_sched.rec_mii;
  check Alcotest.int "II = ResMII" ms.Modulo_sched.res_mii ms.Modulo_sched.ii

let test_modulo_total_time () =
  let p, _, ms = modulo_of fig1 in
  check Alcotest.int "formula" (((p.Isched_ir.Program.n_iters - 1) * ms.Modulo_sched.ii) + ms.Modulo_sched.span)
    (Modulo_sched.total_time ms)

let test_modulo_beats_serial () =
  List.iter
    (fun src ->
      let p, _, ms = modulo_of src in
      let real_ops =
        Array.fold_left
          (fun acc ins -> if Isched_ir.Instr.is_sync ins then acc else acc + 1)
          0 p.Isched_ir.Program.body
      in
      let serial = p.Isched_ir.Program.n_iters * real_ops in
      Alcotest.(check bool) "overlap wins" true (Modulo_sched.total_time ms <= serial))
    [ fig1; "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" ]

let test_modulo_corpus_valid () =
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          match Isched_harness.Pipeline.prepare l with
          | Isched_harness.Pipeline.Doall _ -> ()
          | Isched_harness.Pipeline.Doacross { graph; _ } ->
            let ms = Modulo_sched.run graph m4 in
            (match Modulo_sched.validate ms graph with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" l.Isched_frontend.Ast.name e))
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ())

let test_modulo_qcd_insight () =
  (* On a recurrence-bound loop, one software-pipelined CPU is
     competitive with the whole multiprocessor. *)
  let _, g, ms = modulo_of "DOACROSS I = 1, 100\n A[I] = A[I-1] * C[I] + E[I]\nENDDO" in
  let doacross = (Timing.run (Isched_core.Sync_sched.run g m4)).Timing.finish in
  Alcotest.(check bool) "within 25% of n processors" true
    (Modulo_sched.total_time ms < doacross * 5 / 4)

(* --- Asm --- *)

module Asm = Isched_codegen.Asm

let test_asm_emits () =
  let p = compile fig1 in
  match Asm.emit ~k:8 p with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok text ->
    let has affix =
      let n = String.length text and m = String.length affix in
      let rec go i = i + m <= n && (String.sub text i m = affix || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "loads" true (has "lw     r");
    Alcotest.(check bool) "array base" true (has "A(r");
    Alcotest.(check bool) "send" true (has "send   S3");
    Alcotest.(check bool) "wait with distance" true (has "wait   S3, I-2");
    Alcotest.(check bool) "fp add" true (has "addf");
    Alcotest.(check bool) "shift immediate" true (has "slli")

let test_asm_register_bound () =
  let p = compile fig1 in
  match Asm.emit ~k:8 p with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok text ->
    (* no physical register above r8 may appear *)
    Alcotest.(check bool) "respects k" false
      (let n = String.length text in
       let rec go i =
         i + 3 <= n
         && ((text.[i] = 'r' && text.[i+1] = '9' && text.[i+2] >= '0' && text.[i+2] <= '9')
            || go (i + 1))
       in
       go 0)

let test_asm_too_few_registers () =
  let p = compile fig1 in
  match Asm.emit ~k:2 p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "2 registers should not suffice without spilling"

let test_asm_spill_then_emit () =
  (* The documented recovery: materialize spill code, then emit at the
     same k. *)
  let p = compile fig1 in
  let r = Isched_codegen.Spill.insert p ~k:4 in
  match Asm.emit ~k:6 r.Isched_codegen.Spill.prog with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spilled program still does not fit: %s" e

let test_asm_schedule_bundles () =
  let p = compile fig1 in
  let g = Dfg.build p in
  let s = Isched_core.Sync_sched.run g m4 in
  match Asm.emit_schedule ~k:10 s with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok text ->
    let bundles =
      List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)) - 2
    in
    check Alcotest.int "one bundle per row" s.Schedule.length bundles

(* --- Viz --- *)

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_viz_ascii () =
  let s = sched_of fig1 in
  let a = Isched_sim.Viz.wavefront_ascii ~max_iters:8 s in
  Alcotest.(check bool) "has bars" true (contains a "#");
  Alcotest.(check bool) "labels iterations" true (contains a "iter   1");
  check Alcotest.int "eight bars + header" 9 (List.length (String.split_on_char '\n' (String.trim a)))

let test_viz_ascii_staircase () =
  (* A distance-1 chain: every later iteration starts no earlier. *)
  let s = sched_of "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  let t = Timing.run s in
  let starts = t.Timing.iteration_starts in
  let fins = t.Timing.iteration_finishes in
  (* Every iteration of the chain retires strictly after its
     predecessor (the wait serializes them), even though the leading
     address computations can issue at cycle 0 on every processor. *)
  for k = 1 to Array.length fins - 1 do
    Alcotest.(check bool) "retirement staircase" true (fins.(k) > fins.(k - 1))
  done;
  Array.iteri
    (fun k f -> Alcotest.(check bool) "finish after start" true (f > starts.(k)))
    fins

let test_viz_svg_wellformed () =
  let s = sched_of fig1 in
  List.iter
    (fun svg ->
      Alcotest.(check bool) "opens svg" true (contains svg "<svg xmlns");
      Alcotest.(check bool) "closes svg" true (contains svg "</svg>"))
    [ Isched_sim.Viz.wavefront_svg s; Isched_sim.Viz.schedule_svg s ]

let test_viz_schedule_svg_escapes () =
  (* instruction texts contain '<<'; the SVG must escape them *)
  let s = sched_of fig1 in
  let svg = Isched_sim.Viz.schedule_svg s in
  Alcotest.(check bool) "no raw <<" false (contains svg ">t0 := I << 2<");
  Alcotest.(check bool) "escaped form present" true (contains svg "&lt;&lt;")

let test_viz_svg_marks_sync () =
  let s = sched_of fig1 in
  let svg = Isched_sim.Viz.schedule_svg s in
  Alcotest.(check bool) "sync ops highlighted" true (contains svg "#dd7755");
  Alcotest.(check bool) "wait label present" true (contains svg "Wait_Signal(S3, I-2)")

let suite =
  [
    ("marker: legal schedules", `Quick, test_marker_legal);
    ("marker: waits deferred towards their sinks", `Quick, test_marker_defers_waits);
    ("marker: between list and new on the corpora", `Slow, test_marker_between_baseline_and_new);
    ("marker: value-correct", `Quick, test_marker_value_correct);
    ("unroll: applicability", `Quick, test_unroll_applicability);
    ("unroll: body and trip count", `Quick, test_unroll_shape);
    ("unroll: semantics preserved", `Quick, test_unroll_equivalence);
    ("unroll: distances rescale", `Quick, test_unroll_rescales_distances);
    ("unroll: compiles, schedules, executes", `Quick, test_unroll_compiles_and_runs);
    ("procs: default equals full pool", `Quick, test_procs_default_is_full);
    ("procs: time monotone in the pool size", `Quick, test_procs_monotone);
    ("procs: one processor is serial", `Quick, test_procs_one_is_serial);
    ("procs: chains are pool-insensitive", `Quick, test_procs_chain_insensitive);
    ("procs: rejects empty pools", `Quick, test_procs_invalid);
    ("procs: block vs cyclic assignment", `Quick, test_procs_block_vs_cyclic);
    ("procs: block degenerates at full pool", `Quick, test_procs_block_full_pool_serial_chunks);
    ("spill: identity with enough registers", `Quick, test_spill_identity_when_enough);
    ("spill: rewritten program validates", `Quick, test_spill_validates);
    ("spill: sequential semantics preserved", `Quick, test_spill_semantics_preserved);
    ("spill: parallel execution still exact", `Quick, test_spill_parallel_correct);
    ("spill: traffic monotone in pressure", `Quick, test_spill_monotone_traffic);
    ("spill: rejects k <= 0", `Quick, test_spill_invalid_k);
    ("asm: emission shape", `Quick, test_asm_emits);
    ("asm: respects the register bound", `Quick, test_asm_register_bound);
    ("asm: refuses to spill silently", `Quick, test_asm_too_few_registers);
    ("asm: spill-then-emit recovery", `Quick, test_asm_spill_then_emit);
    ("asm: schedule bundles", `Quick, test_asm_schedule_bundles);
    ("viz: ascii wavefront", `Quick, test_viz_ascii);
    ("viz: chain staircase and finishes", `Quick, test_viz_ascii_staircase);
    ("viz: svg documents well-formed", `Quick, test_viz_svg_wellformed);
    ("viz: svg escapes instruction text", `Quick, test_viz_schedule_svg_escapes);
    ("viz: sync operations highlighted", `Quick, test_viz_svg_marks_sync);
    ("modulo: valid on Fig. 1", `Quick, test_modulo_valid_fig1);
    ("modulo: II respects both bounds", `Quick, test_modulo_ii_bounds);
    ("modulo: recurrence bound", `Quick, test_modulo_recurrence_bound);
    ("modulo: resource-bound without recurrences", `Quick, test_modulo_independent_is_resource_bound);
    ("modulo: total-time formula", `Quick, test_modulo_total_time);
    ("modulo: overlap beats serial", `Quick, test_modulo_beats_serial);
    ("modulo: valid on the whole corpus", `Slow, test_modulo_corpus_valid);
    ("modulo: competitive on recurrence-bound loops", `Quick, test_modulo_qcd_insight);
  ]
