(* Tests for synchronization insertion, redundant-sync elimination and
   statement migration. *)

module Plan = Isched_sync.Plan
module Migrate = Isched_sync.Migrate
module Dep = Isched_deps.Dep
module Ast = Isched_frontend.Ast
module Parser = Isched_frontend.Parser

let check = Alcotest.check
let parse = Parser.parse_loop

let fig1 =
  "DOACROSS I = 1, 100\n\
  \ S1: B[I] = A[I-2] + E[I+1]\n\
  \ S2: G[I-3] = A[I-1] * E[I+2]\n\
  \ S3: A[I] = B[I] + C[I+3]\n\
   ENDDO"

(* --- Plan --- *)

let test_plan_fig1 () =
  let plan = Plan.build (parse fig1) in
  check Alcotest.int "one signal" 1 (Array.length plan.Plan.signals);
  check Alcotest.int "two pairs" 2 (Array.length plan.Plan.pairs);
  check Alcotest.string "signal labelled S3" "S3" plan.Plan.signals.(0).Plan.label;
  check Alcotest.(list int) "distances" [ 2; 1 ]
    (Array.to_list (Array.map (fun p -> p.Plan.distance) plan.Plan.pairs));
  check Alcotest.int "no LFD" 0 (Plan.n_lfd plan);
  check Alcotest.int "two LBD" 2 (Plan.n_lbd plan)

let test_plan_shared_signal () =
  (* Both waits reference the same signal: one send serves both, as in
     Fig. 1(b). *)
  let plan = Plan.build (parse fig1) in
  Array.iter
    (fun (p : Plan.pair) -> check Alcotest.int "same signal" 0 p.Plan.signal)
    plan.Plan.pairs

let test_plan_annotated_output () =
  let l = parse fig1 in
  let plan = Plan.build l in
  let s = Format.asprintf "%a" (fun ppf () -> Plan.pp_annotated ppf l plan) () in
  let has affix =
    let n = String.length s and m = String.length affix in
    let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "wait d=2" true (has "Wait_Signal(S3, I-2)");
  Alcotest.(check bool) "wait d=1" true (has "Wait_Signal(S3, I-1)");
  Alcotest.(check bool) "send" true (has "Send_Signal(S3)");
  (* The d=2 wait is printed before S1, the send after S3. *)
  let pos affix =
    let n = String.length s and m = String.length affix in
    let rec go i = if i + m > n then -1 else if String.sub s i m = affix then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "wait before its sink statement" true
    (pos "Wait_Signal(S3, I-2)" < pos "B[I]");
  Alcotest.(check bool) "send after its source statement" true (pos "Send_Signal(S3)" > pos "A[I] =")

let test_plan_unknown_distance_pinned () =
  let plan = Plan.build (parse "DOACROSS I = 1, 10\n A[IDX[I]] = A[IDX[I+1]] + 1\nENDDO") in
  Array.iter
    (fun (p : Plan.pair) -> check Alcotest.int "distance pinned to 1" 1 p.Plan.distance)
    plan.Plan.pairs

let test_plan_of_deps_subset () =
  let l = parse fig1 in
  let deps = Dep.carried_deps l in
  let one = [ List.hd deps ] in
  let plan = Plan.of_deps l one in
  check Alcotest.int "single pair" 1 (Array.length plan.Plan.pairs)

(* --- redundant-sync elimination (post-codegen transitive reduction, Isched_sync.Elim) --- *)

let n_waits (p : Isched_ir.Program.t) = Array.length p.Isched_ir.Program.waits

module Elim = Isched_sync.Elim
module Prog = Isched_ir.Program
module Dfg = Isched_dfg.Dfg
module Pipeline = Isched_harness.Pipeline

let elim_of src =
  let p = Isched_codegen.Codegen.compile (parse src) in
  let g = Dfg.build p in
  (p, Elim.run p g)

(* Restructuring only replaces UNguarded scalar reductions, so this
   kernel reaches codegen with flow, anti and output pairs on S — a
   shape only a pass that trusts the surviving sync arcs can thin. *)
let guarded_sum = "DOACROSS I = 1, 50\n IF (E[I] > 0) S = S + Q[I] * C[I]\nENDDO"

let test_elim_constant_cell () =
  (* Repeated accesses to fixed cells: per cell, flow, anti and output
     dependences all at distance 1, and one of the three waits covers
     the other two.  Candidates go in wait-table order, so each cell
     keeps its last wait (the output wait). *)
  List.iter
    (fun (src, before, removed) ->
      let p, r = elim_of src in
      check Alcotest.int "waits initially" before (n_waits p);
      check Alcotest.(list int) "removed waits" removed
        (List.map (fun e -> e.Elim.wait.Prog.wait) r.Elim.eliminated);
      check Alcotest.int "waits remaining" (before - List.length removed) (n_waits r.Elim.prog);
      Prog.validate r.Elim.prog)
    [
      ("DOACROSS I = 1, 50\n A[5] = A[5] + E[I]\nENDDO", 3, [ 0; 1 ]);
      ( "DOACROSS I = 1, 50\n S1: A[3] = A[3] + E[I]\n S2: A[7] = A[7] * C[I]\nENDDO",
        6,
        [ 0; 1; 3; 4 ] );
    ]

let test_elim_guarded_sum () =
  let p, r = elim_of guarded_sum in
  check Alcotest.int "three waits initially" 3 (n_waits p);
  check Alcotest.int "elim removes the anti and output waits" 2 (List.length r.Elim.eliminated);
  check Alcotest.int "one wait remains" 1 (n_waits r.Elim.prog);
  Prog.validate r.Elim.prog

let test_elim_keeps_fig1 () =
  let p, r = elim_of fig1 in
  check Alcotest.int "nothing eliminated" 0 (List.length r.Elim.eliminated);
  Alcotest.(check bool) "program returned unchanged" true (r.Elim.prog == p);
  Array.iteri
    (fun i j -> check Alcotest.int "identity index map" i j)
    r.Elim.index_map

let test_elim_statement_level_rule_rejected () =
  (* The statement-level Midkiff-Padua rule would drop the d=2 pair
     here (covered by the d=1 chain through textual order), but
     instruction scheduling can hoist the A[I-2] load above S2's wait,
     so the pass must keep it. *)
  let src =
    "DOACROSS I = 1, 50\n S1: A[I] = E[I]\n S2: B[I] = A[I-1]\n S3: C2[I] = B[I-1] + A[I-2]\nENDDO"
  in
  let _, r = elim_of src in
  check Alcotest.int "all pairs kept" 0 (List.length r.Elim.eliminated)

let test_elim_chain_distances () =
  List.iter
    (fun src ->
      let _, r = elim_of src in
      let removed = List.map (fun e -> e.Elim.wait.Prog.wait) r.Elim.eliminated in
      List.iter
        (fun (e : Elim.elimination) ->
          let total =
            List.fold_left (fun acc s -> acc + s.Elim.via_distance) 0 e.Elim.chain
          in
          check Alcotest.int "chain distances sum to the eliminated distance"
            e.Elim.wait.Prog.distance total;
          List.iter
            (fun (s : Elim.step) ->
              Alcotest.(check bool) "hops ride surviving waits only" false
                (List.mem s.Elim.via_wait removed))
            e.Elim.chain)
        r.Elim.eliminated)
    [ "DOACROSS I = 1, 50\n A[5] = A[5] + E[I]\nENDDO"; guarded_sum ]

let test_elim_index_map () =
  let p, r = elim_of guarded_sum in
  let dropped = Array.fold_left (fun acc j -> if j < 0 then acc + 1 else acc) 0 r.Elim.index_map in
  check Alcotest.int "dropped count matches the body shrink" dropped
    (Array.length p.Prog.body - Array.length r.Elim.prog.Prog.body);
  Array.iteri
    (fun i j ->
      if j >= 0 then begin
        let old_i = p.Prog.body.(i) and new_i = r.Elim.prog.Prog.body.(j) in
        check Alcotest.bool "sync-ness preserved" (Isched_ir.Instr.is_sync old_i)
          (Isched_ir.Instr.is_sync new_i);
        if not (Isched_ir.Instr.is_sync old_i) then
          Alcotest.(check bool) "non-sync instructions map unchanged" true (old_i = new_i)
      end
      else
        Alcotest.(check bool) "only Send/Wait instructions drop" true
          (Isched_ir.Instr.is_sync p.Prog.body.(i)))
    r.Elim.index_map

let test_elim_schedules_check () =
  (* Every elimination is machine-checked: the independent static
     analyzer plus the differential value-simulation oracle over all
     three schedulers on the reduced program. *)
  let _, r = elim_of guarded_sum in
  Alcotest.(check bool) "something was eliminated" true (r.Elim.eliminated <> []);
  let m = Isched_ir.Machine.make ~issue:4 ~nfu:1 () in
  List.iter
    (fun run ->
      let s = run r.Elim.graph m in
      (match Isched_check.Static.check ~graph:r.Elim.graph s with
      | Ok () -> ()
      | Error vs -> Alcotest.failf "static: %d violation(s)" (List.length vs));
      match Isched_check.Oracle.differential s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "oracle: %s" (String.concat "; " es))
    [ Isched_core.List_sched.run; Isched_core.Marker_sched.run; Isched_core.Sync_sched.run ]

(* Reachability in the K-iteration unfolding of the reduced program:
   intra-iteration edges are the reduced graph's arcs (data, memory and
   the surviving sync-condition arcs), cross-iteration edges are the
   surviving pairs' [Send@i -> Wait@(i+d)].  This is an independent
   re-derivation of what the pass promises, with none of its machinery
   shared. *)
let unfolded_reaches (rp : Prog.t) (rg : Dfg.t) ~src ~goal ~d =
  let n = Array.length rp.Prog.body in
  let visited = Array.make (n * (d + 1)) false in
  let q = Queue.create () in
  let push node iter =
    if iter <= d && not visited.((iter * n) + node) then begin
      visited.((iter * n) + node) <- true;
      Queue.push (node, iter) q
    end
  in
  push src 0;
  let found = ref false in
  while not (Queue.is_empty q) && not !found do
    let node, iter = Queue.pop q in
    if node = goal && iter = d then found := true
    else begin
      List.iter (fun (a : Dfg.arc) -> push a.Dfg.dst iter) (Dfg.succs_list rg node);
      Array.iter
        (fun (k : Prog.wait_info) ->
          if node = rp.Prog.signals.(k.Prog.signal).Prog.send_instr then
            push k.Prog.wait_instr (iter + k.Prog.distance))
        rp.Prog.waits
    end
  done;
  !found

let elim_random_closure =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"elim: eliminated orderings stay transitively derivable (unfolded graph)"
       QCheck2.Gen.(int_range 0 100000)
       (fun seed ->
         let profile = { Isched_perfect.Profile.mdg with seed; n_generated = 1 } in
         match Isched_perfect.Genloop.generate profile with
         | [ l ] -> (
           match Pipeline.prepare_uncached Pipeline.default_options l with
           | Pipeline.Doall _ -> true
           | Pipeline.Doacross { prog = p; graph = g; _ } ->
             let r = Elim.run p g in
             List.for_all
               (fun (e : Elim.elimination) ->
                 let w = e.Elim.wait in
                 let src = r.Elim.index_map.(p.Prog.signals.(w.Prog.signal).Prog.src_instr) in
                 src >= 0
                 && List.for_all
                      (fun goal ->
                        let goal = r.Elim.index_map.(goal) in
                        goal >= 0
                        && unfolded_reaches r.Elim.prog r.Elim.graph ~src ~goal
                             ~d:w.Prog.distance)
                      (Dfg.protected_of_wait p w))
               r.Elim.eliminated)
         | _ -> false))

let elim_random_values =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:"elim: value simulation equals the sequential reference on generated loops"
       QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 2))
       (fun (seed, which) ->
         let profile = { Isched_perfect.Profile.mdg with seed; n_generated = 1 } in
         match Isched_perfect.Genloop.generate profile with
         | [ l ] -> (
           let l = { l with Ast.hi = l.Ast.lo + 11 } in
           let options = { Pipeline.default_options with Pipeline.sync_elim = true } in
           match Pipeline.prepare_uncached options l with
           | Pipeline.Doall _ -> true
           | Pipeline.Doacross { graph; _ } ->
             let m = Isched_ir.Machine.make ~issue:4 ~nfu:1 () in
             let s =
               match which with
               | 0 -> Isched_core.List_sched.run graph m
               | 1 -> Isched_core.Marker_sched.run graph m
               | _ -> Isched_core.Sync_sched.run graph m
             in
             Isched_check.Oracle.differential s = Ok ())
         | _ -> false))

(* Elimination against its reference model ([Elim_ref]: the bool-matrix
   reachability): the eliminated waits with their chains, the index map
   and the reduced program must all be equal. *)
let elim_agrees (p : Prog.t) g =
  let r = Elim.run p g in
  let prog, eliminated, index_map = Elim_ref.run p g in
  r.Elim.eliminated = eliminated && r.Elim.index_map = index_map && r.Elim.prog = prog

(* Every unreduced DOACROSS program of the scale-20 corpus, where rows
   span up to two bitset words and 92 waits and 45 sends go. *)
let test_elim_reference_corpus () =
  let waits = ref 0 and sends = ref 0 in
  List.iter
    (fun profile ->
      List.iter
        (fun c ->
          List.iter
            (fun l ->
              match Pipeline.prepare_uncached Pipeline.default_options l with
              | Pipeline.Doall _ -> ()
              | Pipeline.Doacross { prog = p; graph = g; _ } ->
                if not (elim_agrees p g) then
                  Alcotest.failf "%s: differs from the reference" p.Prog.name;
                let r = Elim.run p g in
                waits := !waits + List.length r.Elim.eliminated;
                sends :=
                  !sends + Array.length p.Prog.signals - Array.length r.Elim.prog.Prog.signals)
            (Isched_perfect.Suite.chunk_loops c))
        (Isched_perfect.Suite.chunks ~scale:20 profile))
    Isched_perfect.Profile.all;
  check Alcotest.int "waits removed" 92 !waits;
  check Alcotest.int "sends removed" 45 !sends

let elim_reference_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"elim: bitset reachability agrees with the reference on generated loops"
       QCheck2.Gen.(int_range 0 100000)
       (fun seed ->
         let profile = { Isched_perfect.Profile.mdg with seed; n_generated = 1 } in
         match Isched_perfect.Genloop.generate profile with
         | [ l ] -> (
           match Pipeline.prepare_uncached Pipeline.default_options l with
           | Pipeline.Doall _ -> true
           | Pipeline.Doacross { prog; graph; _ } -> elim_agrees prog graph)
         | _ -> false))

(* --- Migrate --- *)

let test_migrate_converts_lbd () =
  (* The source statement can legally hoist above the sink. *)
  let l = parse "DOACROSS I = 1, 50\n S1: B[I] = A[I-1]\n S2: A[I] = E[I]\nENDDO" in
  let l' = Migrate.reorder l in
  let labels = List.map (fun (s : Ast.stmt) -> s.Ast.label) l'.Ast.body in
  check Alcotest.(list string) "source hoisted" [ "S2"; "S1" ] labels;
  let deps = Dep.carried_deps l' in
  Alcotest.(check bool) "now lexically forward" true
    (List.for_all (fun (d : Dep.t) -> d.Dep.lexical = Dep.LFD) deps)

let test_migrate_respects_program_order () =
  (* S2 uses B[I] written by S1: the pair cannot be swapped even though
     doing so would convert the LBD on A. *)
  let l = parse "DOACROSS I = 1, 50\n S1: B[I] = A[I-1]\n S2: A[I] = B[I] + E[I]\nENDDO" in
  let l' = Migrate.reorder l in
  let labels = List.map (fun (s : Ast.stmt) -> s.Ast.label) l'.Ast.body in
  check Alcotest.(list string) "order kept" [ "S1"; "S2" ] labels

let test_migrate_preserves_semantics () =
  let src =
    "DOACROSS I = 1, 30\n\
    \ S1: B[I] = A[I-1]\n\
    \ S2: H[I] = E[I] * C[I]\n\
    \ S3: A[I] = E[I] + C[I+1]\n\
     ENDDO"
  in
  let l = parse src in
  let l' = Migrate.reorder l in
  let m1 = Isched_exec.Ast_interp.run l in
  let m2 = Isched_exec.Ast_interp.run l' in
  Alcotest.(check bool) "same final memory" true (Isched_exec.Memory.equal m1 m2)

let migrate_random_legal =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"migrate: reordering preserves semantics on generated loops"
       QCheck2.Gen.(int_range 0 100000)
       (fun seed ->
         let profile = { Isched_perfect.Profile.track with seed; n_generated = 1; n_iters = 10 } in
         match Isched_perfect.Genloop.generate profile with
         | [ l ] ->
           let l = { l with Ast.hi = l.Ast.lo + 9 } in
           let l' = Migrate.reorder l in
           Isched_exec.Memory.equal (Isched_exec.Ast_interp.run l) (Isched_exec.Ast_interp.run l')
         | _ -> false))

let suite =
  [
    ("plan: Fig. 1 pairs and signal", `Quick, test_plan_fig1);
    ("plan: one send serves both waits", `Quick, test_plan_shared_signal);
    ("plan: annotated source (Fig. 1b)", `Quick, test_plan_annotated_output);
    ("plan: unknown distances pinned to 1", `Quick, test_plan_unknown_distance_pinned);
    ("plan: of_deps respects the subset", `Quick, test_plan_of_deps_subset);
    ("elim: constant-cell accumulation thinned", `Quick, test_elim_constant_cell);
    ("elim: guarded scalar sum thinned", `Quick, test_elim_guarded_sum);
    ("elim: statement-level rule still rejected", `Quick, test_elim_statement_level_rule_rejected);
    ("elim: chain distances sum to d, hops survive", `Quick, test_elim_chain_distances);
    ("elim: index map is consistent", `Quick, test_elim_index_map);
    ("elim: schedules pass static + oracle", `Quick, test_elim_schedules_check);
    elim_random_closure;
    ("elim: Fig. 1 untouched, identity map", `Quick, test_elim_keeps_fig1);
    elim_random_values;
    ("migrate: converts LBD to LFD when legal", `Quick, test_migrate_converts_lbd);
    ("migrate: never breaks intra-iteration deps", `Quick, test_migrate_respects_program_order);
    ("migrate: semantics preserved", `Quick, test_migrate_preserves_semantics);
    migrate_random_legal;
    ("elim: bitset reachability agrees with the reference on the scale-20 corpus", `Slow,
      test_elim_reference_corpus);
    elim_reference_random;
  ]
