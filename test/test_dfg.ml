(* Tests for the data-flow graph: arcs, aliasing, Sig/Wat/Sigwat
   components, synchronization paths. *)

module Dfg = Isched_dfg.Dfg
module Instr = Isched_ir.Instr
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

let fig1_graph () = Dfg.build (compile fig1)

let has_arc g ~src ~dst kind =
  List.exists (fun (a : Dfg.arc) -> a.Dfg.dst = dst && a.Dfg.kind = kind) (Dfg.succs_list g src)

(* --- aliasing --- *)

let test_may_alias () =
  let r base affine = { Program.base; affine } in
  Alcotest.(check bool) "same affine" true (Dfg.may_alias (r "A" (Some (1, 0))) (r "A" (Some (1, 0))));
  Alcotest.(check bool) "different offsets" false
    (Dfg.may_alias (r "A" (Some (1, 0))) (r "A" (Some (1, -2))));
  Alcotest.(check bool) "different bases" false
    (Dfg.may_alias (r "A" (Some (1, 0))) (r "B" (Some (1, 0))));
  Alcotest.(check bool) "unknown conservative" true (Dfg.may_alias (r "A" None) (r "A" (Some (1, 0))))

(* --- arcs --- *)

let test_data_arcs () =
  let g = fig1_graph () in
  (* instr 5 (load A) feeds instr 9 (the add), 0-based 4 -> 8 *)
  Alcotest.(check bool) "t3 flows into the add" true (has_arc g ~src:4 ~dst:8 Dfg.Data);
  (* instr 2 (t0 := I<<2) feeds the B store (10), B load (22), A store (27) *)
  Alcotest.(check bool) "address reuse arcs" true
    (has_arc g ~src:1 ~dst:9 Dfg.Data && has_arc g ~src:1 ~dst:21 Dfg.Data
    && has_arc g ~src:1 ~dst:26 Dfg.Data)

let test_mem_arcs () =
  let g = fig1_graph () in
  (* store B (10) -> load B (22): same cell, intra-iteration flow *)
  Alcotest.(check bool) "B store to B load" true (has_arc g ~src:9 ~dst:21 Dfg.Mem)

let test_mem_disambiguation () =
  let g = fig1_graph () in
  (* load A[I-2] (5) and store A[I] (27) have different offsets: no arc *)
  Alcotest.(check bool) "A[I-2] vs A[I] disambiguated" false (has_arc g ~src:4 ~dst:26 Dfg.Mem)

let test_sync_arcs () =
  let g = fig1_graph () in
  let p = g.Dfg.prog in
  Array.iter
    (fun (s : Program.signal_info) ->
      Alcotest.(check bool) "src -> send" true
        (has_arc g ~src:s.Program.src_instr ~dst:s.Program.send_instr Dfg.Sync_src))
    p.Program.signals;
  Array.iter
    (fun (w : Program.wait_info) ->
      Alcotest.(check bool) "wait -> snk" true
        (has_arc g ~src:w.Program.wait_instr ~dst:w.Program.snk_instr Dfg.Sync_snk))
    p.Program.waits

let test_no_sync_arcs_variant () =
  let g = Dfg.build ~sync_arcs:false (compile fig1) in
  let any_sync = ref false in
  for i = 0 to g.Dfg.n - 1 do
    if
      List.exists
        (fun (a : Dfg.arc) -> a.Dfg.kind = Dfg.Sync_src || a.Dfg.kind = Dfg.Sync_snk)
        (Dfg.succs_list g i)
    then any_sync := true
  done;
  Alcotest.(check bool) "no sync arcs" false !any_sync

let test_arc_latencies () =
  let g = Dfg.build (compile "DO I = 1, 10\n A[I] = E[I] * C[I] / 2\nENDDO") in
  (* the FMul's consumer arc carries latency 3, the FDiv's 6 *)
  let latency_from_op op =
    let found = ref None in
    Array.iteri
      (fun i ins ->
        match ins with
        | Instr.Bin { op = o; _ } when o = op ->
          List.iter
            (fun (a : Dfg.arc) -> if a.Dfg.kind = Dfg.Data then found := Some a.Dfg.latency)
            (Dfg.succs_list g i)
        | _ -> ())
      g.Dfg.prog.Program.body;
    !found
  in
  check Alcotest.(option int) "mul latency 3" (Some 3) (latency_from_op Instr.FMul);
  check Alcotest.(option int) "div latency 6" (Some 6) (latency_from_op Instr.FDiv)

let test_guard_old_load_protected () =
  (* The if-converted old-value load of a guarded store aliases the
     dependence sink: it must also be behind the wait. *)
  let p = compile "DOACROSS I = 1, 10\n IF (E[I] > 0) A[I] = A[I-1] + 1\nENDDO" in
  let g = Dfg.build p in
  Array.iter
    (fun (w : Program.wait_info) ->
      if w.Program.kind = Program.Output then begin
        (* find the old-value load: a load of A in the same statement
           before the store *)
        let protected_load = ref false in
        for m = w.Program.wait_instr + 1 to w.Program.snk_instr - 1 do
          match p.Program.body.(m) with
          | Instr.Load { base = "A"; _ } ->
            if has_arc g ~src:w.Program.wait_instr ~dst:m Dfg.Sync_snk then protected_load := true
          | _ -> ()
        done;
        Alcotest.(check bool) "old-value load behind the wait" true !protected_load
      end)
    p.Program.waits

(* --- components --- *)

let kind_name = function
  | Dfg.Sig_graph -> "sig"
  | Dfg.Wat_graph -> "wat"
  | Dfg.Sigwat_graph -> "sigwat"
  | Dfg.Plain -> "plain"

let test_components_fig3 () =
  let g = fig1_graph () in
  let comps = Dfg.components g in
  check Alcotest.int "two components" 2 (Array.length comps);
  check
    Alcotest.(list string)
    "one Sigwat and one Wat (Fig. 3)"
    [ "sigwat"; "wat" ]
    (Array.to_list (Array.map (fun c -> kind_name c.Dfg.kind) comps));
  (* The Wat component is exactly statement S2's instructions 11..21. *)
  let wat = comps.(1) in
  check Alcotest.(list int) "Wat graph nodes" [ 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20 ]
    wat.Dfg.nodes

let test_component_of () =
  let g = fig1_graph () in
  let comps = Dfg.components g in
  let owner = Dfg.component_of g comps in
  Array.iter
    (fun (c : Dfg.component) -> List.iter (fun n -> check Alcotest.int "owner" c.Dfg.id owner.(n)) c.Dfg.nodes)
    comps

let test_sig_graph_exists () =
  (* An anti dependence whose source statement is independent makes the
     send's component a pure Sig graph.  Subscripts are chosen distinct
     so the statements share no address computation (as in Fig. 2). *)
  let p = compile "DOACROSS I = 1, 10\n S1: B[I-1] = A[I+1]\n S2: A[I] = E[I-2]\nENDDO" in
  let g = Dfg.build p in
  let kinds = Array.to_list (Array.map (fun c -> kind_name c.Dfg.kind) (Dfg.components g)) in
  Alcotest.(check bool) "has a Sig graph" true (List.mem "sig" kinds)

let test_plain_component () =
  let p = compile "DOACROSS I = 1, 10\n S1: A[I] = A[I-1]\n S2: H[I+1] = E[I+2]\nENDDO" in
  let g = Dfg.build p in
  let kinds = Array.to_list (Array.map (fun c -> kind_name c.Dfg.kind) (Dfg.components g)) in
  Alcotest.(check bool) "independent statement is plain" true (List.mem "plain" kinds)

(* --- sync paths --- *)

let test_sync_path_fig1 () =
  let g = fig1_graph () in
  match Dfg.sync_paths g with
  | [ sp ] ->
    check Alcotest.int "the d=2 wait" 0 sp.Dfg.wait_id;
    check Alcotest.int "distance" 2 sp.Dfg.distance;
    (* paper: nodes 1,5,9,10,22,26,27 (+ the split add) *)
    check Alcotest.(list int) "path nodes" [ 0; 4; 8; 9; 21; 25; 26; 27 ] sp.Dfg.nodes
  | paths -> Alcotest.failf "expected exactly one sync path, got %d" (List.length paths)

let test_sync_path_shortest () =
  let g = fig1_graph () in
  List.iter
    (fun (sp : Dfg.sync_path) ->
      (* consecutive nodes connected by arcs *)
      let rec ok = function
        | a :: b :: rest ->
          List.exists (fun (arc : Dfg.arc) -> arc.Dfg.dst = b) (Dfg.succs_list g a) && ok (b :: rest)
        | _ -> true
      in
      Alcotest.(check bool) "path follows arcs" true (ok sp.Dfg.nodes))
    (Dfg.sync_paths g)

let test_no_path_when_convertible () =
  (* consumer-only LBD: no wait -> send path *)
  let p = compile "DOACROSS I = 1, 10\n S1: B[I] = A[I-1]\n S2: A[I] = E[I]\nENDDO" in
  let g = Dfg.build p in
  check Alcotest.int "no sync path" 0 (List.length (Dfg.sync_paths g))

let test_longest_path () =
  let g = fig1_graph () in
  let dist = Dfg.longest_path_to_exit g in
  check Alcotest.int "send is terminal" 0 dist.(27);
  (* dist is a consistent longest-path labelling: every arc satisfies
     dist(src) >= latency + dist(dst), with equality on some arc for
     non-terminal nodes. *)
  for i = 0 to g.Dfg.n - 1 do
    let arcs = Dfg.succs_list g i in
    List.iter
      (fun (a : Dfg.arc) ->
        Alcotest.(check bool) "monotone" true (dist.(i) >= a.Dfg.latency + dist.(a.Dfg.dst)))
      arcs;
    if arcs <> [] then
      Alcotest.(check bool) "tight" true
        (List.exists (fun (a : Dfg.arc) -> dist.(i) = a.Dfg.latency + dist.(a.Dfg.dst)) arcs)
  done

let test_dot_output () =
  let g = fig1_graph () in
  let s = Format.asprintf "%a" Dfg.pp_dot g in
  let has affix =
    let n = String.length s and m = String.length affix in
    let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph dfg");
  Alcotest.(check bool) "triangle sends" true (has "shape=triangle");
  Alcotest.(check bool) "inverted triangle waits" true (has "shape=invtriangle")

let test_graph_is_acyclic_forward () =
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          let g = Dfg.build (Isched_codegen.Codegen.compile l) in
          for i = 0 to g.Dfg.n - 1 do
            List.iter
              (fun (a : Dfg.arc) ->
                Alcotest.(check bool) "forward arc" true (a.Dfg.src = i && a.Dfg.dst > i))
              (Dfg.succs_list g i)
          done)
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ())

(* The counting-sort priority order is the comparison sort it replaced:
   critical path first, ties towards program order. *)
let test_priority_order_sorted () =
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          let g = Dfg.build (Isched_codegen.Codegen.compile l) in
          let prio = Dfg.longest_path_to_exit g in
          let expected = Array.init g.Dfg.n (fun i -> i) in
          Array.stable_sort (fun a b -> Int.compare prio.(b) prio.(a)) expected;
          Alcotest.(check (array int)) "priority order" expected (Dfg.priority_order g))
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ())

let suite =
  [
    ("alias: affine disambiguation", `Quick, test_may_alias);
    ("arcs: def-use data arcs", `Quick, test_data_arcs);
    ("arcs: memory flow within the iteration", `Quick, test_mem_arcs);
    ("arcs: affine references disambiguated", `Quick, test_mem_disambiguation);
    ("arcs: synchronization conditions", `Quick, test_sync_arcs);
    ("arcs: sync arcs can be omitted", `Quick, test_no_sync_arcs_variant);
    ("arcs: producer latencies", `Quick, test_arc_latencies);
    ("arcs: guarded old-value load protected", `Quick, test_guard_old_load_protected);
    ("components: Fig. 3 partition", `Quick, test_components_fig3);
    ("components: node ownership", `Quick, test_component_of);
    ("components: Sig graphs from anti deps", `Quick, test_sig_graph_exists);
    ("components: plain components", `Quick, test_plain_component);
    ("paths: Fig. 3 synchronization path", `Quick, test_sync_path_fig1);
    ("paths: paths follow arcs", `Quick, test_sync_path_shortest);
    ("paths: absent for convertible pairs", `Quick, test_no_path_when_convertible);
    ("priorities: longest path to exit", `Quick, test_longest_path);
    ("dot output", `Quick, test_dot_output);
    ("graphs of the whole corpus are forward DAGs", `Quick, test_graph_is_acyclic_forward);
    ("priorities: counting-sort order equals the comparison sort", `Quick,
      test_priority_order_sorted);
  ]
