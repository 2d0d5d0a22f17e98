(* Tests for the execution substrate: value semantics, shared memory,
   the AST and three-address reference interpreters and the read log. *)

module Semantics = Isched_exec.Semantics
module Memory = Isched_exec.Memory
module Ast_interp = Isched_exec.Ast_interp
module Prog_interp = Isched_exec.Prog_interp
module Readlog = Isched_exec.Readlog
module Instr = Isched_ir.Instr
module Parser = Isched_frontend.Parser

let check = Alcotest.check
let parse = Parser.parse_loop

(* --- Semantics --- *)

let test_semantics_arith () =
  check (Alcotest.float 0.) "add" 5. (Semantics.binop Instr.FAdd 2. 3.);
  check (Alcotest.float 0.) "sub" (-1.) (Semantics.binop Instr.Sub 2. 3.);
  check (Alcotest.float 0.) "mul" 6. (Semantics.binop Instr.FMul 2. 3.);
  check (Alcotest.float 0.) "div" 2.5 (Semantics.binop Instr.FDiv 5. 2.)

let test_semantics_div_by_zero () =
  check (Alcotest.float 0.) "x/0 = 0" 0. (Semantics.binop Instr.FDiv 5. 0.);
  check (Alcotest.float 0.) "int div too" 0. (Semantics.binop Instr.Div 5. 0.)

let test_semantics_shifts () =
  check (Alcotest.float 0.) "3 << 2 = 12" 12. (Semantics.binop Instr.Shl 3. 2.);
  check (Alcotest.float 0.) "-2 << 2 = -8" (-8.) (Semantics.binop Instr.Shl (-2.) 2.);
  check (Alcotest.float 0.) "-8 >> 2 = -2" (-2.) (Semantics.binop Instr.Shr (-8.) 2.)

let test_semantics_compare_select () =
  check (Alcotest.float 0.) "lt true" 1. (Semantics.binop Instr.CmpLt 1. 2.);
  check (Alcotest.float 0.) "ge false" 0. (Semantics.binop Instr.CmpGe 1. 2.);
  check (Alcotest.float 0.) "select true" 7. (Semantics.select 1. 7. 9.);
  check (Alcotest.float 0.) "select false" 9. (Semantics.select 0. 7. 9.)

let test_semantics_to_int_clamps () =
  check Alcotest.int "nan" 0 (Semantics.to_int Float.nan);
  check Alcotest.int "inf" 0 (Semantics.to_int Float.infinity);
  check Alcotest.int "huge" 0 (Semantics.to_int 1e300);
  check Alcotest.int "normal" (-7) (Semantics.to_int (-7.))

let test_semantics_init_values () =
  Alcotest.(check bool) "deterministic" true
    (Semantics.eq (Semantics.init_value "A" 5) (Semantics.init_value "A" 5));
  Alcotest.(check bool) "never zero" true (Semantics.init_value "A" 3 <> 0.);
  Alcotest.(check bool) "scalar deterministic" true
    (Semantics.eq (Semantics.init_scalar "K") (Semantics.init_scalar "K"))

let test_semantics_eq_nan () =
  Alcotest.(check bool) "nan = nan bitwise" true (Semantics.eq Float.nan Float.nan);
  Alcotest.(check bool) "1 <> 2" false (Semantics.eq 1. 2.)

(* --- Memory --- *)

let test_memory_defaults () =
  let m = Memory.create () in
  Alcotest.(check bool) "array default" true
    (Semantics.eq (Memory.get m "A" 3) (Semantics.init_value "A" 3));
  Alcotest.(check bool) "scalar default" true
    (Semantics.eq (Memory.get_scalar m "K") (Semantics.init_scalar "K"))

let test_memory_set_get () =
  let m = Memory.create () in
  Memory.set m "A" (-4) 2.5 (Memory.Written { iter = 1; instr = 0 });
  check (Alcotest.float 0.) "negative index" 2.5 (Memory.get m "A" (-4));
  check
    (Alcotest.testable Memory.pp_tag ( = ))
    "tag recorded"
    (Memory.Written { iter = 1; instr = 0 })
    (Memory.tag_of m "A" (-4));
  check (Alcotest.testable Memory.pp_tag ( = )) "unwritten is initial" Memory.Initial
    (Memory.tag_of m "A" 0)

let test_memory_equal_diff () =
  let a = Memory.create () and b = Memory.create () in
  Alcotest.(check bool) "fresh equal" true (Memory.equal a b);
  Memory.set a "A" 1 5. Memory.Initial;
  Alcotest.(check bool) "diverged" false (Memory.equal a b);
  Alcotest.(check bool) "diff mentions the cell" true
    (match Memory.diff a b with [ d ] -> String.length d > 0 | _ -> false);
  Memory.set b "A" 1 5. Memory.Initial;
  Alcotest.(check bool) "equal again" true (Memory.equal a b)

let test_memory_written_cells_sorted () =
  let m = Memory.create () in
  Memory.set m "B" 2 1. Memory.Initial;
  Memory.set m "A" 9 1. Memory.Initial;
  Memory.set m "A" 1 1. Memory.Initial;
  check
    Alcotest.(list (pair (pair string int) (float 0.)))
    "sorted"
    [ (("A", 1), 1.); (("A", 9), 1.); (("B", 2), 1.) ]
    (Memory.written_cells m)

(* [equal] walks each side's written cells and stops at the first
   difference; [diff] builds the sorted union.  They must agree,
   bitwise: NaN payloads, signed zeros, negative indices, scalars, and
   cells written on one side only to their own initial value. *)
let prop_memory_equal_is_empty_diff =
  let nan_a = Int64.float_of_bits 0x7FF800000000000AL
  and nan_b = Int64.float_of_bits 0x7FF0000000000002L in
  (* Value 0 is the target cell's own initial value. *)
  let value ~scalar name idx = function
    | 0 -> if scalar then Semantics.init_scalar name else Semantics.init_value name idx
    | v -> [| 0.; -0.; 1.; -3.; nan_a; nan_b; Float.nan |].(v - 1)
  in
  let apply (a, b) (side, scalar, name, idx, v) =
    let x = value ~scalar name idx v in
    let tag = Memory.Written { iter = idx; instr = v } in
    let write m = if scalar then Memory.set_scalar m name x tag else Memory.set m name idx x tag in
    if side <> 2 then write a;
    if side <> 1 then write b
  in
  let gen_op =
    QCheck2.Gen.(
      tup5
        (frequencyl [ (4, 0); (1, 1); (1, 2) ])
        bool (oneofl [ "A"; "B" ]) (int_range (-3) 3) (int_range 0 7))
  in
  let print (side, scalar, name, idx, v) =
    Printf.sprintf "%s %s%s := #%d" [| "both"; "left"; "right" |].(side) name
      (if scalar then "" else Printf.sprintf "[%d]" idx) v
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"memory: equal iff diff is empty"
       ~print:QCheck2.Print.(list print)
       QCheck2.Gen.(list_size (int_range 0 12) gen_op)
       (fun ops ->
         let a = Memory.create () and b = Memory.create () in
         List.iter (apply (a, b)) ops;
         Memory.equal a b = (Memory.diff a b = []) && Memory.equal b a = Memory.equal a b))

let test_memory_equal_cases () =
  let a = Memory.create () and b = Memory.create () in
  Memory.set a "A" (-2) (Semantics.init_value "A" (-2)) (Memory.Written { iter = 1; instr = 0 });
  Memory.set_scalar b "S" (Semantics.init_scalar "S") Memory.Initial;
  Alcotest.(check bool) "one-sided writes of the initial value" true (Memory.equal a b);
  Memory.set a "A" 0 0. Memory.Initial;
  Memory.set b "A" 0 (-0.) Memory.Initial;
  Alcotest.(check bool) "0.0 and -0.0 differ" false (Memory.equal a b);
  Alcotest.(check int) "one diff line" 1 (List.length (Memory.diff a b));
  Memory.set b "A" 0 0. Memory.Initial;
  Memory.set a "A" 3 Float.nan Memory.Initial;
  Memory.set b "A" 3 Float.nan Memory.Initial;
  Alcotest.(check bool) "the same NaN is equal" true (Memory.equal a b);
  Memory.set b "A" 3 (Int64.float_of_bits 0x7FF800000000000AL) Memory.Initial;
  Alcotest.(check bool) "NaN payloads differ" false (Memory.equal a b)

let test_memory_read () =
  let m = Memory.create () in
  let tag = Memory.Written { iter = 4; instr = 2 } in
  Memory.set m "A" (-1) 7. tag;
  let c = Memory.read m "A" (-1) in
  check (Alcotest.float 0.) "value" 7. c.Memory.value;
  Alcotest.(check bool) "tag" true (Memory.tag_equal tag c.Memory.tag);
  let c = Memory.read m "A" 5 in
  Alcotest.(check bool) "unwritten: initial value" true
    (Semantics.eq c.Memory.value (Semantics.init_value "A" 5));
  Alcotest.(check bool) "unwritten: initial tag" true (Memory.tag_equal Memory.Initial c.Memory.tag);
  Alcotest.(check bool) "tags differ by instr" false
    (Memory.tag_equal tag (Memory.Written { iter = 4; instr = 3 }))

(* The slot-addressed store against the hashtable store it replaced
   ([Memory_ref]): random writes, reads and slot touches on two memories,
   then every by-name query and the comparison of the two.  Scalar and
   array cells share names; indices are negative, near each other or
   10^6 apart (past any window, so they spill); tags include a written
   [Initial] and the AST interpreter's [instr = -1]. *)
let prop_memory_matches_reference =
  let module R = Memory_ref in
  let open QCheck2.Gen in
  let index =
    oneof
      [ int_range (-5) 40; map (fun k -> k * 1_000_000) (int_range (-3) 3);
        int_range (-(1 lsl 30)) (1 lsl 30) ]
  in
  let tag =
    oneof
      [ return Memory.Initial;
        map2 (fun iter instr -> Memory.Written { iter; instr }) (int_range (-3) 3) (int_range (-1) 5) ]
  in
  let value = oneofl [ 0.; -0.; 1.; -3.; Float.nan; Int64.float_of_bits 0x7FF800000000000AL ] in
  (* kind: 0 write, 1 query, 2 touch the cell through its slot *)
  let op = tup6 (int_range 0 2) (int_range 0 2) bool (oneofl [ "A"; "B" ]) index (pair value tag) in
  let print (kind, side, scalar, name, idx, (v, t)) =
    Printf.sprintf "%s %s %s%s %h %s" [| "write"; "query"; "touch" |].(kind)
      [| "both"; "left"; "right" |].(side) name
      (if scalar then "" else Printf.sprintf "[%d]" idx)
      v (Format.asprintf "%a" Memory.pp_tag t)
  in
  let same_cell (c : Memory.cell) (r : R.cell) = Semantics.eq c.value r.value && Memory.tag_equal c.tag r.tag in
  let same_list eq a b = List.length a = List.length b && List.for_all2 eq a b in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"memory: slot store matches the hashtable reference"
       ~print:QCheck2.Print.(list print)
       (list_size (int_range 0 40) op)
       (fun ops ->
         let a = Memory.create () and b = Memory.create () and ra = R.create () and rb = R.create () in
         let ok = ref true in
         List.iter
           (fun (kind, side, scalar, name, idx, (v, t)) ->
             List.iter
               (fun (m, r) ->
                 match kind with
                 | 0 ->
                   if scalar then (Memory.set_scalar m name v t; R.set_scalar r name v t)
                   else (Memory.set m name idx v t; R.set r name idx v t)
                 | 1 ->
                   ok :=
                     !ok
                     && (if scalar then same_cell (Memory.read_scalar m name) (R.read_scalar r name)
                         && Semantics.eq (Memory.get_scalar m name) (R.get_scalar r name)
                         && Memory.tag_equal (Memory.scalar_tag_of m name) (R.scalar_tag_of r name)
                        else same_cell (Memory.read m name idx) (R.read r name idx)
                         && Semantics.eq (Memory.get m name idx) (R.get r name idx)
                         && Memory.tag_equal (Memory.tag_of m name idx) (R.tag_of r name idx))
                 | _ ->
                   ignore
                     (if scalar then Memory.locate (Memory.scalar_slot m name) 0
                      else Memory.locate (Memory.array_slot m name) idx))
               (match side with 0 -> [ (a, ra); (b, rb) ] | 1 -> [ (a, ra) ] | _ -> [ (b, rb) ]))
           ops;
         let eq_cell ((k, v) : _ * float) (k', v') = k = k' && Semantics.eq v v' in
         !ok
         && List.for_all
              (fun (m, r) ->
                same_list eq_cell (Memory.written_cells m) (R.written_cells r)
                && same_list eq_cell (Memory.written_scalars m) (R.written_scalars r))
              [ (a, ra); (b, rb) ]
         && Memory.equal a b = R.equal ra rb
         && Memory.equal b a = R.equal rb ra
         && Memory.diff a b = R.diff ra rb
         && Memory.diff b a = R.diff rb ra))

(* --- interpreters --- *)

let test_ast_interp_simple () =
  let l = parse "DO I = 1, 3\n A[I] = I * 2\nENDDO" in
  let m = Ast_interp.run l in
  check (Alcotest.float 0.) "A[2]" 4. (Memory.get m "A" 2);
  check (Alcotest.float 0.) "A[3]" 6. (Memory.get m "A" 3)

let test_ast_interp_recurrence () =
  let l = parse "DO I = 1, 4\n S1: K = 0 * K\n S2: A[I] = A[I-1] + 1\nENDDO" in
  let m = Ast_interp.run l in
  (* A[0] is the deterministic initial value; each iteration adds 1. *)
  let a0 = Semantics.init_value "A" 0 in
  check (Alcotest.float 0.) "A[4]" (a0 +. 4.) (Memory.get m "A" 4)

let test_ast_interp_guard () =
  let l = parse "DO I = 1, 4\n IF (I > 2) A[I] = 9\nENDDO" in
  let m = Ast_interp.run l in
  Alcotest.(check bool) "A[1] untouched" true
    (Semantics.eq (Memory.get m "A" 1) (Semantics.init_value "A" 1));
  check (Alcotest.float 0.) "A[3] written" 9. (Memory.get m "A" 3)

let agree src =
  let l = parse src in
  let prog = Isched_codegen.Codegen.compile l in
  let m_ast = Ast_interp.run l in
  let m_tac = Prog_interp.run prog in
  match Memory.diff m_ast m_tac with
  | [] -> ()
  | ds -> Alcotest.failf "AST and 3AC disagree on %s: %s" src (String.concat "; " ds)

let test_interp_agreement_basic () = agree "DO I = 1, 10\n A[I] = E[I] * C[I-1] + 2\nENDDO"

let test_interp_agreement_fig1 () =
  agree
    "DOACROSS I = 1, 100\n\
    \ S1: B[I] = A[I-2] + E[I+1]\n\
    \ S2: G[I-3] = A[I-1] * E[I+2]\n\
    \ S3: A[I] = B[I] + C[I+3]\n\
     ENDDO"

let test_interp_agreement_guard () = agree "DO I = 1, 20\n IF (E[I] > 0) A[I] = A[I-1] / C[I]\nENDDO"
let test_interp_agreement_scalar () = agree "DO I = 1, 15\n S1: S = S + E[I]\n S2: OUT[I] = S\nENDDO"
let test_interp_agreement_indirect () = agree "DO I = 1, 10\n A[IDX[I]] = E[I] + 1\nENDDO"
let test_interp_agreement_coef () = agree "DO I = 1, 10\n A[2*I+1] = A[2*I-1] * 1.5\nENDDO"

let test_interp_agreement_corpus () =
  (* the whole surrogate corpus, sequential AST vs sequential 3AC *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      List.iter
        (fun l ->
          let prog = Isched_codegen.Codegen.compile l in
          let m_ast = Ast_interp.run l in
          let m_tac = Prog_interp.run prog in
          if not (Memory.equal m_ast m_tac) then
            Alcotest.failf "interpreters disagree on %s" l.Isched_frontend.Ast.name)
        b.Isched_perfect.Suite.loops)
    (Isched_perfect.Suite.all ())

(* --- read log --- *)

let test_readlog_roundtrip () =
  let log = Readlog.create () in
  let e = { Readlog.iter = 1; instr = 2; cell = "A"; index = Some 3; observed = Memory.Initial } in
  Readlog.add log e;
  check Alcotest.int "one entry" 1 (List.length (Readlog.to_list log))

let test_readlog_compare () =
  let reference = Readlog.create () and actual = Readlog.create () in
  let mk observed = { Readlog.iter = 1; instr = 2; cell = "A"; index = Some 3; observed } in
  Readlog.add reference (mk (Memory.Written { iter = 0; instr = 5 }));
  Readlog.add actual (mk Memory.Initial);
  (match Readlog.compare_logs ~reference ~actual with
  | [ m ] ->
    check (Alcotest.testable Memory.pp_tag ( = )) "expected tag" (Memory.Written { iter = 0; instr = 5 })
      m.Readlog.expected
  | _ -> Alcotest.fail "expected one mismatch");
  (* identical logs: no mismatch *)
  check Alcotest.int "self comparison clean" 0
    (List.length (Readlog.compare_logs ~reference ~actual:reference))

(* The flat log against the hash-table compare it replaced
   ([Readlog_ref]): the same mismatches in the same order, on logs with
   repeated reads, negative iterations, scalars and reads only one side
   made.  Some cases spread iterations over (-2^36, 2^36) or
   instructions over [0, 2^24), which the dense index does not cover. *)
let prop_readlog_compare_matches_reference =
  let open QCheck2.Gen in
  let gen_log (iters, instrs) =
    list_size (int_range 0 40)
      (map
         (fun (iter, instr, (cell, index), observed) -> { Readlog.iter; instr; cell; index; observed })
         (quad iters instrs
            (oneof
               [
                 map (fun i -> ("A", Some i)) (int_range (-4) 20);
                 map (fun i -> ("B", Some i)) (int_range (-4) 20);
                 return ("S", None);
               ])
            (frequency
               [
                 (1, return Memory.Initial);
                 ( 3,
                   map2
                     (fun iter instr -> Memory.Written { iter; instr })
                     (int_range (-3) 3) (int_range 0 3) );
               ])))
  in
  let near = int_range (-6) 6 and few = int_range 0 9 in
  let gen =
    frequency
      [
        (4, return (near, few));
        (1, return (oneof [ near; int_range (-(1 lsl 36)) (1 lsl 36) ], few));
        (1, return (near, oneof [ few; int_range 0 ((1 lsl 24) - 1) ]));
      ]
    >>= fun space -> triple (gen_log space) (gen_log space) (gen_log space)
  in
  let print_entry (e : Readlog.entry) =
    Printf.sprintf "(%d,%d) %s%s <- %s" e.iter e.instr e.cell
      (match e.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
      (Format.asprintf "%a" Memory.pp_tag e.observed)
  in
  let log entries =
    let t = Readlog.create ~capacity:1 () in
    List.iter (Readlog.add t) entries;
    t
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"readlog: compare matches the hash-table reference"
       ~print:QCheck2.Print.(triple (list print_entry) (list print_entry) (list print_entry))
       gen
       (fun (reference, actual, extra) ->
         let r = log reference and a = log actual in
         let expected = Readlog_ref.compare_logs ~reference ~actual in
         Readlog.to_list r = reference
         && Readlog.to_list a = actual
         && Readlog.compare_logs ~reference:r ~actual:a = expected
         (* again, through the index kept in [r] *)
         && Readlog.compare_logs ~reference:r ~actual:a = expected
         (* reads recorded after a compare retire that index *)
         && (List.iter (Readlog.add r) extra;
             Readlog.compare_logs ~reference:r ~actual:a
             = Readlog_ref.compare_logs ~reference:(reference @ extra) ~actual)))

(* A read that would alias another when packed is refused. *)
let test_readlog_packing_range () =
  let log = Readlog.create () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let rec_ ?(iter = 0) ?(instr = 0) ?(index = 0) ?(observed = Memory.Initial) () =
    Readlog.record log ~iter ~instr ~cell:"A" ~index ~observed
  in
  let w iter instr = Memory.Written { iter; instr } in
  rejects "instr 2^24" (rec_ ~instr:(1 lsl 24));
  rejects "negative instr" (rec_ ~instr:(-1));
  rejects "iter 2^37" (rec_ ~iter:(1 lsl 37));
  rejects "iter -2^37" (rec_ ~iter:(-(1 lsl 37)));
  (* packs to min_int, the sentinel of the Initial tag *)
  rejects "tag on the Initial sentinel" (rec_ ~observed:(w (min_int asr 24) 0));
  rejects "writer instr 2^24" (rec_ ~observed:(w 0 (1 lsl 24)));
  rejects "index Some min_int" (fun () ->
      Readlog.add log { Readlog.iter = 0; instr = 0; cell = "A"; index = Some min_int; observed = Memory.Initial });
  check Alcotest.int "nothing recorded" 0 (List.length (Readlog.to_list log));
  let edge =
    [
      { Readlog.iter = (1 lsl 37) - 1; instr = (1 lsl 24) - 1; cell = "A"; index = Some max_int;
        observed = w (-(1 lsl 37) + 1) 0 };
      { Readlog.iter = -(1 lsl 37) + 1; instr = 0; cell = "S"; index = None;
        observed = w ((1 lsl 37) - 1) ((1 lsl 24) - 1) };
    ]
  in
  List.iter (Readlog.add log) edge;
  check Alcotest.bool "edges round-trip" true (Readlog.to_list log = edge)

let test_prog_interp_logs_reads () =
  let prog = Isched_codegen.Codegen.compile (parse "DO I = 1, 3\n A[I] = A[I-1] + E[I]\nENDDO") in
  let log = Readlog.create () in
  ignore (Prog_interp.run ~log prog);
  (* two loads per iteration, three iterations *)
  check Alcotest.int "six reads" 6 (List.length (Readlog.to_list log));
  (* A[0] read in iteration 1 observes the initial value; A[1] read in
     iteration 2 observes iteration 1's store *)
  let entries = Readlog.to_list log in
  Alcotest.(check bool) "initial observed" true
    (List.exists (fun (e : Readlog.entry) -> e.Readlog.observed = Memory.Initial) entries);
  Alcotest.(check bool) "cross-iteration write observed" true
    (List.exists
       (fun (e : Readlog.entry) ->
         match e.Readlog.observed with Memory.Written { iter = 1; _ } -> e.Readlog.iter = 2 | _ -> false)
       entries)

let suite =
  [
    ("semantics: arithmetic", `Quick, test_semantics_arith);
    ("semantics: total division", `Quick, test_semantics_div_by_zero);
    ("semantics: shifts", `Quick, test_semantics_shifts);
    ("semantics: compares and select", `Quick, test_semantics_compare_select);
    ("semantics: integer clamping", `Quick, test_semantics_to_int_clamps);
    ("semantics: initial values", `Quick, test_semantics_init_values);
    ("semantics: bitwise equality", `Quick, test_semantics_eq_nan);
    ("memory: deterministic defaults", `Quick, test_memory_defaults);
    ("memory: set/get with tags", `Quick, test_memory_set_get);
    ("memory: equality and diff", `Quick, test_memory_equal_diff);
    ("memory: written cells sorted", `Quick, test_memory_written_cells_sorted);
    ("ast interp: straight-line", `Quick, test_ast_interp_simple);
    ("ast interp: recurrences", `Quick, test_ast_interp_recurrence);
    ("ast interp: guards", `Quick, test_ast_interp_guard);
    ("interp agreement: basic", `Quick, test_interp_agreement_basic);
    ("interp agreement: Fig. 1", `Quick, test_interp_agreement_fig1);
    ("interp agreement: guards", `Quick, test_interp_agreement_guard);
    ("interp agreement: scalars", `Quick, test_interp_agreement_scalar);
    ("interp agreement: indirect subscripts", `Quick, test_interp_agreement_indirect);
    ("interp agreement: coefficient subscripts", `Quick, test_interp_agreement_coef);
    ("interp agreement: whole corpus", `Slow, test_interp_agreement_corpus);
    ("readlog: entries", `Quick, test_readlog_roundtrip);
    ("readlog: mismatch detection", `Quick, test_readlog_compare);
    prop_readlog_compare_matches_reference;
    ("readlog: out-of-range reads are refused", `Quick, test_readlog_packing_range);
    ("prog interp: read provenance", `Quick, test_prog_interp_logs_reads);
    prop_memory_equal_is_empty_diff;
    ("memory: equality corner cases", `Quick, test_memory_equal_cases);
    ("memory: read is value and tag", `Quick, test_memory_read);
    prop_memory_matches_reference;
  ]
