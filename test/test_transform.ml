(* Tests for the Parafrase-surrogate restructuring and the DOACROSS
   categorization. *)

module Restructure = Isched_transform.Restructure
module Doall = Isched_transform.Doall
module Dep = Isched_deps.Dep
module Ast = Isched_frontend.Ast
module Parser = Isched_frontend.Parser
module Oracle = Isched_check.Oracle

let check = Alcotest.check
let parse = Parser.parse_loop

let run src = Restructure.run (parse src)

let has_action p r = List.exists p r.Restructure.actions

let check_equiv src =
  let l = parse src in
  let r = Restructure.run l in
  match Oracle.check_restructure l r with
  | Ok () -> ()
  | Error es -> Alcotest.failf "not equivalent: %s" (String.concat "; " es)

(* --- induction-variable substitution --- *)

let test_iv_removed () =
  let r = run "DO I = 1, 10\n S1: K = K + 2\n S2: A[I] = K * E[I]\nENDDO" in
  Alcotest.(check bool) "action recorded" true
    (has_action (function Restructure.Iv_subst { name = "K"; step = 2 } -> true | _ -> false) r);
  check Alcotest.int "update statement deleted" 1 (List.length r.Restructure.loop.Ast.body);
  Alcotest.(check bool) "loop becomes doall" true (Dep.is_doall r.Restructure.loop)

let test_iv_closed_form_before_after () =
  (* A use before the update sees one fewer step than a use after. *)
  let r = run "DO I = 1, 5\n S1: A[I] = K\n S2: K = K - 3\n S3: B[I] = K\nENDDO" in
  Alcotest.(check bool) "recorded with step -3" true
    (has_action (function Restructure.Iv_subst { step = -3; _ } -> true | _ -> false) r);
  check_equiv "DO I = 1, 5\n S1: A[I] = K\n S2: K = K - 3\n S3: B[I] = K\nENDDO"

let test_iv_not_applied_when_guarded () =
  let r = run "DO I = 1, 10\n S1: IF (E[I] > 0) K = K + 1\n S2: A[I] = K\nENDDO" in
  Alcotest.(check bool) "guarded update not substituted" false
    (has_action (function Restructure.Iv_subst _ -> true | _ -> false) r)

let test_iv_not_applied_nonconstant_step () =
  let r = run "DO I = 1, 10\n S1: K = K + E[I]\n S2: A[I] = K\nENDDO" in
  Alcotest.(check bool) "array step is not an IV" false
    (has_action (function Restructure.Iv_subst _ -> true | _ -> false) r)

let test_iv_equivalence () = check_equiv "DO I = 1, 8\n S1: K = K + 2\n S2: OUT[I] = K * E[I]\nENDDO"

(* --- reduction replacement --- *)

let test_reduction_replaced () =
  let r = run "DO I = 1, 10\n S1: S = S + A[I]\n S2: B[I] = E[I]\nENDDO" in
  Alcotest.(check bool) "action recorded" true
    (has_action (function Restructure.Reduction { name = "S"; op = Ast.Add; _ } -> true | _ -> false) r);
  Alcotest.(check bool) "becomes doall" true (Dep.is_doall r.Restructure.loop)

let test_reduction_product () =
  let r = run "DO I = 1, 6\n P = P * E[I]\nENDDO" in
  Alcotest.(check bool) "product reduction" true
    (has_action (function Restructure.Reduction { op = Ast.Mul; _ } -> true | _ -> false) r);
  check_equiv "DO I = 1, 6\n P = P * E[I]\nENDDO"

let test_reduction_subtraction () = check_equiv "DO I = 1, 9\n S = S - E[I] * C[I]\nENDDO"

let test_reduction_not_when_read_elsewhere () =
  let r = run "DO I = 1, 10\n S1: S = S + A[I]\n S2: B[I] = S\nENDDO" in
  Alcotest.(check bool) "other read blocks replacement" false
    (has_action (function Restructure.Reduction _ -> true | _ -> false) r)

let test_reduction_not_when_guarded () =
  let r = run "DO I = 1, 10\n IF (E[I] > 0) S = S + A[I]\nENDDO" in
  Alcotest.(check bool) "guarded reduction kept" false
    (has_action (function Restructure.Reduction _ -> true | _ -> false) r)

let test_reduction_equivalence () = check_equiv "DO I = 1, 12\n EN = EN + E[I] * E[I]\nENDDO"

(* --- scalar expansion --- *)

let test_expansion () =
  let r = run "DO I = 1, 10\n S1: T = E[I] + C[I]\n S2: B[I] = T * T\nENDDO" in
  Alcotest.(check bool) "action recorded" true
    (has_action (function Restructure.Expanded { name = "T"; _ } -> true | _ -> false) r);
  Alcotest.(check bool) "becomes doall" true (Dep.is_doall r.Restructure.loop)

let test_expansion_blocked_by_upward_read () =
  (* T read before it is written: the value flows from the previous
     iteration, expansion would be wrong. *)
  let r = run "DO I = 1, 10\n S1: B[I] = T\n S2: T = E[I]\nENDDO" in
  Alcotest.(check bool) "not expanded" false
    (has_action (function Restructure.Expanded _ -> true | _ -> false) r)

let test_expansion_blocked_by_guard () =
  let r = run "DO I = 1, 10\n S1: IF (E[I] > 0) T = C[I]\n S2: B[I] = T\nENDDO" in
  Alcotest.(check bool) "guarded write blocks expansion" false
    (has_action (function Restructure.Expanded _ -> true | _ -> false) r)

let test_expansion_equivalence () =
  check_equiv "DO I = 1, 7\n S1: T = E[I] * 2\n S2: B[I] = T + C[I]\n S3: T2 = T + 1\n S4: D2[I] = T2\nENDDO"

let test_combined_transforms () =
  let src =
    "DO I = 1, 10\n S1: K = K + 1\n S2: T = E[I] * K\n S3: EN = EN + T\n S4: OUT[I] = T\nENDDO"
  in
  let r = run src in
  check Alcotest.int "three actions" 3 (List.length r.Restructure.actions);
  Alcotest.(check bool) "fully parallel afterwards" true (Dep.is_doall r.Restructure.loop);
  check_equiv src

let test_recurrence_untouched () =
  let src = "DO I = 1, 10\n A[I] = A[I-1] + E[I]\nENDDO" in
  let r = run src in
  check Alcotest.int "no actions" 0 (List.length r.Restructure.actions);
  Alcotest.(check bool) "still doacross" false (Dep.is_doall r.Restructure.loop)

(* --- parallelize / categorize --- *)

let test_parallelize () =
  (match Doall.parallelize (parse "DO I = 1, 10\n S = S + A[I]\nENDDO") with
  | `Doall _ -> ()
  | `Doacross _ -> Alcotest.fail "reduction loop should become doall");
  match Doall.parallelize (parse "DO I = 1, 10\n A[I] = A[I-2]\nENDDO") with
  | `Doacross _ -> ()
  | `Doall _ -> Alcotest.fail "recurrence cannot be doall"

let cat = Alcotest.testable (fun ppf c -> Format.pp_print_string ppf (Doall.category_name c)) ( = )

let test_categorize () =
  check cat "control dep" Doall.Control_dep
    (Doall.categorize (parse "DO I = 1, 10\n IF (E[I] > 0) A[I] = A[I-1]\nENDDO"));
  check cat "anti/output" Doall.Anti_output
    (Doall.categorize (parse "DO I = 1, 10\n S1: B[I] = A[I+1]\n S2: A[I] = E[I]\nENDDO"));
  check cat "induction" Doall.Induction
    (Doall.categorize (parse "DO I = 1, 10\n S1: K = K + 1\n S2: A[I] = K + A[I-1]\nENDDO"));
  check cat "reduction" Doall.Reduction
    (Doall.categorize (parse "DO I = 1, 10\n S1: S = S + A[I]\n S2: A[I] = A[I-1]\nENDDO"));
  check cat "simple subscript" Doall.Simple_subscript
    (Doall.categorize (parse "DO I = 1, 10\n A[I] = A[I-1] + E[I]\nENDDO"));
  check cat "others" Doall.Other
    (Doall.categorize (parse "DO I = 1, 10\n A[IDX[I]] = E[I]\nENDDO"))

let test_category_names_unique () =
  let names = List.map Doall.category_name Doall.all_categories in
  check Alcotest.int "six types" 6 (List.length names);
  check Alcotest.int "unique" 6 (List.length (List.sort_uniq compare names))

(* property: restructuring never breaks semantics on generated corpora *)

let restructure_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"restructure: semantics preserved on generated loops"
       QCheck2.Gen.(int_range 0 100000)
       (fun seed ->
         let profile =
           {
             Isched_perfect.Profile.mdg with
             seed;
             n_generated = 1;
             n_iters = 12 (* keep the check fast *);
           }
         in
         match Isched_perfect.Genloop.generate profile with
         | [ l ] -> (
           let l = { l with Ast.hi = l.Ast.lo + profile.n_iters - 1 } in
           match Oracle.check_restructure l (Restructure.run l) with
           | Ok () -> true
           | Error _ -> false)
         | _ -> false))

let suite =
  [
    ("iv: substitution removes the update", `Quick, test_iv_removed);
    ("iv: closed form before/after the update", `Quick, test_iv_closed_form_before_after);
    ("iv: guarded update not substituted", `Quick, test_iv_not_applied_when_guarded);
    ("iv: non-constant step not substituted", `Quick, test_iv_not_applied_nonconstant_step);
    ("iv: semantics preserved", `Quick, test_iv_equivalence);
    ("reduction: sum replaced", `Quick, test_reduction_replaced);
    ("reduction: product replaced", `Quick, test_reduction_product);
    ("reduction: subtraction preserved", `Quick, test_reduction_subtraction);
    ("reduction: blocked by other reads", `Quick, test_reduction_not_when_read_elsewhere);
    ("reduction: blocked by guards", `Quick, test_reduction_not_when_guarded);
    ("reduction: semantics preserved", `Quick, test_reduction_equivalence);
    ("expansion: write-before-read scalar", `Quick, test_expansion);
    ("expansion: blocked by upward-exposed read", `Quick, test_expansion_blocked_by_upward_read);
    ("expansion: blocked by guards", `Quick, test_expansion_blocked_by_guard);
    ("expansion: semantics preserved", `Quick, test_expansion_equivalence);
    ("transforms compose and preserve semantics", `Quick, test_combined_transforms);
    ("true recurrences are untouched", `Quick, test_recurrence_untouched);
    ("parallelize: doall vs doacross", `Quick, test_parallelize);
    ("categorize: the six DOACROSS types", `Quick, test_categorize);
    ("categories are exactly six", `Quick, test_category_names_unique);
    restructure_equivalence;
  ]
