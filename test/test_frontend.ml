(* Tests for the mini-Fortran lexer, parser, AST printer and semantic
   checks. *)

module Lexer = Isched_frontend.Lexer
module Parser = Isched_frontend.Parser
module Ast = Isched_frontend.Ast
module Sema = Isched_frontend.Sema

let check = Alcotest.check

let fig1 =
  {|DOACROSS I = 1, 100
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
|}

(* --- lexer --- *)

let toks src = List.map (fun (sp : Lexer.spanned) -> sp.Lexer.tok) (Lexer.tokenize src)

let test_lexer_keywords () =
  check Alcotest.bool "do" true (List.mem Lexer.TDo (toks "DO I = 1, 2\nENDDO"));
  check Alcotest.bool "doacross" true (List.mem Lexer.TDoacross (toks "DOACROSS I = 1, 2\nENDDO"));
  check Alcotest.bool "case-insensitive" true (List.mem Lexer.TDoacross (toks "doacross i = 1, 2\nenddo"))

let test_lexer_numbers () =
  check Alcotest.bool "int" true (List.mem (Lexer.TInt 42) (toks "A = 42"));
  check Alcotest.bool "float" true (List.mem (Lexer.TFloat 2.5) (toks "A = 2.5"))

let test_lexer_comments () =
  let t = toks "! a comment line\nA = 1 ! trailing\n" in
  check Alcotest.bool "comment stripped" false
    (List.exists (function Lexer.TIdent "comment" -> true | _ -> false) t);
  check Alcotest.bool "code kept" true (List.mem (Lexer.TInt 1) t)

let test_lexer_relops () =
  let t = toks "IF (A <= B)" in
  check Alcotest.bool "<=" true (List.mem Lexer.TLe t);
  let t = toks "IF (A <> B)" in
  check Alcotest.bool "<>" true (List.mem Lexer.TNe t);
  let t = toks "IF (A /= B)" in
  check Alcotest.bool "/=" true (List.mem Lexer.TNe t);
  let t = toks "IF (A == B)" in
  check Alcotest.bool "==" true (List.mem Lexer.TEq t)

let test_lexer_newline_collapse () =
  let t = toks "A = 1\n\n\nB = 2" in
  let newlines = List.length (List.filter (( = ) Lexer.TNewline) t) in
  check Alcotest.int "collapsed" 2 newlines (* one between, one final *)

let test_lexer_error () =
  Alcotest.(check bool) "illegal char" true
    (try
       ignore (Lexer.tokenize "A = 1 @ 2");
       false
     with Lexer.Error { line = 1; _ } -> true)

let test_lexer_positions () =
  match Lexer.tokenize "A = 1\nB2 = 2" with
  | _ :: _ :: _ :: _ :: { tok = Lexer.TIdent "B2"; line; col } :: _ ->
    check Alcotest.int "line" 2 line;
    check Alcotest.int "col" 1 col
  | _ -> Alcotest.fail "unexpected token stream"

(* --- parser --- *)

let test_parse_fig1 () =
  let l = Parser.parse_loop ~name:"fig1" fig1 in
  check Alcotest.int "3 statements" 3 (List.length l.Ast.body);
  check Alcotest.string "index" "I" l.Ast.index;
  check Alcotest.int "lo" 1 l.Ast.lo;
  check Alcotest.int "hi" 100 l.Ast.hi;
  check Alcotest.(list string) "labels" [ "S1"; "S2"; "S3" ]
    (List.map (fun (s : Ast.stmt) -> s.Ast.label) l.Ast.body)

let test_parse_auto_labels () =
  let l = Parser.parse_loop "DO I = 1, 4\n  A[I] = 1\n  B[I] = 2\nENDDO" in
  check Alcotest.(list string) "generated labels" [ "S1"; "S2" ]
    (List.map (fun (s : Ast.stmt) -> s.Ast.label) l.Ast.body)

let test_parse_paren_subscripts () =
  let l = Parser.parse_loop "DO I = 1, 4\n  A(I) = B(I-1) + 1\nENDDO" in
  match l.Ast.body with
  | [ { Ast.lhs = Ast.Larr ("A", Ast.Ivar); rhs = Ast.Bin (Ast.Add, Ast.Aref ("B", _), _); _ } ] ->
    ()
  | _ -> Alcotest.fail "parenthesised subscripts should parse like brackets"

let test_parse_guard () =
  let l = Parser.parse_loop "DO I = 1, 4\n  IF (A[I] > 0) B[I] = A[I] * 2\nENDDO" in
  match l.Ast.body with
  | [ { Ast.guard = Some { Ast.rel = Ast.Gt; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "guard lost"

let test_parse_precedence () =
  let l = Parser.parse_loop "DO I = 1, 2\n  A[I] = 1 + 2 * 3\nENDDO" in
  match (List.hd l.Ast.body).Ast.rhs with
  | Ast.Bin (Ast.Add, Ast.Num 1., Ast.Bin (Ast.Mul, Ast.Num 2., Ast.Num 3.)) -> ()
  | e -> Alcotest.failf "wrong precedence: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parse_parens_override () =
  let l = Parser.parse_loop "DO I = 1, 2\n  A[I] = (1 + 2) * 3\nENDDO" in
  match (List.hd l.Ast.body).Ast.rhs with
  | Ast.Bin (Ast.Mul, Ast.Bin (Ast.Add, _, _), Ast.Num 3.) -> ()
  | _ -> Alcotest.fail "parentheses ignored"

let test_parse_negative_bounds () =
  let l = Parser.parse_loop "DO I = -3, 5\n  A[I] = I\nENDDO" in
  check Alcotest.int "lo" (-3) l.Ast.lo;
  check Alcotest.int "hi" 5 l.Ast.hi

let test_parse_multiple_loops () =
  let ls = Parser.parse ~name:"f" "DO I = 1, 2\n A[I] = 1\nENDDO\nDO I = 1, 3\n B[I] = 2\nENDDO" in
  check Alcotest.int "two loops" 2 (List.length ls);
  check Alcotest.(list string) "names" [ "f.L1"; "f.L2" ]
    (List.map (fun (l : Ast.loop) -> l.Ast.name) ls)

let test_parse_index_is_ivar () =
  let l = Parser.parse_loop "DO J = 1, 2\n  A[J] = J + 1\nENDDO" in
  match (List.hd l.Ast.body).Ast.rhs with
  | Ast.Bin (Ast.Add, Ast.Ivar, Ast.Num 1.) -> ()
  | _ -> Alcotest.fail "loop variable should parse to Ivar"

let test_parse_error_missing_enddo () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Parser.parse_loop "DO I = 1, 2\n A[I] = 1\n");
       false
     with Parser.Error _ | Lexer.Error _ -> true)

let test_parse_error_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Parser.parse_loop "DO I = 1, 2\n A[I] + 1\nENDDO");
       false
     with Parser.Error _ -> true)

(* --- printer roundtrip --- *)

let test_roundtrip_fig1 () =
  let l = Parser.parse_loop ~name:"x" fig1 in
  let l2 = Parser.parse_loop ~name:"x" (Ast.loop_to_string l) in
  check Alcotest.int "same body size" (List.length l.Ast.body) (List.length l2.Ast.body);
  List.iter2
    (fun (a : Ast.stmt) (b : Ast.stmt) ->
      Alcotest.(check bool) "stmt equal" true
        (a.Ast.label = b.Ast.label && Ast.equal_expr a.Ast.rhs b.Ast.rhs))
    l.Ast.body l2.Ast.body

let roundtrip_generated =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"parser: print/parse roundtrip on generated corpora"
       QCheck2.Gen.(int_range 0 10000)
       (fun seed ->
         let profile = { Isched_perfect.Profile.flq52 with seed; n_generated = 1 } in
         match Isched_perfect.Genloop.generate profile with
         | [ l ] ->
           let l2 = Parser.parse_loop ~name:l.Ast.name (Ast.loop_to_string l) in
           List.length l.Ast.body = List.length l2.Ast.body
           && List.for_all2
                (fun (a : Ast.stmt) (b : Ast.stmt) ->
                  Ast.equal_expr a.Ast.rhs b.Ast.rhs
                  && a.Ast.lhs = b.Ast.lhs
                  &&
                  match (a.Ast.guard, b.Ast.guard) with
                  | None, None -> true
                  | Some g1, Some g2 ->
                    g1.Ast.rel = g2.Ast.rel && Ast.equal_expr g1.Ast.lhs g2.Ast.lhs
                    && Ast.equal_expr g1.Ast.rhs g2.Ast.rhs
                  | _ -> false)
                l.Ast.body l2.Ast.body
         | _ -> false))

let parser_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"parser: random input never escapes Error exceptions"
       QCheck2.Gen.(string_size ~gen:(oneofl
         [ 'D'; 'O'; 'A'; 'I'; 'S'; '1'; '9'; '='; ','; '+'; '-'; '*'; '/'; '('; ')'; '[';
           ']'; ':'; '<'; '>'; ' '; '\n'; '!'; '.'; '@'; 'x' ]) (int_range 0 120))
       (fun src ->
         match Parser.parse ~name:"fuzz" src with
         | _loops -> true
         | exception (Parser.Error _ | Lexer.Error _) -> true
         | exception _ -> false))

(* --- differential fuzz against the reference frontend --- *)

(* Served texts (the corpus as [Ast.loop_to_string] prints it), the
   hand-written signature sources, which alone have comments and blank
   lines, and the Fig. 1 source (the text of examples/fig1.f). *)
let seed_texts =
  lazy
    (Array.of_list
       ((fig1 :: List.map Ast.loop_to_string (Isched_perfect.Suite.all_loops ()))
       @ List.map Isched_perfect.Suite.signature_sources (Isched_perfect.Suite.profiles ())))

(* A seed text under up to four byte mutations: flip one byte, truncate,
   splice in a slice of another seed, or duplicate a range. *)
let gen_mutant =
  let open QCheck2.Gen in
  delay @@ fun () ->
  let pool = Lazy.force seed_texts in
  let byte =
    oneof
      [
        char_range '\000' '\255';
        oneofl [ '\n'; ' '; '\t'; '\r'; ':'; '!'; '#'; '.'; '='; '<'; '>'; '/'; '-'; '['; ')'; '0'; '9'; 'I'; 'd'; '_' ];
      ]
  in
  let mutate s =
    let n = String.length s in
    let* kind = int_range 0 3 and* i = int_range 0 n and* j = int_range 0 n and* b = byte and* other = oneofa pool in
    let lo = min i j and hi = max i j in
    return
      (match kind with
      | 0 when n > 0 -> String.mapi (fun k c -> if k = min i (n - 1) then b else c) s
      | 0 | 1 -> String.sub s 0 i
      | 2 ->
        let m = String.length other in
        let a = min lo m and z = min hi m in
        String.sub s 0 i ^ String.sub other a (z - a) ^ String.sub s i (n - i)
      | _ -> String.sub s 0 hi ^ String.sub s lo (n - lo))
  in
  let* base = oneofa pool and* k = int_range 0 4 in
  let rec go s k = if k = 0 then return s else mutate s >>= fun s -> go s (k - 1) in
  go base k

let frontend_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~print:(Printf.sprintf "%S")
       ~name:"frontend: pull parser agrees with the reference on corpus mutants" gen_mutant
       (fun src ->
         match (Sema.parse_checked ~name:"fuzz" src, Frontend_ref.parse_checked ~name:"fuzz" src) with
         | Ok got, Ok want ->
           got = want
           && List.for_all2 (fun (a : Ast.loop) (b : Ast.loop) -> a.Ast.digest = b.Ast.digest) got want
         | Error got, Error want -> String.equal got want
         | Ok _, Error _ | Error _, Ok _ -> false
         | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* Parsing and checking a served loop allocates little more than the
   loop itself. *)
let test_allocation_per_byte () =
  let texts = List.map Ast.loop_to_string (Isched_perfect.Suite.all_loops ()) in
  let bytes = List.fold_left (fun n s -> n + String.length s) 0 texts in
  let run () =
    List.iter
      (fun s -> match Sema.parse_checked ~name:"request" s with Ok _ -> () | Error m -> Alcotest.fail m)
      texts
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. w0) /. float_of_int bytes in
  if words > 4. then Alcotest.failf "%.2f minor words per source byte" words

(* --- sema --- *)

let test_sema_fig1_clean () =
  let l = Parser.parse_loop fig1 in
  check Alcotest.int "no errors" 0 (List.length (Sema.check l))

let test_sema_array_scalar_clash () =
  let l = Parser.parse_loop "DO I = 1, 2\n A[I] = A + 1\nENDDO" in
  Alcotest.(check bool) "clash reported" true (Sema.check l <> [])

let test_sema_empty_body () =
  let l = Ast.make_loop ~kind:Ast.Do ~index:"I" ~lo:1 ~hi:2 ~body:[] ~name:"e" in
  Alcotest.(check bool) "empty body reported" true (Sema.check l <> [])

let test_sema_empty_range () =
  let l = Parser.parse_loop "DO I = 5, 1\n A[I] = 1\nENDDO" in
  Alcotest.(check bool) "empty range reported" true (Sema.check l <> [])

let test_sema_duplicate_labels () =
  let l = Parser.parse_loop "DO I = 1, 2\n S1: A[I] = 1\n S1: B[I] = 2\nENDDO" in
  Alcotest.(check bool) "duplicate labels reported" true (Sema.check l <> [])

let test_sema_index_assigned () =
  let l = Parser.parse_loop "DO I = 1, 2\n I = 3\nENDDO" in
  Alcotest.(check bool) "index assignment reported" true (Sema.check l <> [])

let test_sema_one_level_indirection_ok () =
  let l = Parser.parse_loop "DO I = 1, 2\n A[IDX[I]] = 1\nENDDO" in
  check Alcotest.int "single indirection fine" 0 (List.length (Sema.check l))

let test_sema_deep_indirection_rejected () =
  let l = Parser.parse_loop "DO I = 1, 2\n A[IDX[JDX[I]]] = 1\nENDDO" in
  Alcotest.(check bool) "double indirection reported" true (Sema.check l <> [])

let test_source_lines () =
  let l = Parser.parse_loop fig1 in
  check Alcotest.int "header + 3 + enddo" 5 (Ast.source_lines l)

let test_iterations () =
  let l = Parser.parse_loop fig1 in
  check Alcotest.int "100 iterations" 100 (Ast.iterations l)

let test_rename_scalar () =
  let e = Ast.Bin (Ast.Add, Ast.Scalar "k", Ast.Aref ("A", Ast.Scalar "k")) in
  let e' = Ast.rename_scalar ~from:"k" ~into:(Ast.Num 7.) e in
  match e' with
  | Ast.Bin (Ast.Add, Ast.Num 7., Ast.Aref ("A", Ast.Num 7.)) -> ()
  | _ -> Alcotest.fail "substitution incomplete"

let suite =
  [
    ("lexer: keywords", `Quick, test_lexer_keywords);
    ("lexer: numbers", `Quick, test_lexer_numbers);
    ("lexer: comments", `Quick, test_lexer_comments);
    ("lexer: relational operators", `Quick, test_lexer_relops);
    ("lexer: newline collapsing", `Quick, test_lexer_newline_collapse);
    ("lexer: illegal character", `Quick, test_lexer_error);
    ("lexer: positions", `Quick, test_lexer_positions);
    ("parser: Fig. 1 loop", `Quick, test_parse_fig1);
    ("parser: auto labels", `Quick, test_parse_auto_labels);
    ("parser: parenthesised subscripts", `Quick, test_parse_paren_subscripts);
    ("parser: IF guards", `Quick, test_parse_guard);
    ("parser: operator precedence", `Quick, test_parse_precedence);
    ("parser: parentheses override", `Quick, test_parse_parens_override);
    ("parser: negative bounds", `Quick, test_parse_negative_bounds);
    ("parser: multiple loops per file", `Quick, test_parse_multiple_loops);
    ("parser: any index name maps to Ivar", `Quick, test_parse_index_is_ivar);
    ("parser: missing ENDDO", `Quick, test_parse_error_missing_enddo);
    ("parser: malformed statement", `Quick, test_parse_error_garbage);
    ("printer: Fig. 1 roundtrip", `Quick, test_roundtrip_fig1);
    roundtrip_generated;
    parser_fuzz;
    ("sema: Fig. 1 is clean", `Quick, test_sema_fig1_clean);
    ("sema: array/scalar clash", `Quick, test_sema_array_scalar_clash);
    ("sema: empty body", `Quick, test_sema_empty_body);
    ("sema: empty range", `Quick, test_sema_empty_range);
    ("sema: duplicate labels", `Quick, test_sema_duplicate_labels);
    ("sema: loop variable assigned", `Quick, test_sema_index_assigned);
    ("sema: one indirection level allowed", `Quick, test_sema_one_level_indirection_ok);
    ("sema: deep indirection rejected", `Quick, test_sema_deep_indirection_rejected);
    ("ast: source_lines", `Quick, test_source_lines);
    ("ast: iterations", `Quick, test_iterations);
    ("ast: rename_scalar", `Quick, test_rename_scalar);
    frontend_differential;
    ("frontend: allocation per source byte on the corpus", `Quick, test_allocation_per_byte);
  ]
