open Lexer

(* Defined after the [open], so [Error] is the parser's own exception. *)
exception Error of { line : int; col : int; message : string }

(* A parse error at a position.  The rest of the input is lexed first, so
   a lex error anywhere in the source is reported in preference to a
   parse error before it. *)
let err_at (c : Lexer.t) line col fmt =
  Printf.ksprintf
    (fun message ->
      while c.tok != TEof do
        advance c
      done;
      raise (Error { line; col; message }))
    fmt

let err (c : Lexer.t) fmt = err_at c c.tok_line c.tok_col fmt
let unexpected (c : Lexer.t) what = err c "expected %s, found %s" what (token_name c.tok)

(* [tok] is a constant constructor, so physical equality is equality. *)
let expect (c : Lexer.t) tok what = if c.tok == tok then advance c else unexpected c what

let ident (c : Lexer.t) what =
  match c.tok with
  | TIdent s ->
    advance c;
    s
  | _ -> unexpected c what

let int_lit (c : Lexer.t) what =
  let neg = c.tok == TMinus in
  if neg then advance c;
  match c.tok with
  | TInt i ->
    advance c;
    if neg then -i else i
  | _ -> unexpected c what

(* --- expressions; [ix] is the loop variable's name --- *)

let rec parse_expr c ix = parse_expr_rest c ix (parse_term c ix)

and parse_expr_rest (c : Lexer.t) ix lhs =
  match c.tok with
  | (TPlus | TMinus) as t ->
    advance c;
    let op = if t == TPlus then Ast.Add else Ast.Sub in
    parse_expr_rest c ix (Ast.Bin (op, lhs, parse_term c ix))
  | _ -> lhs

and parse_term c ix = parse_term_rest c ix (parse_factor c ix)

and parse_term_rest (c : Lexer.t) ix lhs =
  match c.tok with
  | (TStar | TSlash) as t ->
    advance c;
    let op = if t == TStar then Ast.Mul else Ast.Div in
    parse_term_rest c ix (Ast.Bin (op, lhs, parse_factor c ix))
  | _ -> lhs

and parse_factor (c : Lexer.t) ix =
  match c.tok with
  | TInt i ->
    advance c;
    Ast.Num (float_of_int i)
  | TFloat f ->
    advance c;
    Ast.Num f
  | TMinus ->
    advance c;
    Ast.Neg (parse_factor c ix)
  | TLparen -> subscript c ix TRparen "')'"
  | TIdent name -> (
    advance c;
    match c.tok with
    | TLbrack -> Ast.Aref (name, subscript c ix TRbrack "']'")
    | TLparen -> Ast.Aref (name, subscript c ix TRparen "')'")
    | _ -> if String.equal name ix then Ast.Ivar else Ast.Scalar name)
  | t -> err c "expected an expression, found %s" (token_name t)

(* [c] is on an opening bracket: the expression up to [close]. *)
and subscript c ix close what =
  advance c;
  let e = parse_expr c ix in
  expect c close what;
  e

let parse_relop (c : Lexer.t) =
  let rel =
    match c.tok with
    | TLt -> Ast.Lt
    | TLe -> Ast.Le
    | TGt -> Ast.Gt
    | TGe -> Ast.Ge
    | TEq -> Ast.Eq
    | TNe -> Ast.Ne
    | t -> err c "expected a comparison operator, found %s" (token_name t)
  in
  advance c;
  rel

(* --- statements --- *)

let parse_lhs (c : Lexer.t) ix =
  let line = c.tok_line and col = c.tok_col in
  let name = ident c "an assignment target" in
  match c.tok with
  | TLbrack -> Ast.Larr (name, subscript c ix TRbrack "']'")
  | TLparen -> Ast.Larr (name, subscript c ix TRparen "')'")
  | TAssign -> Ast.Lscalar name
  | t -> err_at c line col "expected '[', '(' or '=' after %S, found %s" name (token_name t)

let parse_stmt (c : Lexer.t) ix ~count =
  let label =
    match c.tok with
    | TIdent l when colon_follows c ->
      advance c;
      advance c;
      l
    | _ -> "S" ^ string_of_int count
  in
  let guard =
    match c.tok with
    | TIf ->
      advance c;
      expect c TLparen "'(' after IF";
      let lhs = parse_expr c ix in
      let rel = parse_relop c in
      let rhs = parse_expr c ix in
      expect c TRparen "')' closing the IF condition";
      Some { Ast.rel; lhs; rhs }
    | _ -> None
  in
  let lhs = parse_lhs c ix in
  expect c TAssign "'='";
  let rhs = parse_expr c ix in
  { Ast.label; guard; lhs; rhs }

(* Statements up to and including ENDDO.  The lexer collapses blank
   lines, so one TNewline ends a statement. *)
let rec parse_body (c : Lexer.t) ix acc ~count =
  match c.tok with
  | TEnddo ->
    advance c;
    List.rev acc
  | _ ->
    let s = parse_stmt c ix ~count in
    (match c.tok with
    | TNewline -> advance c
    | TEnddo -> ()
    | t -> err c "expected a newline or ENDDO, found %s" (token_name t));
    parse_body c ix (s :: acc) ~count:(count + 1)

let parse_loop_at (c : Lexer.t) ~name =
  let kind =
    match c.tok with
    | TDo -> Ast.Do
    | TDoacross -> Ast.Doacross
    | t -> err c "expected DO or DOACROSS, found %s" (token_name t)
  in
  advance c;
  let index = ident c "the loop variable" in
  expect c TAssign "'='";
  let lo = int_lit c "the lower bound" in
  expect c TComma "','";
  let hi = int_lit c "the upper bound" in
  expect c TNewline "a newline after the loop header";
  let body = parse_body c index [] ~count:1 in
  Ast.make_loop ~kind ~index ~lo ~hi ~body ~name

let parse ?(name = "loop") src =
  Isched_obs.Span.with_ ~name:"frontend.parse" (fun () ->
      let c = create src in
      let rec loops acc count =
        match c.tok with
        | TEof -> List.rev acc
        | _ ->
          let l = parse_loop_at c ~name:(name ^ ".L" ^ string_of_int count) in
          (match c.tok with TNewline -> advance c | _ -> ());
          loops (l :: acc) (count + 1)
      in
      loops [] 1)

let parse_loop ?(name = "loop") src =
  match parse ~name src with
  | [ l ] -> Ast.with_name l name
  | ls ->
    raise
      (Error { line = 1; col = 1; message = Printf.sprintf "expected exactly one loop, found %d" (List.length ls) })
