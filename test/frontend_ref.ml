(* Reference model for the frontend: the lexer that tokenized a whole
   source into a list before parsing, and the recursive-descent parser
   over that list, kept verbatim as the oracle of the differential fuzz
   in [test_frontend.ml].  Test tree only: the library has one frontend,
   the pull lexer [Isched_frontend.Lexer] and the cursor parser over it. *)

module Ast = Isched_frontend.Ast

module Lexer = struct
  type token =
    | TDo
    | TDoacross
    | TEnddo
    | TIf
    | TIdent of string
    | TInt of int
    | TFloat of float
    | TAssign
    | TComma
    | TColon
    | TLparen
    | TRparen
    | TLbrack
    | TRbrack
    | TPlus
    | TMinus
    | TStar
    | TSlash
    | TLt
    | TLe
    | TGt
    | TGe
    | TEq
    | TNe
    | TNewline
    | TEof

  exception Error of { line : int; col : int; message : string }

  type spanned = { tok : token; line : int; col : int }

  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_digit c = c >= '0' && c <= '9'
  let is_alnum c = is_alpha c || is_digit c

  let keyword s =
    match String.uppercase_ascii s with
    | "DO" -> Some TDo
    | "DOACROSS" -> Some TDoacross
    | "ENDDO" | "END_DO" | "END_DOACROSS" | "ENDDOACROSS" -> Some TEnddo
    | "IF" -> Some TIf
    | _ -> None

  let tokenize src =
    let n = String.length src in
    let out = Isched_util.Vec.create () in
    let line = ref 1 and col = ref 1 in
    let pos = ref 0 in
    let err message = raise (Error { line = !line; col = !col; message }) in
    let emit tok l c = Isched_util.Vec.push out { tok; line = l; col = c } in
    let advance () =
      (if !pos < n then
         match src.[!pos] with
         | '\n' ->
           incr line;
           col := 1
         | _ -> incr col);
      incr pos
    in
    let peek k = if !pos + k < n then Some src.[!pos + k] else None in
    while !pos < n do
      let c = src.[!pos] in
      let l0 = !line and c0 = !col in
      if c = '\n' then begin
        (* Collapse runs of blank lines into a single TNewline. *)
        (match Isched_util.Vec.last out with
        | exception Not_found -> ()
        | { tok = TNewline; _ } -> ()
        | _ -> emit TNewline l0 c0);
        advance ()
      end
      else if c = ' ' || c = '\t' || c = '\r' then advance ()
      else if c = '!' || c = '#' then
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done
      else if is_alpha c then begin
        let start = !pos in
        while !pos < n && is_alnum src.[!pos] do
          advance ()
        done;
        let word = String.sub src start (!pos - start) in
        match keyword word with Some t -> emit t l0 c0 | None -> emit (TIdent word) l0 c0
      end
      else if is_digit c then begin
        let start = !pos in
        while !pos < n && is_digit src.[!pos] do
          advance ()
        done;
        let is_float = peek 0 = Some '.' && (match peek 1 with Some d -> is_digit d | None -> false) in
        if is_float then begin
          advance ();
          while !pos < n && is_digit src.[!pos] do
            advance ()
          done;
          let text = String.sub src start (!pos - start) in
          match float_of_string_opt text with
          | Some f -> emit (TFloat f) l0 c0
          | None -> err (Printf.sprintf "malformed number %S" text)
        end
        else begin
          let text = String.sub src start (!pos - start) in
          match int_of_string_opt text with
          | Some i -> emit (TInt i) l0 c0
          | None -> err (Printf.sprintf "malformed integer %S" text)
        end
      end
      else begin
        let two t =
          advance ();
          advance ();
          emit t l0 c0
        in
        let one t =
          advance ();
          emit t l0 c0
        in
        match (c, peek 1) with
        | '=', Some '=' -> two TEq
        | '!', _ -> assert false (* handled as comment above *)
        | '<', Some '>' -> two TNe
        | '<', Some '=' -> two TLe
        | '>', Some '=' -> two TGe
        | '/', Some '=' -> two TNe
        | '=', _ -> one TAssign
        | ',', _ -> one TComma
        | ':', _ -> one TColon
        | '(', _ -> one TLparen
        | ')', _ -> one TRparen
        | '[', _ -> one TLbrack
        | ']', _ -> one TRbrack
        | '+', _ -> one TPlus
        | '-', _ -> one TMinus
        | '*', _ -> one TStar
        | '/', _ -> one TSlash
        | '<', _ -> one TLt
        | '>', _ -> one TGt
        | _ -> err (Printf.sprintf "illegal character %C" c)
      end
    done;
    (match Isched_util.Vec.last out with
    | { tok = TNewline; _ } | (exception Not_found) -> ()
    | _ -> emit TNewline !line !col);
    emit TEof !line !col;
    Isched_util.Vec.to_list out

  let token_name = function
    | TDo -> "DO"
    | TDoacross -> "DOACROSS"
    | TEnddo -> "ENDDO"
    | TIf -> "IF"
    | TIdent s -> Printf.sprintf "identifier %S" s
    | TInt i -> Printf.sprintf "integer %d" i
    | TFloat f -> Printf.sprintf "number %g" f
    | TAssign -> "'='"
    | TComma -> "','"
    | TColon -> "':'"
    | TLparen -> "'('"
    | TRparen -> "')'"
    | TLbrack -> "'['"
    | TRbrack -> "']'"
    | TPlus -> "'+'"
    | TMinus -> "'-'"
    | TStar -> "'*'"
    | TSlash -> "'/'"
    | TLt -> "'<'"
    | TLe -> "'<='"
    | TGt -> "'>'"
    | TGe -> "'>='"
    | TEq -> "'=='"
    | TNe -> "'<>'"
    | TNewline -> "newline"
    | TEof -> "end of input"
end

module Parser = struct
  exception Error of { line : int; col : int; message : string }

  type state = { mutable toks : Lexer.spanned list; mutable index_var : string option }

  let err (sp : Lexer.spanned) fmt =
    Printf.ksprintf (fun message -> raise (Error { line = sp.line; col = sp.col; message })) fmt

  let peek st = match st.toks with [] -> assert false | sp :: _ -> sp

  let advance st = match st.toks with [] -> assert false | _ :: rest -> st.toks <- rest

  let next st =
    let sp = peek st in
    advance st;
    sp

  let expect st tok what =
    let sp = next st in
    if sp.tok <> tok then err sp "expected %s, found %s" what (Lexer.token_name sp.tok)

  let skip_newlines st =
    while (peek st).tok = Lexer.TNewline do
      advance st
    done

  let ident st what =
    let sp = next st in
    match sp.tok with
    | Lexer.TIdent s -> s
    | t -> err sp "expected %s, found %s" what (Lexer.token_name t)

  let int_lit st what =
    let sp = next st in
    match sp.tok with
    | Lexer.TInt i -> i
    | Lexer.TMinus -> (
      let sp2 = next st in
      match sp2.tok with
      | Lexer.TInt i -> -i
      | t -> err sp2 "expected %s, found %s" what (Lexer.token_name t))
    | t -> err sp "expected %s, found %s" what (Lexer.token_name t)

  (* --- expressions --- *)

  let rec parse_expr st =
    let lhs = parse_term st in
    parse_expr_rest st lhs

  and parse_expr_rest st lhs =
    match (peek st).tok with
    | Lexer.TPlus ->
      advance st;
      let rhs = parse_term st in
      parse_expr_rest st (Ast.Bin (Ast.Add, lhs, rhs))
    | Lexer.TMinus ->
      advance st;
      let rhs = parse_term st in
      parse_expr_rest st (Ast.Bin (Ast.Sub, lhs, rhs))
    | _ -> lhs

  and parse_term st =
    let lhs = parse_factor st in
    parse_term_rest st lhs

  and parse_term_rest st lhs =
    match (peek st).tok with
    | Lexer.TStar ->
      advance st;
      let rhs = parse_factor st in
      parse_term_rest st (Ast.Bin (Ast.Mul, lhs, rhs))
    | Lexer.TSlash ->
      advance st;
      let rhs = parse_factor st in
      parse_term_rest st (Ast.Bin (Ast.Div, lhs, rhs))
    | _ -> lhs

  and parse_factor st =
    let sp = next st in
    match sp.tok with
    | Lexer.TInt i -> Ast.Num (float_of_int i)
    | Lexer.TFloat f -> Ast.Num f
    | Lexer.TMinus -> Ast.Neg (parse_factor st)
    | Lexer.TLparen ->
      let e = parse_expr st in
      expect st Lexer.TRparen "')'";
      e
    | Lexer.TIdent name -> (
      match (peek st).tok with
      | Lexer.TLbrack ->
        advance st;
        let sub = parse_expr st in
        expect st Lexer.TRbrack "']'";
        Ast.Aref (name, sub)
      | Lexer.TLparen ->
        advance st;
        let sub = parse_expr st in
        expect st Lexer.TRparen "')'";
        Ast.Aref (name, sub)
      | _ -> if st.index_var = Some name then Ast.Ivar else Ast.Scalar name)
    | t -> err sp "expected an expression, found %s" (Lexer.token_name t)

  let parse_relop st =
    let sp = next st in
    match sp.tok with
    | Lexer.TLt -> Ast.Lt
    | Lexer.TLe -> Ast.Le
    | Lexer.TGt -> Ast.Gt
    | Lexer.TGe -> Ast.Ge
    | Lexer.TEq -> Ast.Eq
    | Lexer.TNe -> Ast.Ne
    | t -> err sp "expected a comparison operator, found %s" (Lexer.token_name t)

  (* --- statements --- *)

  let parse_lhs st =
    let sp = peek st in
    let name = ident st "an assignment target" in
    match (peek st).tok with
    | Lexer.TLbrack ->
      advance st;
      let sub = parse_expr st in
      expect st Lexer.TRbrack "']'";
      Ast.Larr (name, sub)
    | Lexer.TLparen ->
      advance st;
      let sub = parse_expr st in
      expect st Lexer.TRparen "')'";
      Ast.Larr (name, sub)
    | Lexer.TAssign -> Ast.Lscalar name
    | t -> err sp "expected '[', '(' or '=' after %S, found %s" name (Lexer.token_name t)

  let parse_stmt st ~default_label =
    (* Optional label: IDENT ':' *)
    let label =
      match st.toks with
      | { tok = Lexer.TIdent l; _ } :: { tok = Lexer.TColon; _ } :: rest ->
        st.toks <- rest;
        l
      | _ -> default_label
    in
    let guard =
      if (peek st).tok = Lexer.TIf then begin
        advance st;
        expect st Lexer.TLparen "'(' after IF";
        let lhs = parse_expr st in
        let rel = parse_relop st in
        let rhs = parse_expr st in
        expect st Lexer.TRparen "')' closing the IF condition";
        Some { Ast.rel; lhs; rhs }
      end
      else None
    in
    let lhs = parse_lhs st in
    expect st Lexer.TAssign "'='";
    let rhs = parse_expr st in
    { Ast.label; guard; lhs; rhs }

  let parse_loop_at st ~name =
    let sp = peek st in
    let kind =
      match sp.tok with
      | Lexer.TDo -> Ast.Do
      | Lexer.TDoacross -> Ast.Doacross
      | t -> err sp "expected DO or DOACROSS, found %s" (Lexer.token_name t)
    in
    advance st;
    let index = ident st "the loop variable" in
    expect st Lexer.TAssign "'='";
    let lo = int_lit st "the lower bound" in
    expect st Lexer.TComma "','";
    let hi = int_lit st "the upper bound" in
    expect st Lexer.TNewline "a newline after the loop header";
    st.index_var <- Some index;
    let body = ref [] in
    let count = ref 0 in
    skip_newlines st;
    while (peek st).tok <> Lexer.TEnddo do
      incr count;
      let s = parse_stmt st ~default_label:(Printf.sprintf "S%d" !count) in
      body := s :: !body;
      (match (peek st).tok with
      | Lexer.TNewline -> advance st
      | Lexer.TEnddo -> ()
      | t -> err (peek st) "expected a newline or ENDDO, found %s" (Lexer.token_name t));
      skip_newlines st
    done;
    advance st (* ENDDO *);
    st.index_var <- None;
    Ast.make_loop ~kind ~index ~lo ~hi ~body:(List.rev !body) ~name

  let parse ?(name = "loop") src =
    Isched_obs.Span.with_ ~name:"frontend.parse" (fun () ->
        let st = { toks = Lexer.tokenize src; index_var = None } in
        let loops = ref [] in
        let count = ref 0 in
        skip_newlines st;
        while (peek st).tok <> Lexer.TEof do
          incr count;
          let l = parse_loop_at st ~name:(Printf.sprintf "%s.L%d" name !count) in
          loops := l :: !loops;
          skip_newlines st
        done;
        List.rev !loops)

  let parse_loop ?(name = "loop") src =
    match parse ~name src with
    | [ l ] -> Ast.with_name l name
    | ls ->
      raise
        (Error { line = 1; col = 1; message = Printf.sprintf "expected exactly one loop, found %d" (List.length ls) })
end

(* [Sema.parse_checked] over the reference parser. *)
let parse_checked ?name src =
  match
    let loops = Parser.parse ?name src in
    List.iter Isched_frontend.Sema.check_exn loops;
    loops
  with
  | loops -> Ok loops
  | exception Parser.Error { line; col; message } ->
    Error (Printf.sprintf "parse error at %d:%d: %s" line col message)
  | exception Lexer.Error { line; col; message } ->
    Error (Printf.sprintf "lex error at %d:%d: %s" line col message)
  | exception Invalid_argument m -> Error m
