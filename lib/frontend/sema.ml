type error = { loop : string; message : string }

type usage = Array_use | Scalar_use

module Names = Hashtbl.Make (String)

let max_trip_count = 1_000_000

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.loop e.message

let check (l : Ast.loop) =
  let errors = ref [] in
  let add fmt = Printf.ksprintf (fun message -> errors := { loop = l.name; message } :: !errors) fmt in
  if l.body = [] then add "loop body is empty";
  (* [hi - lo] wraps below 0 when the range spans more than [max_int]. *)
  if l.hi < l.lo then add "iteration range %d..%d is empty" l.lo l.hi
  else if l.hi - l.lo >= max_trip_count || l.hi - l.lo < 0 then
    add "iteration range %d..%d has more than %d iterations" l.lo l.hi max_trip_count;
  (* Name usage consistency. *)
  let usage = Names.create 16 in
  let note name u =
    match Names.find_opt usage name with
    | None -> Names.add usage name u
    | Some prev -> if prev <> u then add "name %S is used both as an array and as a scalar" name
  in
  (* [depth] counts subscript nesting: an array reference is allowed in a
     subscript (index arrays, the "others" DOACROSS category), but not
     inside the subscript of such a reference. *)
  let rec walk_expr (e : Ast.expr) ~depth =
    match e with
    | Ast.Num _ | Ast.Ivar -> ()
    | Ast.Scalar s ->
      if s = l.index then () (* parser maps index to Ivar, but be safe *)
      else note s Scalar_use
    | Ast.Aref (a, sub) ->
      note a Array_use;
      if depth >= 2 then add "array %S is subscripted deeper than one indirection level" a;
      walk_expr sub ~depth:(depth + 1)
    | Ast.Bin (_, x, y) ->
      walk_expr x ~depth;
      walk_expr y ~depth
    | Ast.Neg x -> walk_expr x ~depth
  in
  let walk_top e = walk_expr e ~depth:0 in
  let seen_labels = Names.create 16 in
  List.iter
    (fun (s : Ast.stmt) ->
      if Names.mem seen_labels s.label then add "duplicate statement label %S" s.label
      else Names.add seen_labels s.label ();
      (match s.guard with
      | Some c ->
        walk_top c.lhs;
        walk_top c.rhs
      | None -> ());
      (match s.lhs with
      | Ast.Larr (a, sub) ->
        note a Array_use;
        if a = l.index then add "loop variable %S cannot be an array" l.index;
        walk_expr sub ~depth:1
      | Ast.Lscalar name ->
        if name = l.index then add "loop variable %S is assigned in the body" l.index
        else note name Scalar_use);
      walk_top s.rhs)
    l.body;
  List.rev !errors

let check_exn l =
  match Isched_obs.Span.with_ ~name:"frontend.sema" (fun () -> check l) with
  | [] -> ()
  | errs ->
    let msgs = List.map (fun e -> Format.asprintf "%a" pp_error e) errs in
    invalid_arg (String.concat "; " msgs)

let parse_checked ?name src =
  match
    let loops = Parser.parse ?name src in
    List.iter check_exn loops;
    loops
  with
  | loops -> Ok loops
  | exception Parser.Error { line; col; message } ->
    Error (Printf.sprintf "parse error at %d:%d: %s" line col message)
  | exception Lexer.Error { line; col; message } ->
    Error (Printf.sprintf "lex error at %d:%d: %s" line col message)
  | exception Invalid_argument m -> Error m
