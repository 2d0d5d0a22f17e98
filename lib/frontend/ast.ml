type relop = Lt | Le | Gt | Ge | Eq | Ne
type binop = Add | Sub | Mul | Div

type expr =
  | Num of float
  | Ivar
  | Scalar of string
  | Aref of string * expr
  | Bin of binop * expr * expr
  | Neg of expr

type cond = { rel : relop; lhs : expr; rhs : expr }
type lhs = Larr of string * expr | Lscalar of string

type stmt = { label : string; guard : cond option; lhs : lhs; rhs : expr }
type loop_kind = Do | Doacross

type loop = {
  kind : loop_kind;
  index : string;
  lo : int;
  hi : int;
  body : stmt list;
  name : string;
  digest : int;
      (* Structural hash of the other fields, fixed at construction.
         Downstream memo tables (Pipeline.prepare, the serve cache) key
         on whole loops tens of thousands of times per bench run and
         hash on this instead of re-walking the AST.  Build loops
         through [make_loop]/[with_body]/[with_name] so the digest stays
         consistent with structural equality: equal loops always carry
         equal digests. *)
}

(* The runtime caps [hash_param]'s breadth-first walk at 256 values
   whatever the bounds, so the digest covers the header and the first
   statements only (on the scale-20 corpus, replacing the last
   statement's right-hand side leaves 769 of 1,310 digests unchanged).
   Equality decides, so that costs collisions, not correctness.  The
   digest picks the serve cache's stripes: changing it moves the hit
   pattern.  Deterministic across runs (no randomized seed). *)
let compute_digest ~kind ~index ~lo ~hi ~body ~name =
  Hashtbl.hash_param 1000 10000 (kind, index, lo, hi, body, name)

let make_loop ~kind ~index ~lo ~hi ~body ~name =
  { kind; index; lo; hi; body; name; digest = compute_digest ~kind ~index ~lo ~hi ~body ~name }

let with_body l body =
  make_loop ~kind:l.kind ~index:l.index ~lo:l.lo ~hi:l.hi ~body ~name:l.name

let with_name l name =
  make_loop ~kind:l.kind ~index:l.index ~lo:l.lo ~hi:l.hi ~body:l.body ~name

let iterations l = max 0 (l.hi - l.lo + 1)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Num _ | Ivar | Scalar _ -> acc
  | Aref (_, sub) -> fold_expr f acc sub
  | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Neg a -> fold_expr f acc a

let arrays_read e =
  fold_expr (fun acc e -> match e with Aref (a, sub) -> (a, sub) :: acc | _ -> acc) [] e
  |> List.rev

let scalars_read e =
  fold_expr (fun acc e -> match e with Scalar s -> s :: acc | _ -> acc) [] e |> List.rev

let cond_exprs (c : cond) = [ c.lhs; c.rhs ]

let stmt_arrays_read s =
  let guard_reads =
    match s.guard with None -> [] | Some c -> List.concat_map arrays_read (cond_exprs c)
  in
  let sub_reads = match s.lhs with Larr (_, sub) -> arrays_read sub | Lscalar _ -> [] in
  guard_reads @ sub_reads @ arrays_read s.rhs

let stmt_scalars_read s =
  let guard_reads =
    match s.guard with None -> [] | Some c -> List.concat_map scalars_read (cond_exprs c)
  in
  let sub_reads = match s.lhs with Larr (_, sub) -> scalars_read sub | Lscalar _ -> [] in
  guard_reads @ sub_reads @ scalars_read s.rhs

let rec rename_scalar ~from ~into e =
  match e with
  | Scalar s when s = from -> into
  | Num _ | Ivar | Scalar _ -> e
  | Aref (a, sub) -> Aref (a, rename_scalar ~from ~into sub)
  | Bin (op, a, b) -> Bin (op, rename_scalar ~from ~into a, rename_scalar ~from ~into b)
  | Neg a -> Neg (rename_scalar ~from ~into a)

let relop_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let binop_name = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
let prec = function Add | Sub -> 1 | Mul | Div -> 2

let pp_num ppf x =
  if Float.is_integer x && Float.abs x < 1e15 then Format.fprintf ppf "%d" (int_of_float x)
  else Format.fprintf ppf "%g" x

let rec pp_expr_prec p ppf e =
  match e with
  | Num x -> pp_num ppf x
  | Ivar -> Format.pp_print_string ppf "I"
  | Scalar s -> Format.pp_print_string ppf s
  | Aref (a, sub) -> Format.fprintf ppf "%s[%a]" a (pp_expr_prec 0) sub
  | Neg a -> Format.fprintf ppf "-%a" (pp_expr_prec 3) a
  | Bin (op, a, b) ->
    let q = prec op in
    let body ppf () =
      Format.fprintf ppf "%a %s %a" (pp_expr_prec q) a (binop_name op) (pp_expr_prec (q + 1)) b
    in
    if q < p then Format.fprintf ppf "(%a)" body () else body ppf ()

let pp_expr ppf e = pp_expr_prec 0 ppf e

let pp_lhs ppf = function
  | Larr (a, sub) -> Format.fprintf ppf "%s[%a]" a pp_expr sub
  | Lscalar s -> Format.pp_print_string ppf s

let pp_stmt ppf s =
  Format.fprintf ppf "%s: " s.label;
  (match s.guard with
  | Some c ->
    Format.fprintf ppf "IF (%a %s %a) " pp_expr c.lhs (relop_name c.rel) pp_expr c.rhs
  | None -> ());
  Format.fprintf ppf "%a = %a" pp_lhs s.lhs pp_expr s.rhs

let pp_loop ppf l =
  let kw = match l.kind with Do -> "DO" | Doacross -> "DOACROSS" in
  Format.fprintf ppf "%s %s = %d, %d@." kw l.index l.lo l.hi;
  List.iter (fun s -> Format.fprintf ppf "  %a@." pp_stmt s) l.body;
  Format.fprintf ppf "ENDDO@."

let loop_to_string l = Format.asprintf "%a" pp_loop l

let source_lines l = List.length l.body + 2

let rec equal_expr a b =
  match (a, b) with
  | Num x, Num y -> Float.equal x y
  | Ivar, Ivar -> true
  | Scalar x, Scalar y -> String.equal x y
  | Aref (x, sx), Aref (y, sy) -> String.equal x y && equal_expr sx sy
  | Bin (o1, a1, b1), Bin (o2, a2, b2) -> o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | Neg x, Neg y -> equal_expr x y
  | (Num _ | Ivar | Scalar _ | Aref _ | Bin _ | Neg _), _ -> false
