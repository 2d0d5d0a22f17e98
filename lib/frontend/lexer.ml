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

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable tok : token;
  mutable tok_line : int;
  mutable tok_col : int;
}

let is_digit c = c >= '0' && c <= '9'

(* Each [skip_*] returns the first index at or after [i] outside its class. *)
let rec skip_alnum src i =
  if i >= String.length src then i
  else match String.unsafe_get src i with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> skip_alnum src (i + 1) | _ -> i

let rec skip_digits src i = if i < String.length src && is_digit (String.unsafe_get src i) then skip_digits src (i + 1) else i

let rec skip_blanks src i =
  if i >= String.length src then i
  else match String.unsafe_get src i with ' ' | '\t' | '\r' -> skip_blanks src (i + 1) | _ -> i

let rec skip_line src i = if i < String.length src && String.unsafe_get src i <> '\n' then skip_line src (i + 1) else i

(* [src] holds [kw] from [start] on, up to ASCII case. *)
let rec is_kw src start kw i =
  i = String.length kw || (Char.uppercase_ascii src.[start + i] = kw.[i] && is_kw src start kw (i + 1))

(* Shared tokens for one-letter names (the loop index above all) and for
   the small literals that loop bounds, offsets and constants use. *)
let letters = Array.init 256 (fun i -> TIdent (String.make 1 (Char.chr i)))
let small_ints = Array.init 256 (fun i -> TInt i)

let word src start len =
  match len with
  | 1 -> letters.(Char.code src.[start])
  | 2 when is_kw src start "DO" 0 -> TDo
  | 2 when is_kw src start "IF" 0 -> TIf
  | 8 when is_kw src start "DOACROSS" 0 -> TDoacross
  | 5 when is_kw src start "ENDDO" 0 -> TEnddo
  | 6 when is_kw src start "END_DO" 0 -> TEnddo
  | 11 when is_kw src start "ENDDOACROSS" 0 -> TEnddo
  | 12 when is_kw src start "END_DOACROSS" 0 -> TEnddo
  | _ -> TIdent (String.sub src start len)

(* The decimal value of the digits [src.[i .. j - 1]], or -1 when it
   exceeds [max_int]. *)
let rec decimal src j v i =
  if i = j then v
  else
    let d = Char.code src.[i] - 48 in
    if v > (max_int - d) / 10 then -1 else decimal src j ((10 * v) + d) (i + 1)

let err c message = raise (Error { line = c.line; col = c.col; message })

(* Makes the [len] bytes at the scan position the current token. *)
let set c tok len =
  c.tok <- tok;
  c.tok_line <- c.line;
  c.tok_col <- c.col;
  c.pos <- c.pos + len;
  c.col <- c.col + len

(* The byte after [i], or NUL at the end. *)
let second src i = if i + 1 < String.length src then src.[i + 1] else '\000'

let rec advance c =
  let src = c.src and i = c.pos in
  if i >= String.length src then set c (match c.tok with TNewline | TEof -> TEof | _ -> TNewline) 0
  else
    match src.[i] with
    | '\n' ->
      (* A run of blank or comment lines is one TNewline. *)
      let repeat = match c.tok with TNewline -> true | _ -> false in
      if not repeat then set c TNewline 0;
      c.pos <- i + 1;
      c.line <- c.line + 1;
      c.col <- 1;
      if repeat then advance c
    | (' ' | '\t' | '\r' | '!' | '#') as ch ->
      let j = if ch = '!' || ch = '#' then skip_line src i else skip_blanks src i in
      c.pos <- j;
      c.col <- c.col + (j - i);
      advance c
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let len = skip_alnum src i - i in
      set c (word src i len) len
    | '0' .. '9' ->
      let j = skip_digits src i in
      if is_digit (second src j) && src.[j] = '.' then
        let len = skip_digits src (j + 1) - i in
        set c (TFloat (float_of_string (String.sub src i len))) len
      else begin
        match decimal src j 0 i with
        | -1 ->
          c.col <- c.col + (j - i);
          err c (Printf.sprintf "malformed integer %S" (String.sub src i (j - i)))
        | v -> set c (if v < 256 then small_ints.(v) else TInt v) (j - i)
      end
    | '=' when second src i = '=' -> set c TEq 2
    | '<' when second src i = '>' -> set c TNe 2
    | '<' when second src i = '=' -> set c TLe 2
    | '>' when second src i = '=' -> set c TGe 2
    | '/' when second src i = '=' -> set c TNe 2
    | '=' -> set c TAssign 1
    | ',' -> set c TComma 1
    | ':' -> set c TColon 1
    | '(' -> set c TLparen 1
    | ')' -> set c TRparen 1
    | '[' -> set c TLbrack 1
    | ']' -> set c TRbrack 1
    | '+' -> set c TPlus 1
    | '-' -> set c TMinus 1
    | '*' -> set c TStar 1
    | '/' -> set c TSlash 1
    | '<' -> set c TLt 1
    | '>' -> set c TGt 1
    | ch -> err c (Printf.sprintf "illegal character %C" ch)

let create src =
  (* A TNewline "before" the source: leading blank lines yield none. *)
  let c = { src; pos = 0; line = 1; col = 1; tok = TNewline; tok_line = 1; tok_col = 1 } in
  advance c;
  c

let colon_follows c =
  let i = skip_blanks c.src c.pos in
  i < String.length c.src && c.src.[i] = ':'

type spanned = { tok : token; line : int; col : int }

let tokenize src =
  let c = create src in
  let rec go acc =
    let acc = { tok = c.tok; line = c.tok_line; col = c.tok_col } :: acc in
    match c.tok with TEof -> List.rev acc | _ -> advance c; go acc
  in
  go []

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
