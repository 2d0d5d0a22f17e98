(** Hand-written pull lexer for the mini-Fortran language.

    Newlines are significant (they terminate statements); ['!'] and ['#']
    start comments that run to the end of the line.  Array subscripts may
    use brackets ([A\[I\]], the paper's notation) or parentheses
    ([A(I)], Fortran's). *)

type token =
  | TDo
  | TDoacross
  | TEnddo
  | TIf
  | TIdent of string
  | TInt of int
  | TFloat of float
  | TAssign  (** [=] *)
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
  | TEq  (** [==] *)
  | TNe  (** [<>] or [/=] ([!] starts a comment) *)
  | TNewline
  | TEof

exception Error of { line : int; col : int; message : string }

(** A cursor over one source: the current token, its 1-based position,
    and the scan position just past it.  A run of newlines and comment
    lines is one [TNewline]; a non-empty stream ends with [TNewline],
    then [TEof] for ever.  {!create} and {!advance} raise {!Error} on an
    illegal character or an integer above [max_int]. *)
type t = private {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable tok : token;
  mutable tok_line : int;
  mutable tok_col : int;
}

val create : string -> t
val advance : t -> unit

(** [colon_follows c] — the token after the current one is [TColon]. *)
val colon_follows : t -> bool

type spanned = { tok : token; line : int; col : int }

(** [tokenize src] is the whole stream of [src], [TEof] included. *)
val tokenize : string -> spanned list

(** [token_name t] is a short description for diagnostics. *)
val token_name : token -> string
