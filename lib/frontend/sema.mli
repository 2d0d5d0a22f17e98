(** Semantic checks run after parsing and before any analysis.

    A loop is well-formed when:
    - it has at least one statement and a non-empty iteration range of
      at most {!max_trip_count} iterations;
    - every name is used consistently as an array (always subscripted) or
      as a scalar (never subscripted), and no name is both;
    - the loop variable is never assigned inside the body;
    - statement labels are unique;
    - no array is subscripted by itself (no [A[A[I]]]), which the code
      generator does not support. *)

type error = { loop : string; message : string }

(** The largest trip count a loop may have (10{^ 4} times the paper's
    n = 100); simulation allocates arrays of that length. *)
val max_trip_count : int

(** [check l] returns all well-formedness violations (empty when the
    loop is valid). *)
val check : Ast.loop -> error list

(** [check_exn l] raises [Invalid_argument] with a readable summary when
    [check l] is non-empty. *)
val check_exn : Ast.loop -> unit

val pp_error : Format.formatter -> error -> unit

(** [parse_checked ?name src] — {!Parser.parse} then {!check_exn} on
    every loop, with malformed input as a one-line message instead of an
    exception: ["parse error at L:C: ..."], ["lex error at L:C: ..."] or
    the semantic summary. *)
val parse_checked : ?name:string -> string -> (Ast.loop list, string) result
