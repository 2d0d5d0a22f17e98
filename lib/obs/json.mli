(** Minimal JSON support shared by the observability exporters
    ({!Span.export_json}, {!Counters.to_value}), the serve protocol and
    [ischedc load]/[top]: string escaping for the emitters, plus a strict
    value-level parser/serializer for the documents we both write and
    read back (protocol frames, counter snapshots).

    This is intentionally not a general-purpose JSON library — no
    streaming, no number fidelity beyond [float] — but the parser is
    strict (it rejects malformed documents rather than guessing), which
    keeps the emitters honest. *)

(** [escape s] — [s] with the JSON string escapes applied: double
    quote, backslash, and control characters ([\n] and [\t] by name,
    the rest as [\u00XX]).  The result is safe to splice between double
    quotes. *)
val escape : string -> string

(** [quote s] — [escape s] wrapped in double quotes. *)
val quote : string -> string

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list  (** members in document order *)

(** [parse s] parses one JSON document; any deviation, trailing garbage
    included, is an error naming its byte offset. *)
val parse : string -> (value, string) result

(** [to_string v] serializes compactly (single line).  Numbers that are
    integral print without a fraction part; other numbers round-trip to
    12 significant digits. *)
val to_string : value -> string

(** Shallow accessors, each [None] on a kind mismatch. *)

val member : string -> value -> value option
val to_float : value -> float option
val to_str : value -> string option
val to_list : value -> value list option
val to_bool : value -> bool option
