let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

(* --- a small JSON value type with a strict parser --- *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Malformed of string * int

let parse_exn (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (msg, !pos)) in
  let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c) else advance ()
  in
  let parse_lit lit v =
    String.iter (fun c -> if peek () <> c then fail ("bad literal " ^ lit) else advance ()) lit;
    v
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          let cp = ref 0 in
          for _ = 1 to 4 do
            cp := (!cp * 16) + hex_digit (peek ());
            advance ()
          done;
          (* UTF-8 encode the BMP code point (surrogate pairs are left as
             two separately-encoded halves; our own emitter never
             produces them). *)
          let cp = !cp in
          if cp < 0x80 then Buffer.add_char b (Char.chr cp)
          else if cp < 0x800 then begin
            Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
          end
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "bad number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | '"' -> Str (parse_string ())
    | 't' -> parse_lit "true" (Bool true)
    | 'f' -> parse_lit "false" (Bool false)
    | 'n' -> parse_lit "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Malformed (msg, pos) -> Error (Printf.sprintf "%s at offset %d" msg pos)

(* Printing goes through one shared [Buffer] pass.  Integral doubles
   below 2^53 print through [string_of_int] — an order of magnitude
   cheaper than interpreting a [Printf] format per number, and almost
   everything this repo serializes (counters, rows, times) is an
   integer.  The output is byte-identical to the old
   [Printf "%.0f"/"%.12g"] rendering, which the serving protocol's
   round-trip property relies on. *)
let add_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && 1. /. f < 0. then Buffer.add_string b "-0"
    else Buffer.add_string b (string_of_int (int_of_float f))
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let add_quote b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> add_number b f
  | Str s -> add_quote b s
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        add_value b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        add_quote b k;
        Buffer.add_string b ": ";
        add_value b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add_value b v;
  Buffer.contents b

(* --- accessors --- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
