type entry = {
  iter : int;
  instr : int;
  cell : string;
  index : int option;
  observed : Memory.tag;
}

(* A read's (iteration, instruction) packs into one int: the iteration
   above [instr_bits] bits of instruction.  Iterations stay inside
   (-2^37, 2^37), so no key reaches [absent] (no read in the dense
   index).  Observed writers are {!Memory}'s packed tags, which never
   reach [absent] either. *)
let instr_bits = 24
let instr_mask = (1 lsl instr_bits) - 1
let iter_limit = 1 lsl 37
let absent = max_int
let scalar = min_int

let pack ~iter ~instr =
  if instr < 0 || instr > instr_mask || iter <= -iter_limit || iter >= iter_limit then
    invalid_arg
      (Printf.sprintf "Readlog: iteration %d, instruction %d is outside the packable range" iter
         instr);
  (iter lsl instr_bits) lor instr

let unpack_tag = Memory.unpack_tag

(* A column per instruction the reference reads: [col.(instr)] is its
   column, [-1] for one it never reads, and
   [slots.((iter - lo) * cols + col.(instr))] is the packed tag read at
   (iter, instr), [absent] when there was no such read.  A reference of
   [n] iterations over [l] loads fills all [n * l] slots. *)
type dense = { lo : int; span : int; col : int array; cols : int; slots : int array }

(* A log too sparse for a dense table (hand-made, or iterations far
   apart) is indexed by its packed keys instead. *)
module Itbl = Hashtbl.Make (Int)

type index = Dense of dense | Sparse of int Itbl.t

(* One read per position across four columns; [ix] is built by the
   first [compare_logs] that takes the log as reference and stays valid
   while [indexed_at] equals [len] (the log only grows). *)
type t = {
  mutable len : int;
  mutable keys : int array;
  mutable tags : int array;
  mutable elems : int array;
  mutable cells : string array;
  mutable ix : index option;
  mutable indexed_at : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    len = 0;
    keys = Array.make capacity 0;
    tags = Array.make capacity 0;
    elems = Array.make capacity 0;
    cells = Array.make capacity "";
    ix = None;
    indexed_at = -1;
  }

(* The fill values are immediates or the static [""], never a young
   block: [Array.make] of a long array with a young fill forces a minor
   collection. *)
let grow t =
  let cap = 2 * Array.length t.keys in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.keys <- widen t.keys 0;
  t.tags <- widen t.tags 0;
  t.elems <- widen t.elems 0;
  t.cells <- widen t.cells ""

let record_tag t ~iter ~instr ~cell ~index ~tag =
  let key = pack ~iter ~instr and tag = if tag = Memory.never then Memory.initial else tag in
  if t.len = Array.length t.keys then grow t;
  let k = t.len in
  t.keys.(k) <- key;
  t.tags.(k) <- tag;
  t.elems.(k) <- index;
  t.cells.(k) <- cell;
  t.len <- k + 1

let record t ~iter ~instr ~cell ~index ~observed =
  record_tag t ~iter ~instr ~cell ~index ~tag:(Memory.pack_tag observed)

let add t (e : entry) =
  let index =
    match e.index with
    | None -> scalar
    | Some i when i = scalar -> invalid_arg "Readlog.add: element index min_int is reserved"
    | Some i -> i
  in
  record t ~iter:e.iter ~instr:e.instr ~cell:e.cell ~index ~observed:e.observed

let entry t k =
  let key = t.keys.(k) and i = t.elems.(k) in
  {
    iter = key asr instr_bits;
    instr = key land instr_mask;
    cell = t.cells.(k);
    index = (if i = scalar then None else Some i);
    observed = unpack_tag t.tags.(k);
  }

let to_list t = List.init t.len (entry t)

type mismatch = { expected : Memory.tag; entry : entry }

let sparse_index t =
  let tbl = Itbl.create t.len in
  for k = 0 to t.len - 1 do
    Itbl.replace tbl t.keys.(k) t.tags.(k)
  done;
  Sparse tbl

(* Later reads of one (iteration, instruction) overwrite earlier ones,
   in both representations.  A table of more than [limit] slots is not
   built. *)
let build_index t =
  let lo = ref max_int and hi = ref min_int and width = ref 0 in
  for k = 0 to t.len - 1 do
    let iter = t.keys.(k) asr instr_bits in
    lo := Int.min !lo iter;
    hi := Int.max !hi iter;
    width := Int.max !width ((t.keys.(k) land instr_mask) + 1)
  done;
  let limit = (8 * t.len) + 4096 in
  if !width > limit then sparse_index t
  else begin
    let col = Array.make !width (-1) and cols = ref 0 in
    for k = 0 to t.len - 1 do
      let j = t.keys.(k) land instr_mask in
      if col.(j) < 0 then begin
        col.(j) <- !cols;
        incr cols
      end
    done;
    let span = if t.len = 0 then 0 else !hi - !lo + 1 and cols = !cols in
    if span > 0 && span > limit / cols then sparse_index t
    else begin
      let slots = Array.make (span * cols) absent in
      for k = 0 to t.len - 1 do
        let key = t.keys.(k) in
        slots.((((key asr instr_bits) - !lo) * cols) + col.(key land instr_mask)) <- t.tags.(k)
      done;
      Dense { lo = !lo; span; col; cols; slots }
    end
  end

let index_of t =
  match t.ix with
  | Some ix when t.indexed_at = t.len -> ix
  | _ ->
    let ix = build_index t in
    t.ix <- Some ix;
    t.indexed_at <- t.len;
    ix

let lookup ix key =
  match ix with
  | Dense d ->
    let i = (key asr instr_bits) - d.lo and j = key land instr_mask in
    if i >= 0 && i < d.span && j < Array.length d.col && d.col.(j) >= 0 then
      d.slots.((i * d.cols) + d.col.(j))
    else absent
  | Sparse tbl -> ( match Itbl.find_opt tbl key with Some v -> v | None -> absent)

let compare_logs ~reference ~actual =
  let ix = index_of reference in
  let out = ref [] in
  (* Walked backwards so the list comes out in [actual]'s order. *)
  for k = actual.len - 1 downto 0 do
    let expected = lookup ix actual.keys.(k) in
    if expected <> absent && expected <> actual.tags.(k) then
      out := { expected = unpack_tag expected; entry = entry actual k } :: !out
  done;
  !out

let pp_mismatch ppf m =
  let loc =
    match m.entry.index with
    | Some i -> Printf.sprintf "%s[%d]" m.entry.cell i
    | None -> m.entry.cell
  in
  Format.fprintf ppf "iteration %d, instr %d reads %s written by %a (sequentially: %a)"
    m.entry.iter (m.entry.instr + 1) loc Memory.pp_tag m.entry.observed Memory.pp_tag m.expected
