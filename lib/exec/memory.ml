type tag = Initial | Written of { iter : int; instr : int }

let tag_equal a b =
  match (a, b) with
  | Initial, Initial -> true
  | Written a, Written b -> Int.equal a.iter b.iter && Int.equal a.instr b.instr
  | Initial, Written _ | Written _, Initial -> false

type cell = { value : float; tag : tag }

(* A writer tag packs as the iteration above 25 bits of [instr + 1], so
   [Ast_interp]'s [instr = -1] packs too.  Iterations stay inside
   (-2^37, 2^37), so no packed tag reaches a sentinel at either end of
   the int range: [fresh] marks a cell never touched. *)
let initial = min_int
let never = max_int - 1
let fresh = max_int

let written ~iter ~instr =
  if instr < -1 || instr >= 1 lsl 24 || iter <= -(1 lsl 37) || iter >= 1 lsl 37 then
    invalid_arg (Printf.sprintf "Memory: tag (iteration %d, instruction %d) cannot be packed" iter instr);
  (iter lsl 25) lor (instr + 1)

let pack_tag = function Initial -> initial | Written { iter; instr } -> written ~iter ~instr

let unpack_tag v =
  if v = initial || v >= never then Initial
  else Written { iter = v asr 25; instr = (v land ((1 lsl 25) - 1)) - 1 }

module Stbl = Hashtbl.Make (String)

module Itbl = Hashtbl.Make (Int)

(* Positions [0, span) are the window, element indices [lo, lo + span);
   positions [span, used) hold spilled cells, found through [spill].
   The window grows while nothing has spilled and its span stays within
   max(1024, 4 × touched); past that an index spills, so a sparse
   subscript never makes a window span the raw index range. *)
type slot = {
  name : string;
  scalar : bool;
  first : int;
  key : Semantics.key;
  mutable lo : int;
  mutable span : int;
  mutable used : int;
  mutable touched : int;
  mutable values : float array;
  mutable tags : int array;
  mutable marks : int array;
  mutable spill : int Itbl.t;
}

(* Scalar [A] and array [A] are different cells. *)
type t = { arrays : slot Stbl.t; scalars : slot Stbl.t }

let create () = { arrays = Stbl.create 8; scalars = Stbl.create 8 }

(* Shared by every slot that never spilled; never written. *)
let no_spill : int Itbl.t = Itbl.create 1

let slot_in ?(window = 16) tbl ~scalar name =
  match Stbl.find_opt tbl name with
  | Some s -> s
  | None ->
    let span = if scalar then 1 else 0 in
    let s =
      { name; scalar; first = Int.min 1024 (Int.max 16 window); key = Semantics.key (); lo = 0; span;
        used = span; touched = 0; values = Array.make span 0.; tags = Array.make span fresh;
        marks = Array.make span (-1); spill = no_spill }
    in
    Stbl.add tbl name s;
    s

let array_slot ?window t name = slot_in ?window t.arrays ~scalar:false name
let scalar_slot t name = slot_in t.scalars ~scalar:true name
let slot_name s = s.name
let is_scalar s = s.scalar
let values s = s.values
let tags s = s.tags
let marks s = s.marks

let initial_value ~scalar name idx =
  if scalar then Semantics.init_scalar name else Semantics.init_value name idx

(* Columns of [cap] cells with the first [n] moved to position [at]. *)
let realloc s ~cap ~at ~n =
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b at n;
    b
  in
  s.values <- widen s.values 0.;
  s.tags <- widen s.tags fresh;
  s.marks <- widen s.marks (-1)

(* The position of [idx], outside the window: widen the window (at
   least doubling; the first spans [first] cells from just below
   [idx]), or spill. *)
let place s idx =
  let j = idx - s.lo in
  let hull = if idx >= s.lo then j + 1 else s.span - j in
  if s.spill == no_spill && (s.span = 0 || (hull > 0 && hull <= Int.max 1024 (4 * (s.touched + 1))))
  then begin
    let span = if s.span = 0 then s.first else Int.max hull (2 * s.span) in
    let lo = if s.span = 0 then idx - 8 else if idx < s.lo then s.lo + s.span - span else s.lo in
    realloc s ~cap:span ~at:(if s.span = 0 then 0 else s.lo - lo) ~n:s.span;
    s.lo <- lo;
    s.span <- span;
    s.used <- span;
    idx - lo
  end
  else
    match Itbl.find s.spill idx with
    | j -> j
    | exception Not_found ->
      if s.spill == no_spill then s.spill <- Itbl.create 16;
      if s.used = Array.length s.tags then realloc s ~cap:(2 * s.used) ~at:0 ~n:s.used;
      Itbl.add s.spill idx s.used;
      s.used <- s.used + 1;
      s.used - 1

let claim s idx =
  let j = idx - s.lo in
  let j = if j >= 0 && j < s.span then j else place s idx in
  if s.tags.(j) = fresh then s.touched <- s.touched + 1;
  j

let locate s idx =
  let j = claim s idx in
  if s.tags.(j) = fresh then begin
    if s.scalar then s.values.(j) <- Semantics.init_scalar s.name
    else Semantics.init_into s.key s.name idx s.values j;
    s.tags.(j) <- never
  end;
  j

(* The position of a touched cell [idx], or [-1]; creates nothing. *)
let find s idx =
  let j = idx - s.lo in
  let j =
    if j >= 0 && j < s.span then j else Option.value (Itbl.find_opt s.spill idx) ~default:(-1)
  in
  if j >= 0 && s.tags.(j) <> fresh then j else -1

(* --- access by name --- *)

let cell_in s ~scalar name idx =
  match Option.map (fun s -> (s, find s idx)) s with
  | Some (s, j) when j >= 0 -> { value = s.values.(j); tag = unpack_tag s.tags.(j) }
  | _ -> { value = initial_value ~scalar name idx; tag = Initial }

let set_in s idx value tag =
  let tag = pack_tag tag in
  let j = claim s idx in
  s.values.(j) <- value;
  s.tags.(j) <- tag

let read t name idx = cell_in (Stbl.find_opt t.arrays name) ~scalar:false name idx
let get t name idx = (read t name idx).value
let tag_of t name idx = (read t name idx).tag
let set t name idx value tag = set_in (array_slot t name) idx value tag
let read_scalar t name = cell_in (Stbl.find_opt t.scalars name) ~scalar:true name 0
let get_scalar t name = (read_scalar t name).value
let scalar_tag_of t name = (read_scalar t name).tag
let set_scalar t name value tag = set_in (scalar_slot t name) 0 value tag

(* [f idx j] for every written cell of [s], in no particular order. *)
let iter_written s f =
  let written j = s.tags.(j) < never in
  for j = 0 to s.span - 1 do
    if written j then f (s.lo + j) j
  done;
  Itbl.iter (fun idx j -> if written j then f idx j) s.spill

let written_in tbl f =
  Stbl.fold
    (fun name s acc ->
      let acc = ref acc in
      iter_written s (fun idx j -> acc := f name idx s.values.(j) :: !acc);
      !acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let written_cells t = written_in t.arrays (fun name idx v -> ((name, idx), v))
let written_scalars t = written_in t.scalars (fun name _ v -> (name, v))

(* Bitwise, NaN-safe: [Semantics.eq] written where the floats are read. *)
let[@inline] same x y = Int64.bits_of_float x = Int64.bits_of_float y

exception Differs

(* Every cell a slot of [a] wrote reads the same in [b]'s slot of that
   name; run both ways, that covers the union of written cells without
   building it. *)
let covered a b =
  Stbl.iter
    (fun name sa ->
      let sb = Stbl.find_opt b name in
      iter_written sa (fun idx j ->
          let k = match sb with Some sb -> find sb idx | None -> -1 in
          let equal =
            match sb with
            | Some sb when k >= 0 -> same sa.values.(j) sb.values.(k)
            | _ -> same sa.values.(j) (initial_value ~scalar:sa.scalar name idx)
          in
          if not equal then raise_notrace Differs))
    a

let equal a b =
  let sides = [ (a.arrays, b.arrays); (b.arrays, a.arrays); (a.scalars, b.scalars); (b.scalars, a.scalars) ] in
  match List.iter (fun (x, y) -> covered x y) sides with () -> true | exception Differs -> false

(* Names, then indices, ascending; each slot is looked up once a side. *)
let diff a b =
  let out = ref [] in
  let each tbl ~scalar show =
    let names t = Stbl.fold (fun name _ acc -> name :: acc) (tbl t) [] in
    let written = function
      | Some s ->
        let acc = ref [] in
        iter_written s (fun idx _ -> acc := idx :: !acc);
        !acc
      | None -> []
    in
    List.iter
      (fun name ->
        let sa = Stbl.find_opt (tbl a) name and sb = Stbl.find_opt (tbl b) name in
        List.iter
          (fun idx ->
            let va = (cell_in sa ~scalar name idx).value and vb = (cell_in sb ~scalar name idx).value in
            if not (same va vb) then out := Printf.sprintf "%s: %h vs %h" (show name idx) va vb :: !out)
          (List.sort_uniq compare (written sa @ written sb)))
      (List.sort_uniq compare (names a @ names b))
  in
  each (fun t -> t.arrays) ~scalar:false (Printf.sprintf "%s[%d]");
  each (fun t -> t.scalars) ~scalar:true (fun name _ -> name);
  List.rev !out

let pp_tag ppf = function
  | Initial -> Format.pp_print_string ppf "initial"
  | Written { iter; instr } -> Format.fprintf ppf "iter %d, instr %d" iter (instr + 1)
