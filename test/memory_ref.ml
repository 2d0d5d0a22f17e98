(* Reference model for the slot-addressed store: the string-keyed
   [Memory] it replaced (a table of per-array int-keyed tables holding a
   fresh cell per write), kept verbatim as the oracle of the differential
   property in [test_exec.ml].  Test tree only: the library has one
   store, [Isched_exec.Memory]. *)

module Semantics = Isched_exec.Semantics

type tag = Isched_exec.Memory.tag = Initial | Written of { iter : int; instr : int }
type cell = { value : float; tag : tag }

module Stbl = Hashtbl.Make (String)

(* Element indices are small and mostly dense, so the identity is a good
   hash and saves the generic hashing call on every access. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i land max_int
end)

(* One int-keyed table per array name: an access hashes the name once to
   find the array and the index itself to find the cell. *)
type t = { arrays : cell Itbl.t Stbl.t; scalars : cell Stbl.t }

let create () = { arrays = Stbl.create 16; scalars = Stbl.create 16 }

let array_of t name =
  match Stbl.find_opt t.arrays name with
  | Some a -> a
  | None ->
    let a = Itbl.create 64 in
    Stbl.add t.arrays name a;
    a

let find t name idx =
  match Stbl.find_opt t.arrays name with Some a -> Itbl.find_opt a idx | None -> None

let read t name idx =
  match find t name idx with
  | Some c -> c
  | None -> { value = Semantics.init_value name idx; tag = Initial }

let get t name idx = (read t name idx).value
let tag_of t name idx = match find t name idx with Some c -> c.tag | None -> Initial
let set t name idx value tag = Itbl.replace (array_of t name) idx { value; tag }

let read_scalar t name =
  match Stbl.find_opt t.scalars name with
  | Some c -> c
  | None -> { value = Semantics.init_scalar name; tag = Initial }

let get_scalar t name = (read_scalar t name).value

let scalar_tag_of t name =
  match Stbl.find_opt t.scalars name with Some c -> c.tag | None -> Initial

let set_scalar t name value tag = Stbl.replace t.scalars name { value; tag }

let written_cells t =
  Stbl.fold
    (fun name a acc -> Itbl.fold (fun idx c acc -> ((name, idx), c.value) :: acc) a acc)
    t.arrays []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let written_scalars t =
  Stbl.fold (fun k c acc -> (k, c.value) :: acc) t.scalars []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let diff a b =
  let out = ref [] in
  let note fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let keys l = List.sort_uniq compare l in
  let cells t = List.map fst (written_cells t) in
  List.iter
    (fun (name, idx) ->
      let va = get a name idx and vb = get b name idx in
      if not (Semantics.eq va vb) then note "%s[%d]: %h vs %h" name idx va vb)
    (keys (cells a @ cells b));
  let scalars t = List.map fst (written_scalars t) in
  List.iter
    (fun name ->
      let va = get_scalar a name and vb = get_scalar b name in
      if not (Semantics.eq va vb) then note "%s: %h vs %h" name va vb)
    (keys (scalars a @ scalars b));
  List.rev !out

exception Differs

(* Every cell [a] wrote reads the same in [b]; run both ways, that covers
   the union of written cells without building it. *)
let covered a b =
  Stbl.iter
    (fun name cells ->
      let other = match Stbl.find_opt b.arrays name with Some o -> o | None -> Itbl.create 1 in
      Itbl.iter
        (fun idx c ->
          let v =
            match Itbl.find_opt other idx with
            | Some c' -> c'.value
            | None -> Semantics.init_value name idx
          in
          if not (Semantics.eq c.value v) then raise_notrace Differs)
        cells)
    a.arrays;
  Stbl.iter
    (fun name c -> if not (Semantics.eq c.value (get_scalar b name)) then raise_notrace Differs)
    a.scalars

let equal a b =
  match (covered a b; covered b a) with () -> true | exception Differs -> false
