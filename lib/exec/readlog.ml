type entry = {
  iter : int;
  instr : int;
  cell : string;
  index : int option;
  observed : Memory.tag;
}

type t = entry Isched_util.Vec.t

let create () = Isched_util.Vec.create ()
let add t e = Isched_util.Vec.push t e
let to_list t = Isched_util.Vec.to_list t

type mismatch = { expected : Memory.tag; entry : entry }

(* Reads are keyed by (iteration, instruction). *)
module Key = Hashtbl.Make (struct
  type t = int * int

  let equal ((i, j) : t) (i', j') = Int.equal i i' && Int.equal j j'
  let hash ((i, j) : t) = ((i * 65599) + j) land max_int
end)

let compare_logs ~reference ~actual =
  let ref_tbl = Key.create (max 16 (Isched_util.Vec.length reference)) in
  Isched_util.Vec.iter (fun e -> Key.replace ref_tbl (e.iter, e.instr) e.observed) reference;
  let out = ref [] in
  Isched_util.Vec.iter
    (fun e ->
      match Key.find_opt ref_tbl (e.iter, e.instr) with
      | Some expected when not (Memory.tag_equal expected e.observed) ->
        out := { expected; entry = e } :: !out
      | _ -> ())
    actual;
  List.rev !out

let pp_mismatch ppf m =
  let loc =
    match m.entry.index with
    | Some i -> Printf.sprintf "%s[%d]" m.entry.cell i
    | None -> m.entry.cell
  in
  Format.fprintf ppf "iteration %d, instr %d reads %s written by %a (sequentially: %a)"
    m.entry.iter (m.entry.instr + 1) loc Memory.pp_tag m.entry.observed Memory.pp_tag m.expected
