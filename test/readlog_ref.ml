(* Reference model for [Readlog.compare_logs]: the tuple-keyed hash table
   compare that the flat, densely indexed read log replaced, kept as the
   oracle of the differential tests in [test_exec.ml] and
   [test_check.ml].  It works on the entries [Readlog.to_list] returns.
   Test tree only. *)

module Readlog = Isched_exec.Readlog
module Memory = Isched_exec.Memory

module Key = Hashtbl.Make (struct
  type t = int * int

  let equal ((i, j) : t) (i', j') = Int.equal i i' && Int.equal j j'
  let hash ((i, j) : t) = ((i * 65599) + j) land max_int
end)

let compare_logs ~(reference : Readlog.entry list) ~(actual : Readlog.entry list) =
  let ref_tbl = Key.create (max 16 (List.length reference)) in
  List.iter (fun (e : Readlog.entry) -> Key.replace ref_tbl (e.iter, e.instr) e.observed) reference;
  List.filter_map
    (fun (e : Readlog.entry) ->
      match Key.find_opt ref_tbl (e.iter, e.instr) with
      | Some expected when not (Memory.tag_equal expected e.observed) ->
        Some { Readlog.expected; entry = e }
      | _ -> None)
    actual
