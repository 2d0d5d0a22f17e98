module Program = Isched_ir.Program
module Machine = Isched_ir.Machine
module Instr = Isched_ir.Instr
module Fu = Isched_ir.Fu
module Dfg = Isched_dfg.Dfg

type t = {
  prog : Program.t;
  machine : Machine.t;
  cycle_of : int array;
  rows : int array array;
  length : int;
}

let of_cycles prog machine cycle_of =
  let n = Array.length prog.Program.body in
  if Array.length cycle_of <> n then invalid_arg "Schedule.of_cycles: length mismatch";
  Array.iteri
    (fun i c ->
      if c < 0 then
        invalid_arg (Printf.sprintf "Schedule.of_cycles: instruction %d unscheduled" (i + 1)))
    cycle_of;
  let length = if n = 0 then 0 else 1 + Array.fold_left Int.max 0 cycle_of in
  (* Counting sort into exactly-sized rows, ascending within each row;
     no intermediate lists. *)
  let counts = Array.make (length + 1) 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) cycle_of;
  let rows = Array.init length (fun c -> Array.make counts.(c) 0) in
  let cur = Array.make (length + 1) 0 in
  for i = 0 to n - 1 do
    let c = cycle_of.(i) in
    rows.(c).(cur.(c)) <- i;
    cur.(c) <- cur.(c) + 1
  done;
  { prog; machine; cycle_of; rows; length }

let position t i = t.cycle_of.(i) + 1

let validate t (g : Dfg.t) =
  let m = t.machine in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  (* Arcs. *)
  for i = 0 to g.Dfg.n - 1 do
    Dfg.iter_succs g i (fun a ->
        let dst = Dfg.arc_node a in
        let lat = Dfg.arc_latency a in
        let gap = t.cycle_of.(dst) - t.cycle_of.(i) in
        if gap < lat then fail "arc %d -> %d needs %d cycles, got %d" (i + 1) (dst + 1) lat gap)
  done;
  (* Issue width. *)
  Array.iteri
    (fun c row ->
      if Array.length row > m.Machine.issue_width then
        fail "row %d issues %d > width %d" c (Array.length row) m.Machine.issue_width)
    t.rows;
  (* Function units: occupancy counting per cycle. *)
  let horizon = t.length + 8 in
  let used = Array.make_matrix Fu.count horizon 0 in
  Array.iteri
    (fun i ins ->
      match Instr.fu ins with
      | None -> ()
      | Some kind ->
        let d = if m.Machine.pipelined then 1 else Fu.latency kind in
        for c = t.cycle_of.(i) to Int.min (horizon - 1) (t.cycle_of.(i) + d - 1) do
          let k = Fu.index kind in
          used.(k).(c) <- used.(k).(c) + 1;
          if used.(k).(c) > Machine.fu_count m kind then
            fail "%s oversubscribed at cycle %d" (Fu.name kind) c
        done)
    t.prog.Program.body;
  match !problem with None -> Ok () | Some msg -> Error msg

let compact t g =
  let current = ref t in
  let try_remove () =
    let s = !current in
    let empty = ref None in
    for c = s.length - 1 downto 0 do
      if Array.length s.rows.(c) = 0 then empty := Some c
    done;
    match !empty with
    | None -> false
    | Some _ ->
      (* Try each empty row, earliest first; accept the first removal
         that validates. *)
      let rec attempt c =
        if c >= s.length then false
        else if Array.length s.rows.(c) > 0 then attempt (c + 1)
        else begin
          let cycle_of =
            Array.map (fun x -> if x > c then x - 1 else x) s.cycle_of
          in
          let candidate = of_cycles s.prog s.machine cycle_of in
          match validate candidate g with
          | Ok () ->
            current := candidate;
            true
          | Error _ -> attempt (c + 1)
        end
      in
      attempt 0
  in
  while try_remove () do
    ()
  done;
  !current

let pp ppf t =
  Array.iteri
    (fun c row ->
      let cells =
        Array.to_list (Array.map (fun i -> string_of_int (i + 1)) row)
      in
      let width = t.machine.Machine.issue_width in
      let padded = cells @ List.init (Int.max 0 (width - List.length cells)) (fun _ -> "-") in
      Format.fprintf ppf "%3d: (%s)@." (c + 1) (String.concat ", " padded))
    t.rows

let pp_wide ppf t =
  Array.iteri
    (fun c row ->
      let cells =
        Array.to_list
          (Array.map
             (fun i ->
               Format.asprintf "%a"
                 (Instr.pp_full
                    ~signal_name:(Program.signal_label t.prog)
                    ~wait_name:(Program.wait_label t.prog))
                 t.prog.Program.body.(i))
             row)
      in
      Format.fprintf ppf "%3d: %s@." (c + 1)
        (if cells = [] then "(empty)" else String.concat "  ||  " cells))
    t.rows

let to_string t = Format.asprintf "%a" pp t
