(* Reference model for redundant-sync elimination: the [bool]-matrix
   reachability [Isched_sync.Elim] used before its bitset rows, kept as
   the oracle of the differential property in [test_sync.ml].  Same
   candidate order, same BFS and same rewrite, without the counters and
   provenance records.  Test tree only: the library has one
   eliminator, [Isched_sync.Elim]. *)

module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Dfg = Isched_dfg.Dfg
module Elim = Isched_sync.Elim

(* Reflexive-transitive reachability as an n x n matrix, closed by one
   reverse sweep over the forward arcs; a sync-condition arc counts
   only while its pair survives. *)
let reachability (g : Dfg.t) ~wait_of_node ~signal_of_node ~allowed_wait ~allowed_signal =
  let n = g.Dfg.n in
  let reach = Array.make_matrix n n false in
  for i = n - 1 downto 0 do
    reach.(i).(i) <- true;
    let arc_allowed a =
      match Dfg.arc_kind a with
      | Dfg.Data | Dfg.Mem -> true
      | Dfg.Sync_snk ->
        let w = wait_of_node.(i) in
        w >= 0 && allowed_wait w
      | Dfg.Sync_src ->
        let s = signal_of_node.(Dfg.arc_node a) in
        s >= 0 && allowed_signal s
    in
    Dfg.iter_succs g i (fun a ->
        if arc_allowed a then begin
          let dst = Dfg.arc_node a in
          let row_dst = reach.(dst) and row_i = reach.(i) in
          for j = 0 to n - 1 do
            if row_dst.(j) then row_i.(j) <- true
          done
        end)
  done;
  reach

(* BFS over (instruction, accumulated distance) states from the
   target's source access; hops ride active waits whose send the
   current instruction reaches. *)
let covered (p : Program.t) (g : Dfg.t) ~wait_of_node ~signal_of_node
    ~(target : Program.wait_info) (active : Program.wait_info list) =
  let d = target.Program.distance in
  if d < 1 then Some []
  else begin
    let allowed_wait =
      let ok = Array.make (Array.length p.Program.waits) false in
      List.iter (fun (k : Program.wait_info) -> ok.(k.Program.wait) <- true) active;
      fun w -> ok.(w)
    in
    let allowed_signal =
      let ok = Array.make (Array.length p.Program.signals) false in
      List.iter (fun (k : Program.wait_info) -> ok.(k.Program.signal) <- true) active;
      fun s -> ok.(s)
    in
    let reach = reachability g ~wait_of_node ~signal_of_node ~allowed_wait ~allowed_signal in
    let start = p.Program.signals.(target.Program.signal).Program.src_instr in
    let goals = Dfg.protected_of_wait p target in
    let visited = Hashtbl.create 64 in
    let parent = Hashtbl.create 64 in
    let at_d = ref [] in
    let q = Queue.create () in
    let push node w via =
      if w <= d && not (Hashtbl.mem visited (node, w)) then begin
        Hashtbl.add visited (node, w) ();
        (match via with None -> () | Some pv -> Hashtbl.add parent (node, w) pv);
        if w = d then at_d := node :: !at_d;
        Queue.push (node, w) q
      end
    in
    push start 0 None;
    while not (Queue.is_empty q) do
      let node, w = Queue.pop q in
      if w < d then
        List.iter
          (fun (k : Program.wait_info) ->
            let send = p.Program.signals.(k.Program.signal).Program.send_instr in
            if reach.(node).(send) then
              push k.Program.wait_instr (w + k.Program.distance) (Some (node, w, k)))
          active
    done;
    let frontier = List.rev !at_d in
    let witness goal = List.find_opt (fun r -> reach.(r).(goal)) frontier in
    if not (List.for_all (fun goal -> witness goal <> None) goals) then None
    else begin
      let rec unwind node w acc =
        match Hashtbl.find_opt parent (node, w) with
        | None -> acc
        | Some (pn, pw, (k : Program.wait_info)) ->
          unwind pn pw
            ({
               Elim.via_wait = k.Program.wait;
               via_signal = k.Program.signal;
               via_distance = k.Program.distance;
             }
            :: acc)
      in
      match witness target.Program.snk_instr with
      | None -> None
      | Some r -> Some (unwind r d [])
    end
  end

(* Drop the eliminated waits and orphaned sends, renumbering the body
   and the signal/wait id spaces. *)
let rebuild (p : Program.t) removed_waits =
  let n = Array.length p.Program.body in
  let n_sig = Array.length p.Program.signals in
  let n_wait = Array.length p.Program.waits in
  let wait_removed = Array.make n_wait false in
  List.iter (fun w -> wait_removed.(w) <- true) removed_waits;
  let signal_used = Array.make n_sig false in
  Array.iter
    (fun (w : Program.wait_info) ->
      if not wait_removed.(w.Program.wait) then signal_used.(w.Program.signal) <- true)
    p.Program.waits;
  let drop = Array.make n false in
  Array.iter
    (fun (w : Program.wait_info) ->
      if wait_removed.(w.Program.wait) then drop.(w.Program.wait_instr) <- true)
    p.Program.waits;
  Array.iter
    (fun (s : Program.signal_info) ->
      if not signal_used.(s.Program.signal) then drop.(s.Program.send_instr) <- true)
    p.Program.signals;
  let renumber keep len =
    let map = Array.make len (-1) in
    let next = ref 0 in
    for i = 0 to len - 1 do
      if keep i then begin
        map.(i) <- !next;
        incr next
      end
    done;
    map
  in
  let index_map = renumber (fun i -> not drop.(i)) n in
  let sig_map = renumber (fun s -> signal_used.(s)) n_sig in
  let wait_map = renumber (fun w -> not wait_removed.(w)) n_wait in
  let keep_arr a = Array.of_list (List.filteri (fun i _ -> not drop.(i)) (Array.to_list a)) in
  let body =
    Array.map
      (function
        | Instr.Send { signal } -> Instr.Send { signal = sig_map.(signal) }
        | Instr.Wait { wait } -> Instr.Wait { wait = wait_map.(wait) }
        | ins -> ins)
      (keep_arr p.Program.body)
  in
  let signals =
    Array.of_list
      (List.filter_map
         (fun (s : Program.signal_info) ->
           if not signal_used.(s.Program.signal) then None
           else
             Some
               {
                 s with
                 Program.signal = sig_map.(s.Program.signal);
                 src_instr = index_map.(s.Program.src_instr);
                 send_instr = index_map.(s.Program.send_instr);
               })
         (Array.to_list p.Program.signals))
  in
  let waits =
    Array.of_list
      (List.filter_map
         (fun (w : Program.wait_info) ->
           if wait_removed.(w.Program.wait) then None
           else
             Some
               {
                 w with
                 Program.wait = wait_map.(w.Program.wait);
                 signal = sig_map.(w.Program.signal);
                 snk_instr = index_map.(w.Program.snk_instr);
                 wait_instr = index_map.(w.Program.wait_instr);
               })
         (Array.to_list p.Program.waits))
  in
  let prog =
    {
      p with
      Program.body;
      signals;
      waits;
      mem = keep_arr p.Program.mem;
      stmt_of = keep_arr p.Program.stmt_of;
    }
  in
  (prog, index_map, signal_used)

(* [run p g] — the reduced program, the eliminations in wait-table
   order and the body index map, as [Elim.run] reports them. *)
let run (p : Program.t) (g : Dfg.t) =
  let n = g.Dfg.n in
  let identity () = Array.init n (fun i -> i) in
  let wait_of_node = Array.make n (-1) in
  Array.iter
    (fun (w : Program.wait_info) -> wait_of_node.(w.Program.wait_instr) <- w.Program.wait)
    p.Program.waits;
  let signal_of_node = Array.make n (-1) in
  Array.iter
    (fun (s : Program.signal_info) -> signal_of_node.(s.Program.send_instr) <- s.Program.signal)
    p.Program.signals;
  let active = ref (Array.to_list p.Program.waits) in
  let eliminated = ref [] in
  Array.iter
    (fun (w : Program.wait_info) ->
      let others =
        List.filter (fun (k : Program.wait_info) -> k.Program.wait <> w.Program.wait) !active
      in
      match covered p g ~wait_of_node ~signal_of_node ~target:w others with
      | None -> ()
      | Some chain ->
        active := others;
        eliminated := (w, chain) :: !eliminated)
    p.Program.waits;
  match !eliminated with
  | [] -> (p, [], identity ())
  | es ->
    let prog, index_map, signal_used =
      rebuild p (List.map (fun ((w : Program.wait_info), _) -> w.Program.wait) es)
    in
    let eliminated =
      List.rev_map
        (fun ((w : Program.wait_info), chain) ->
          { Elim.wait = w; send_removed = not signal_used.(w.Program.signal); chain })
        es
    in
    (prog, eliminated, index_map)
