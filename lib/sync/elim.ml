module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Dfg = Isched_dfg.Dfg
module Counters = Isched_obs.Counters
module Provenance = Isched_obs.Provenance

type step = { via_wait : int; via_signal : int; via_distance : int }

type elimination = {
  wait : Program.wait_info;
  send_removed : bool;
  chain : step list;
}

type result = {
  prog : Program.t;
  graph : Dfg.t;
  eliminated : elimination list;
  index_map : int array;
}

let c_waits_removed = Counters.counter "sync.elim.waits_removed"
let c_sends_removed = Counters.counter "sync.elim.sends_removed"

(* Reflexive-transitive reachability over the orderings every legal
   schedule respects: data and memory arcs always, plus the
   sync-condition arcs of pairs the [allowed] predicates accept (the
   active set minus the elimination target).  All arcs point forward in
   body order — data defs precede uses, memory arcs follow program
   order, validate pins sends after sources and waits before sinks — so
   one reverse sweep closes the relation.  Row [i] is a bitset of
   [words n] ints, 62 nodes per int, OR-ed a word at a time; it holds no
   node before [i], so an arc to [dst] ORs only the words from
   [dst / 62] on. *)
let words n = (n + 61) / 62

let reachability (g : Dfg.t) ~wait_of_node ~signal_of_node ~allowed_wait ~allowed_signal =
  let n = g.Dfg.n and w = words g.Dfg.n in
  let reach = Array.make (n * w) 0 in
  for i = n - 1 downto 0 do
    reach.((i * w) + (i / 62)) <- 1 lsl (i mod 62);
    for k = g.Dfg.succ_off.(i) to g.Dfg.succ_off.(i + 1) - 1 do
      let a = g.Dfg.succ_arc.(k) in
      let dst = Dfg.arc_node a in
      let allowed =
        match Dfg.arc_kind a with
        | Dfg.Data | Dfg.Mem -> true
        | Dfg.Sync_snk ->
          (* From a wait to an instruction it protects: trusted only
             while that wait survives. *)
          let wt = wait_of_node.(i) in
          wt >= 0 && allowed_wait wt
        | Dfg.Sync_src ->
          (* From a source access to its send: trusted only while the
             send itself survives, i.e. some surviving wait still blocks
             on the signal. *)
          let s = signal_of_node.(dst) in
          s >= 0 && allowed_signal s
      in
      if allowed then
        for x = dst / 62 to w - 1 do
          reach.((i * w) + x) <- reach.((i * w) + x) lor reach.((dst * w) + x)
        done
    done
  done;
  reach

let reaches (g : Dfg.t) reach i j =
  reach.((i * words g.Dfg.n) + (j / 62)) land (1 lsl (j mod 62)) <> 0

(* [covered p g ~target active] decides whether every instruction
   [target] protects stays ordered after its source event without it,
   and if so returns the hop chain justifying the primary sink.

   BFS over (instruction, accumulated distance) states.  The start is
   the signal's source access at distance 0; a hop through an active
   wait [k] is taken when the current instruction reaches [k]'s [Send]
   intra-iteration (so the send fires after it), landing on [k]'s
   [Wait] node at distance [+ k.distance].  The frontier at exactly
   [target.distance] must reach every protected goal. *)
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
    (* Parent pointers reconstruct the hop chain for the provenance
       record; [at_d] keeps discovery order so the chosen witness is
       deterministic. *)
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
            if reaches g reach node send then
              push k.Program.wait_instr (w + k.Program.distance) (Some (node, w, k)))
          active
    done;
    let frontier = List.rev !at_d in
    let witness goal = List.find_opt (fun r -> reaches g reach r goal) frontier in
    if not (List.for_all (fun goal -> witness goal <> None) goals) then None
    else begin
      (* Chain for the primary sink, hops in source-to-sink order. *)
      let rec unwind node w acc =
        match Hashtbl.find_opt parent (node, w) with
        | None -> acc
        | Some (pn, pw, (k : Program.wait_info)) ->
          unwind pn pw
            ({
               via_wait = k.Program.wait;
               via_signal = k.Program.signal;
               via_distance = k.Program.distance;
             }
            :: acc)
      in
      match witness target.Program.snk_instr with
      | None -> None (* unreachable: snk_instr is a goal *)
      | Some r -> Some (unwind r d [])
    end
  end

(* --- program rewrite --- *)

(* Drop the eliminated [Wait]s and any [Send] left without a blocking
   wait, renumbering body indices and the dense signal/wait id spaces.
   Registers and every non-sync instruction are untouched. *)
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
    let map = Array.make len (-1) and next = ref 0 in
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

let emit_provenance (p : Program.t) (e : elimination) ~candidates =
  if Provenance.enabled () then begin
    let acc = ref 0 in
    let rejections =
      List.map
        (fun s ->
          acc := !acc + s.via_distance;
          {
            Provenance.at_cycle = !acc;
            reason = Printf.sprintf "via Wait_Signal(%s)" (Program.wait_label p s.via_wait);
          })
        e.chain
    in
    let pred =
      match List.rev e.chain with
      | last :: _ -> p.Program.waits.(last.via_wait).Program.wait_instr
      | [] -> -1
    in
    Provenance.record ~scheduler:"elim" ~prog:p.Program.name ~instr:e.wait.Program.wait_instr
      ~cycle:(-1) ~ready:0 ~candidates ~priority:e.wait.Program.distance ~rejections
      ~binding:{ Provenance.pred; latency = e.wait.Program.distance; arc = "sync-elim" }
      ()
  end

let run (p : Program.t) (g : Dfg.t) =
  let n = g.Dfg.n in
  let identity () = Array.init n (fun i -> i) in
  if Array.length p.Program.waits = 0 then
    { prog = p; graph = g; eliminated = []; index_map = identity () }
  else begin
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
          eliminated :=
            { wait = w; send_removed = false (* refined below *); chain } :: !eliminated)
      p.Program.waits;
    match !eliminated with
    | [] -> { prog = p; graph = g; eliminated = []; index_map = identity () }
    | es ->
      let removed = List.map (fun e -> e.wait.Program.wait) es in
      let prog, index_map, signal_used = rebuild p removed in
      Program.validate prog;
      let eliminated =
        List.rev_map
          (fun e -> { e with send_removed = not signal_used.(e.wait.Program.signal) })
          es
      in
      Counters.add c_waits_removed (List.length eliminated);
      Counters.add c_sends_removed
        (Array.length p.Program.signals - Array.length prog.Program.signals);
      let candidates = List.length !active in
      List.iter (fun e -> emit_provenance p e ~candidates) eliminated;
      { prog; graph = Dfg.build prog; eliminated; index_map }
  end
