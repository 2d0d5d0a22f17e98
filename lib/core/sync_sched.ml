module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Dfg = Isched_dfg.Dfg
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters
module Provenance = Isched_obs.Provenance

let c_runs = Counters.counter "sched.new.runs"
let c_fallbacks = Counters.counter "sched.new.list_fallback"
let d_sync_span = Counters.dist "sched.new.sync_span"

type options = { order_paths : bool }

let default_options = { order_paths = true }

type state = {
  g : Dfg.t;
  res : Resource.t;
  cycle_of : int array;
  (* node -> send node for waits that must become LFD (no wait->send
     path exists), -1 elsewhere; waits heading a sync path carry -1. *)
  lfd_wait_send : int array;
  prov : bool;  (* provenance recording enabled, read once per run *)
  prio : int array;  (* longest path to exit, the phase-3 priority *)
  fuc : int array;  (* per-node Resource.fu_code, memoized on the graph *)
  est : int array;  (* [asap_estimate]'s output, reused across paths *)
}

let placed st i = st.cycle_of.(i) >= 0

(* The refused probes of a [first_fit] scan, re-derived after the fact:
   reserving at [stop] frees nothing, so [reject_reason] still answers
   for every cycle in [start, stop). *)
let rejections_between st ~start ~stop ins =
  let rec go c acc =
    if c >= stop then List.rev acc
    else
      let acc =
        match Resource.reject_reason st.res ~cycle:c ins with
        | Some reason -> { Provenance.at_cycle = c; reason } :: acc
        | None -> acc
      in
      go (c + 1) acc
  in
  go start []

(* The dependence arc that set [ready_cycle], for binding attribution. *)
let binding_arc st i =
  (* Keeps the first arc seen at the maximum readiness time (strictly
     later arcs replace), exactly the old fold's accumulator rule. *)
  let best = ref min_int in
  let res = ref None in
  Dfg.iter_preds st.g i (fun a ->
      let src = Dfg.arc_node a in
      let lat = Dfg.arc_latency a in
      let t = st.cycle_of.(src) + lat in
      if !res = None || t > !best then begin
        best := t;
        res :=
          Some { Provenance.pred = src; latency = lat; arc = Dfg.arc_kind_name (Dfg.arc_kind a) }
      end);
  !res

(* Place node [i] (and, recursively, its unscheduled ancestors) at the
   earliest feasible cycle >= [from].  Waits registered in
   [lfd_wait_send] are additionally forced after their send.  [ctx], when
   given, names the constraint behind a caller-imposed [from] floor (the
   sync-path contiguity of [place_path]); it becomes the decision's
   binding when that floor dominates the dependence-readiness cycle. *)
let rec place st ?(from = 0) ?ctx i =
  if not (placed st i) then begin
    (* One predecessor walk both places the ancestors and accumulates
       the readiness cycle: each predecessor's cycle is final once its
       recursive [place] returns, and later placements never move it. *)
    let g = st.g in
    let ready = ref 0 in
    for e = g.Dfg.pred_off.(i) to g.Dfg.pred_off.(i + 1) - 1 do
      let a = g.Dfg.pred_arc.(e) in
      let src = Dfg.arc_node a in
      place st src;
      let t = st.cycle_of.(src) + Dfg.arc_latency a in
      if t > !ready then ready := t
    done;
    let ready = !ready in
    let from_outer = from in
    let lfd_send = st.lfd_wait_send.(i) in
    let from =
      if lfd_send >= 0 then begin
        place st lfd_send;
        Int.max from (st.cycle_of.(lfd_send) + 1)
      end
      else from
    in
    let start = Int.max from ready in
    let c = Resource.first_fit_code st.res ~from:start st.fuc.(i) in
    Resource.reserve_code st.res ~cycle:c st.fuc.(i);
    st.cycle_of.(i) <- c;
    if st.prov then begin
      let ins = st.g.Dfg.prog.Program.body.(i) in
      let binding =
        if
          lfd_send >= 0
          && st.cycle_of.(lfd_send) + 1 >= ready
          && st.cycle_of.(lfd_send) + 1 >= from_outer
        then Some { Provenance.pred = lfd_send; latency = 1; arc = "sync-order" }
        else if from_outer > ready then ctx
        else binding_arc st i
      in
      Provenance.record ~scheduler:"new" ~prog:st.g.Dfg.prog.Program.name ~instr:i ~cycle:c
        ~ready ~candidates:1 ~priority:st.prio.(i)
        ~rejections:(rejections_between st ~start ~stop:c ins)
        ?binding ()
    end
  end

(* --- synchronization paths --- *)

(* Component discovery and member ordering live in {!Dfg.sync_groups}
   (machine independent, memoized with the graph); only the group-level
   ordering is an option of this scheduler. *)
let group_paths ~order_paths (groups : Dfg.path_group list) =
  if order_paths then
    List.sort
      (fun (a : Dfg.path_group) (b : Dfg.path_group) ->
        let c = Float.compare b.Dfg.gkey a.Dfg.gkey in
        if c <> 0 then c else Int.compare a.Dfg.gorder b.Dfg.gorder)
      groups
  else groups (* already in ascending [gorder] *)

(* Latency-only ASAP times, ignoring resources: the lower bound on any
   node's cycle.  Nodes already placed use their committed cycle. *)
let asap_estimate st =
  let g = st.g and est = st.est in
  for i = 0 to g.Dfg.n - 1 do
    let t = ref (if placed st i then st.cycle_of.(i) else 0) in
    for e = g.Dfg.pred_off.(i) to g.Dfg.pred_off.(i + 1) - 1 do
      let a = g.Dfg.pred_arc.(e) in
      t := Int.max !t (est.(Dfg.arc_node a) + Dfg.arc_latency a)
    done;
    est.(i) <- !t
  done

(* Schedule the nodes of one path on consecutive cycles.

   The span of the path in the final schedule is what multiplies with
   n/d in the LBD cost, so we want the nodes exactly [latency] apart.
   The start cycle is the smallest at which, by the latency-only ASAP
   bound, every path node can sit at its cumulative-latency offset; in
   particular the head Wait is issued late enough that the rest of the
   path never stalls on operand computations.  Ancestors are placed
   lazily (inside [place]) after the earlier path nodes have claimed
   their slots, so they fill surrounding free slots instead of stealing
   the path's.  A residual resource conflict stretches the remainder of
   the path minimally. *)
let place_path st (p : Dfg.sync_path) =
  let nodes = Array.of_list p.Dfg.nodes in
  let k = Array.length nodes in
  if k = 0 then ()
  else begin
    (* Cumulative offsets along the path. *)
    let g = st.g in
    let offs = Array.make k 0 in
    for i = 1 to k - 1 do
      let lat = ref 1 in
      for e = g.Dfg.succ_off.(nodes.(i - 1)) to g.Dfg.succ_off.(nodes.(i - 1) + 1) - 1 do
        let a = g.Dfg.succ_arc.(e) in
        if Dfg.arc_node a = nodes.(i) then lat := Int.max !lat (Dfg.arc_latency a)
      done;
      offs.(i) <- offs.(i - 1) + !lat
    done;
    asap_estimate st;
    let start = ref 0 in
    for i = 0 to k - 1 do
      start := Int.max !start (st.est.(nodes.(i)) - offs.(i))
    done;
    for i = 0 to k - 1 do
      let v = nodes.(i) in
      if not (placed st v) then begin
        (* The sync-path contiguity floor, named for provenance. *)
        let ctx =
          if not st.prov then None
          else if i = 0 then Some { Provenance.pred = -1; latency = 0; arc = "sync-path" }
          else
            Some
              { Provenance.pred = nodes.(i - 1);
                latency = offs.(i) - offs.(i - 1);
                arc = "sync-path" }
        in
        place st ~from:(!start + offs.(i)) ?ctx v;
        let c = st.cycle_of.(v) in
        if c > !start + offs.(i) then start := c - offs.(i)
      end
      else start := Int.max !start (st.cycle_of.(v) - offs.(i))
    done
  end

let run_inner ~options ?baseline (g : Dfg.t) machine =
  let p = g.Dfg.prog in
  let n = g.Dfg.n in
  let st =
    {
      g;
      (* Pooled: dead before the nested baseline [List_sched.run] (the
         only other scratch user on this domain) can reset it — every
         placement happens above, the fallback comparison below only
         reads finished schedules. *)
      res = Resource.scratch machine;
      cycle_of = Array.make n (-1);
      (* Which waits become lexically forward is a property of the graph
         alone; {!Dfg.lfd_sends} memoizes it across the machine
         configurations this graph is scheduled under. *)
      lfd_wait_send = Dfg.lfd_sends g;
      prov = Provenance.enabled ();
      prio = Dfg.longest_path_to_exit g;
      fuc = Dfg.fu_codes g;
      est = Array.make n 0;
    }
  in
  (* Phase 1: Sigwat components' synchronization paths, worst first. *)
  let groups = group_paths ~order_paths:options.order_paths (Dfg.sync_groups g) in
  List.iter (fun grp -> List.iter (place_path st) grp.Dfg.gpaths) groups;
  (* Phase 2: sends (Sig graphs and any remaining Sigwat sends) as soon
     as possible, so the waits that must follow them stay early. *)
  for s = 0 to Array.length p.Program.signals - 1 do
    place st p.Program.signals.(s).send_instr
  done;
  (* Phase 3: everything else, critical path first (ties towards program
     order) so the fill is as dense as the list scheduler's.  Waits
     constrained to follow their sends do so via [lfd_wait_send] inside
     [place]. *)
  let order = Dfg.priority_order g in
  for k = 0 to n - 1 do
    place st order.(k)
  done;
  Resource.flush_probes st.res;
  let sched = Schedule.of_cycles p machine st.cycle_of in
  let sched = Schedule.compact sched g in
  (* The paper's guarantee that the technique "never degrades the system
     performance" is enforced by construction: if plain list scheduling
     would finish the loop earlier (possible on loops with little or no
     synchronization, where greedy ASAP filling can lose a row or two to
     critical-path ordering), return the list schedule instead. *)
  let baseline =
    match baseline with Some b -> b | None -> List_sched.run g machine
  in
  if Lbd_model.exact_time baseline < Lbd_model.exact_time sched then begin
    Counters.incr c_fallbacks;
    baseline
  end
  else sched

let run ?(options = default_options) ?baseline (g : Dfg.t) machine =
  Counters.incr c_runs;
  let s = Span.with_ ~name:"sched.new" (fun () -> run_inner ~options ?baseline g machine) in
  Lbd_model.observe_sync_spans d_sync_span s;
  s
