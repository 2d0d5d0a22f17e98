module Machine = Isched_ir.Machine
module Dfg = Isched_dfg.Dfg
module Ipqueue = Isched_util.Ipqueue
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters
module Provenance = Isched_obs.Provenance

let c_runs = Counters.counter "sched.list.runs"
let d_sync_span = Counters.dist "sched.list.sync_span"

(* Per-domain scratch, reused across runs: a scaled bench run schedules
   thousands of small graphs per second, and the working arrays below
   dominated its allocation rate.  Only [cycle_of] escapes into the
   returned schedule and stays freshly allocated.  [head]/[link] form
   the flattened calendar queue: [head.(c)] is 1 + the first node of
   the bucket becoming ready exactly at cycle c (0 = empty), [link.(i)]
   chains to the next node of the same bucket; each node enters the
   calendar exactly once, so drain and insert are O(1) with zero
   allocation.  [head_hwm] is the highest cycle slot dirtied by the
   previous run — the prefix re-zeroed on acquire. *)
type scratch = {
  mutable indeg : int array;
  mutable est : int array;
  mutable link : int array;
  mutable deferred : int array;
  mutable head : int array;
  mutable head_hwm : int;
  ready : Ipqueue.t;
  pending : Ipqueue.t array;  (* per unit kind: parked until the kind frees up *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        indeg = Array.make 64 0;
        est = Array.make 64 0;
        link = Array.make 64 0;
        deferred = Array.make 64 0;
        head = Array.make 64 0;
        head_hwm = 0;
        ready = Ipqueue.create ();
        pending = Array.init Isched_ir.Fu.count (fun _ -> Ipqueue.create ());
      })

let acquire_scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.indeg < n then begin
    let cap = Int.max n (2 * Array.length s.indeg) in
    s.indeg <- Array.make cap 0;
    s.est <- Array.make cap 0;
    s.link <- Array.make cap 0;
    s.deferred <- Array.make cap 0
  end;
  Array.fill s.head 0 (Int.min s.head_hwm (Array.length s.head)) 0;
  s.head_hwm <- 0;
  Ipqueue.clear s.ready;
  Array.iter Ipqueue.clear s.pending;
  s

let run_inner ?(tag = "list") ?priority ?release (g : Dfg.t) machine =
  let n = g.Dfg.n in
  let prio = match priority with Some p -> p | None -> Dfg.longest_path_to_exit g in
  if Array.length prio <> n then invalid_arg "List_sched.run: priority length mismatch";
  (match release with
  | Some r when Array.length r <> n -> invalid_arg "List_sched.run: release length mismatch"
  | _ -> ());
  let res = Resource.scratch machine in
  let fuc = Dfg.fu_codes g in
  let cycle_of = Array.make n (-1) in
  let s = acquire_scratch n in
  let indeg = s.indeg and est = s.est and link = s.link and deferred = s.deferred in
  for i = 0 to n - 1 do
    indeg.(i) <- Dfg.pred_deg g i;
    est.(i) <- (match release with Some r -> Int.max 0 r.(i) | None -> 0)
  done;
  (* Provenance bookkeeping, all gated on one atomic read per run so the
     disabled path touches none of it (pinned byte-identical by the
     property suite). *)
  let prov = Provenance.enabled () in
  let bind : Provenance.binding option array =
    if prov then
      Array.init n (fun i ->
          if est.(i) > 0 then
            Some { Provenance.pred = -1; latency = est.(i); arc = "release" }
          else None)
    else [||]
  in
  let rej : Provenance.rejection list array = if prov then Array.make n [] else [||] in
  let push_future c i =
    if c >= Array.length s.head then begin
      let cap = Int.max (c + 1) (2 * Array.length s.head) in
      let bigger = Array.make cap 0 in
      Array.blit s.head 0 bigger 0 (Array.length s.head);
      s.head <- bigger
    end;
    if c + 1 > s.head_hwm then s.head_hwm <- c + 1;
    link.(i) <- s.head.(c);
    s.head.(c) <- i + 1
  in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push_future est.(i) i
  done;
  let ready = s.ready in
  let pending = s.pending in
  (* Within-cycle deferral stack (provenance path only): nodes popped
     this cycle that did not fit (unit conflict); retried from the next
     cycle on. *)
  let n_def = ref 0 in
  let scheduled = ref 0 in
  let cycle = ref 0 in
  while !scheduled < n do
    let bucket = ref (if !cycle < Array.length s.head then s.head.(!cycle) else 0) in
    while !bucket <> 0 do
      let i = !bucket - 1 in
      Ipqueue.push ready ~prio:prio.(i) ~tie:i i;
      bucket := link.(i)
    done;
    (* Re-admit parked nodes whose unit kind has capacity again.  Within
       one kind and cycle, [fits_code] is monotone in priority (occupancy
       only grows during the scan below), and at most [fu_counts.(k)]
       kind-[k] nodes can start per cycle, so moving the top that many
       parked nodes back to [ready] reproduces the exhaustive re-queue
       exactly — without re-heapifying every blocked node every cycle. *)
    if not prov then
      for k = 0 to Array.length pending - 1 do
        let pq = pending.(k) in
        if (not (Ipqueue.is_empty pq)) && Resource.fits_code res ~cycle:!cycle k then begin
          let grant = ref machine.Machine.fu_counts.(k) in
          while !grant > 0 && not (Ipqueue.is_empty pq) do
            let i = Ipqueue.pop pq in
            Ipqueue.push ready ~prio:prio.(i) ~tie:i i;
            decr grant
          done
        end
      done;
    (* Fill this cycle's issue slots in priority order; nodes that do not
       fit (unit conflict) are parked on their unit kind's pending queue
       until the kind frees up.  Once the cycle's issue slots are gone
       nothing else can fit, so the remaining ready nodes stay queued
       untouched — except under provenance, which owes every blocked node
       a per-cycle rejection record and therefore keeps the exhaustive
       scan with the every-cycle re-queue. *)
    while
      (not (Ipqueue.is_empty ready)) && (prov || Resource.issue_free res ~cycle:!cycle)
    do
      let i = Ipqueue.pop ready in
      if Resource.fits_code res ~cycle:!cycle fuc.(i) then begin
        Resource.reserve_code res ~cycle:!cycle fuc.(i);
        cycle_of.(i) <- !cycle;
        incr scheduled;
        if prov then
          Provenance.record ~scheduler:tag ~prog:g.Dfg.prog.Isched_ir.Program.name ~instr:i
            ~cycle:!cycle ~ready:est.(i)
            ~candidates:(Ipqueue.length ready + !n_def + 1)
            ~priority:prio.(i) ~rejections:(List.rev rej.(i)) ?binding:bind.(i) ();
        for e = g.Dfg.succ_off.(i) to g.Dfg.succ_off.(i + 1) - 1 do
          let a = g.Dfg.succ_arc.(e) in
          let dst = Dfg.arc_node a in
          let lat = Dfg.arc_latency a in
          indeg.(dst) <- indeg.(dst) - 1;
          let ready_at = !cycle + lat in
          if prov && ready_at >= est.(dst) then
            bind.(dst) <-
              Some
                { Provenance.pred = i;
                  latency = lat;
                  arc = Dfg.arc_kind_name (Dfg.arc_kind a) };
          est.(dst) <- Int.max est.(dst) ready_at;
          if indeg.(dst) = 0 then push_future (Int.max est.(dst) (!cycle + 1)) dst
        done
      end
      else if prov then begin
        let ins = g.Dfg.prog.Isched_ir.Program.body.(i) in
        let reason =
          match Resource.reject_reason res ~cycle:!cycle ins with
          | Some r -> r
          | None -> "no fit"
        in
        rej.(i) <- { Provenance.at_cycle = !cycle; reason } :: rej.(i);
        deferred.(!n_def) <- i;
        incr n_def
      end
      else
        (* Only a unit conflict reaches here on the fast path (the loop
           guard keeps an issue slot open, under which sync ops always
           fit), so [fuc.(i)] is a valid kind index. *)
        Ipqueue.push pending.(fuc.(i)) ~prio:prio.(i) ~tie:i i
    done;
    for d = 0 to !n_def - 1 do
      let i = deferred.(d) in
      Ipqueue.push ready ~prio:prio.(i) ~tie:i i
    done;
    n_def := 0;
    incr cycle
  done;
  Schedule.of_cycles g.Dfg.prog machine cycle_of

let run ?tag ?priority ?release (g : Dfg.t) machine =
  Counters.incr c_runs;
  let s = Span.with_ ~name:"sched.list" (fun () -> run_inner ?tag ?priority ?release g machine) in
  Lbd_model.observe_sync_spans d_sync_span s;
  s
