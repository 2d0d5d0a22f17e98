module Machine = Isched_ir.Machine
module Instr = Isched_ir.Instr
module Fu = Isched_ir.Fu
module Counters = Isched_obs.Counters

(* Probe length of each [first_fit] call: how many candidate cycles were
   tested before one fit.  A growing tail here means the saturation
   hints are losing their bite.  Tallied in the tracker (below 64) and
   merged once per schedule: an [observe] costs five atomics. *)
let d_probes = Counters.dist "resource.first_fit.probes"

(* Occupancy counts are bounded by the machine's issue width / unit
   copies — single digits — so each cell fits an unsigned byte.  A
   [Bigarray] of int8 keeps a whole schedule's tables in a few cache
   lines and off the OCaml heap (no scanning during GC, no boxing). *)
type table = { mutable cells : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable len : int }

let table_create () =
  { cells = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout 64; len = 0 }

(* Cycle-indexed growable occupancy tables.  Schedules touch cycles
   densely from 0, so a flat table beats hashing on every probe; the
   [*_full_below] hints additionally let [first_fit] skip the saturated
   prefix instead of re-scanning it for every placement. *)
type t = {
  mutable machine : Machine.t;  (* mutable only for [scratch] reuse *)
  issue_used : table;  (* cycle -> issue slots used *)
  fu_used : table array;  (* per unit kind, cycle -> units busy *)
  mutable issue_full_below : int;  (* every cycle below has no free issue slot *)
  fu_full_below : int array;  (* per unit kind, every cycle below is saturated *)
  probes : int array;  (* probe length -> unflushed calls *)
}

let[@inline] get_or tbl c = if c < tbl.len then Bigarray.Array1.unsafe_get tbl.cells c else 0

let bump tbl c =
  let cap = Bigarray.Array1.dim tbl.cells in
  if c >= cap then begin
    let cap' = Int.max (c + 1) (2 * cap) in
    let bigger = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout cap' in
    Bigarray.Array1.fill bigger 0;
    Bigarray.Array1.blit tbl.cells (Bigarray.Array1.sub bigger 0 cap);
    tbl.cells <- bigger
  end;
  if c >= tbl.len then begin
    (* [Array1.create] does not zero its storage: clear every cell the
       logical length now covers before the increment below reads it. *)
    for z = tbl.len to c do
      Bigarray.Array1.unsafe_set tbl.cells z 0
    done;
    tbl.len <- c + 1
  end;
  Bigarray.Array1.unsafe_set tbl.cells c (Bigarray.Array1.unsafe_get tbl.cells c + 1)

let create machine =
  Machine.validate machine;
  {
    machine;
    issue_used = table_create ();
    fu_used = Array.init Fu.count (fun _ -> table_create ());
    issue_full_below = 0;
    fu_full_below = Array.make Fu.count 0;
    probes = Array.make 64 0;
  }

let tally t v = if v < 64 then t.probes.(v) <- t.probes.(v) + 1 else Counters.observe d_probes v

let flush_probes t =
  Counters.observe_counts d_probes t.probes;
  Array.fill t.probes 0 64 0

(* One pooled tracker per domain, reset instead of reallocated: a
   scaled bench run creates thousands of short-lived trackers per
   second, and each [create] costs [Fu.count + 1] fresh off-heap
   Bigarrays.  Resetting is O(Fu.count): dropping [len] to 0 makes every
   probe read 0 (see [get_or]) and [bump] re-zeroes cells before first
   use, so no table memory needs clearing. *)
let scratch_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let scratch machine =
  let slot = Domain.DLS.get scratch_key in
  match !slot with
  | None ->
    let t = create machine in
    slot := Some t;
    t
  | Some t ->
    Machine.validate machine;
    t.machine <- machine;
    t.issue_full_below <- 0;
    Array.fill t.fu_full_below 0 (Array.length t.fu_full_below) 0;
    t.issue_used.len <- 0;
    Array.iter (fun (tbl : table) -> tbl.len <- 0) t.fu_used;
    t

let duration t kind = if t.machine.Machine.pipelined then 1 else Fu.latency kind

(* Per-kind base latencies by {!Fu.index}: the schedulers probe and
   reserve via the int code below, bypassing the [Instr.fu] match (it
   showed up as a top profile entry at corpus scale — it runs several
   times per placement otherwise). *)
let fu_latency = Array.init Fu.count (fun i -> Fu.latency (Fu.of_index i))

let[@inline] duration_code t k =
  if t.machine.Machine.pipelined then 1 else Array.unsafe_get fu_latency k

let fu_code i = match Instr.fu i with None -> -1 | Some kind -> Fu.index kind

let issue_free t ~cycle =
  cycle >= 0 && get_or t.issue_used cycle < t.machine.Machine.issue_width

let fits_code t ~cycle k =
  if cycle < 0 then false
  else
    get_or t.issue_used cycle < t.machine.Machine.issue_width
    && (k < 0
       ||
       let avail = t.machine.Machine.fu_counts.(k) in
       let d = duration_code t k in
       let tbl = t.fu_used.(k) in
       let ok = ref true in
       for c = cycle to cycle + d - 1 do
         if get_or tbl c >= avail then ok := false
       done;
       !ok)

let fits t ~cycle i = fits_code t ~cycle (fu_code i)

let reject_reason t ~cycle i =
  (* Diagnostic twin of [fits]: [None] iff [fits] is true, otherwise the
     first constraint refusing the cycle, named.  Pure query — used by
     provenance recording, never by placement itself. *)
  if cycle < 0 then Some "negative cycle"
  else if get_or t.issue_used cycle >= t.machine.Machine.issue_width then
    Some
      (Printf.sprintf "issue width full (%d/%d)" (get_or t.issue_used cycle)
         t.machine.Machine.issue_width)
  else
    match Instr.fu i with
    | None -> None
    | Some kind ->
      let k = Fu.index kind in
      let avail = Machine.fu_count t.machine kind in
      let d = duration t kind in
      let tbl = t.fu_used.(k) in
      let busy = ref None in
      for c = cycle to cycle + d - 1 do
        if !busy = None && get_or tbl c >= avail then busy := Some c
      done;
      (match !busy with
      | None -> None
      | Some c ->
        Some (Printf.sprintf "%s busy (%d/%d) at cycle %d" (Fu.name kind) (get_or tbl c) avail c))

let commit t ~cycle k =
  bump t.issue_used cycle;
  while get_or t.issue_used t.issue_full_below >= t.machine.Machine.issue_width do
    t.issue_full_below <- t.issue_full_below + 1
  done;
  if k >= 0 then begin
    let d = duration_code t k in
    for c = cycle to cycle + d - 1 do
      bump t.fu_used.(k) c
    done;
    let avail = t.machine.Machine.fu_counts.(k) in
    while get_or t.fu_used.(k) t.fu_full_below.(k) >= avail do
      t.fu_full_below.(k) <- t.fu_full_below.(k) + 1
    done
  end

let reserve_code t ~cycle k =
  if not (fits_code t ~cycle k) then
    invalid_arg
      (Printf.sprintf "Resource.reserve: %s does not fit at cycle %d"
         (if k < 0 then "sync op" else Fu.name (Fu.of_index k))
         cycle);
  commit t ~cycle k

let reserve t ~cycle i =
  if not (fits t ~cycle i) then
    invalid_arg (Printf.sprintf "Resource.reserve: %s does not fit at cycle %d" (Instr.to_string i) cycle);
  commit t ~cycle (fu_code i)

let no_fit t k =
  invalid_arg
    (Printf.sprintf "Resource.first_fit: %s cannot be scheduled on %s at any cycle"
       (if k < 0 then "sync op" else Fu.name (Fu.of_index k))
       (Machine.name t.machine))

let first_fit_code t ~from k =
  (* Start past the prefix known to be saturated for this instruction's
     needs (the hints are lower bounds, so this never skips a fit), and
     stop at the tables' horizon: every cycle past it is entirely free,
     so failing on an empty cycle means no cycle ever fits (e.g. a unit
     the machine has zero copies of).  The instruction's unit demand is
     derived once here instead of once per probed cycle. *)
  let issue = t.issue_used in
  let issue_w = t.machine.Machine.issue_width in
  let start0 = Int.max 0 (Int.max from t.issue_full_below) in
  if k < 0 then begin
    (* Only the issue width constrains the placement. *)
    let horizon = Int.max start0 issue.len in
    let c = ref start0 in
    while !c <= horizon && get_or issue !c >= issue_w do
      incr c
    done;
    tally t (!c - start0 + 1);
    if !c > horizon then no_fit t k;
    !c
  end
  else begin
    let start = Int.max start0 t.fu_full_below.(k) in
    let avail = t.machine.Machine.fu_counts.(k) in
    let d = duration_code t k in
    let tbl = t.fu_used.(k) in
    let horizon = Int.max start (Int.max issue.len tbl.len) in
    let c = ref start in
    let found = ref false in
    while (not !found) && !c <= horizon do
      (if get_or issue !c < issue_w then begin
         let ok = ref true in
         for x = !c to !c + d - 1 do
           if get_or tbl x >= avail then ok := false
         done;
         if !ok then found := true
       end);
      if not !found then incr c
    done;
    tally t (!c - start + 1);
    if not !found then no_fit t k;
    !c
  end

let first_fit t ~from i = first_fit_code t ~from (fu_code i)
