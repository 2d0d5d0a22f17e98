module Program = Isched_ir.Program

type pair_report = {
  wait_id : int;
  signal : int;
  distance : int;
  wait_pos : int;
  send_pos : int;
  is_lbd : bool;
  paper_time : int;
  exact_time : int;
}

let pairs (s : Schedule.t) =
  let p = s.Schedule.prog in
  let n = p.Program.n_iters in
  let l = s.Schedule.length in
  Array.to_list p.Program.waits
  |> List.map (fun (w : Program.wait_info) ->
         let send = p.Program.signals.(w.signal).send_instr in
         let i = Schedule.position s send and j = Schedule.position s w.wait_instr in
         let d = Int.max 1 w.distance in
         let links = (n - 1) / d in
         {
           wait_id = w.wait;
           signal = w.signal;
           distance = d;
           wait_pos = j;
           send_pos = i;
           is_lbd = i >= j;
           paper_time = Int.max l ((n / d * (i - j)) + l);
           exact_time = (links * Int.max 0 (i - j + 1)) + l;
         })

let n_lbd s = List.length (List.filter (fun r -> r.is_lbd) (pairs s))

let observe_sync_spans d s =
  if Isched_obs.Counters.enabled () then begin
    let p = s.Schedule.prog in
    Array.iter
      (fun (w : Program.wait_info) ->
        let send = p.Program.signals.(w.signal).send_instr in
        Isched_obs.Counters.observe d
          (Schedule.position s send - Schedule.position s w.wait_instr))
      p.Program.waits
  end

let fold_time f s =
  List.fold_left (fun acc r -> Int.max acc (f r)) s.Schedule.length (pairs s)

let paper_time s = fold_time (fun r -> r.paper_time) s

(* [exact_time] runs on every new-scheduler invocation (the
   never-degrade comparison), so it folds over the wait table directly
   instead of materializing {!pairs}. *)
let exact_time (s : Schedule.t) =
  let p = s.Schedule.prog in
  let n = p.Program.n_iters in
  let l = s.Schedule.length in
  let acc = ref l in
  Array.iter
    (fun (w : Program.wait_info) ->
      let send = p.Program.signals.(w.signal).send_instr in
      let i = Schedule.position s send and j = Schedule.position s w.wait_instr in
      let d = Int.max 1 w.distance in
      let links = (n - 1) / d in
      let t = (links * Int.max 0 (i - j + 1)) + l in
      if t > !acc then acc := t)
    p.Program.waits;
  !acc

let pp_report ppf r =
  Format.fprintf ppf "wait %d on sig%d d=%d: j=%d i=%d %s paper=%d exact=%d" r.wait_id r.signal
    r.distance r.wait_pos r.send_pos
    (if r.is_lbd then "LBD" else "LFD")
    r.paper_time r.exact_time
