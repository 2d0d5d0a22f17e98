module Ast = Isched_frontend.Ast
module Program = Isched_ir.Program
module Machine = Isched_ir.Machine
module Schedule = Isched_core.Schedule
module Lbd_model = Isched_core.Lbd_model
module Restructure = Isched_transform.Restructure
module Provenance = Isched_obs.Provenance
module Json = Isched_obs.Json

type pair_trace = {
  report : Lbd_model.pair_report;
  src_label : string;
  snk_label : string;
  array : string;
  send_chain : Provenance.decision list;
  wait_chain : Provenance.decision list;
}

type t = {
  loop_name : string;
  scheduler : string;
  machine : Machine.t;
  schedule : Schedule.t;
  decisions : Provenance.decision list;
  last_decision : Provenance.decision option array;
  pairs : pair_trace list;
  simulated : int;
  analytic : int;
  paper : int;
  fallback : bool;
}

let pair_key p = p.src_label ^ ":" ^ p.snk_label

let matches_pair filter p =
  match filter with None -> true | Some key -> String.equal key (pair_key p)

(* Walk a decision's binding predecessors back to a root: the causal
   chain that fixed its cycle.  Bounded by a seen-set (binding graphs are
   acyclic by construction, but a corrupted trace must not hang us). *)
let chain_of last i =
  let seen = Hashtbl.create 8 in
  let rec go i acc =
    if i < 0 || i >= Array.length last || Hashtbl.mem seen i then List.rev acc
    else begin
      Hashtbl.add seen i ();
      match last.(i) with
      | None -> List.rev acc
      | Some d -> (
        match d.Provenance.binding with
        | Some b when b.Provenance.pred >= 0 -> go b.Provenance.pred (d :: acc)
        | _ -> List.rev (d :: acc))
    end
  in
  go i []

let stmt_labels (l : Ast.loop) = Array.of_list (List.map (fun s -> s.Ast.label) l.Ast.body)

let build ?(options = Pipeline.default_options) ?(which = Pipeline.Sched_new) loop machine =
  match Pipeline.prepare ~options loop with
  | Pipeline.Doall r ->
    Error
      (Printf.sprintf "%s is a DOALL loop: no synchronization to explain"
         r.Restructure.loop.Ast.name)
  | Pipeline.Doacross { restructured; prog; _ } as prepared ->
    let schedule, all = Pipeline.schedule_traced prepared machine which in
    let tag = Pipeline.scheduler_tag which in
    let of_tag t =
      List.filter
        (fun (d : Provenance.decision) ->
          String.equal d.Provenance.scheduler t && String.equal d.Provenance.prog prog.Program.name)
        all
    in
    let final_cycle i = schedule.Schedule.cycle_of.(i) in
    let all_match ds =
      ds <> []
      && List.for_all (fun (d : Provenance.decision) -> final_cycle d.Provenance.instr = d.Provenance.cycle) ds
    in
    (* The new scheduler may discard its own placement for the list
       baseline (its never-degrade guarantee).  When that happened, the
       final cycles are exactly the baseline's, so attribute to the
       baseline's decisions instead of a schedule that was thrown away. *)
    let tagged = of_tag tag in
    let scheduler, decisions, fallback =
      if which = Pipeline.Sched_new && (not (all_match tagged)) && all_match (of_tag "list")
      then ("list (fallback from new)", of_tag "list", true)
      else (tag, tagged, false)
    in
    let n = Array.length prog.Program.body in
    let last_decision = Array.make n None in
    List.iter
      (fun (d : Provenance.decision) ->
        if d.Provenance.instr >= 0 && d.Provenance.instr < n then
          last_decision.(d.Provenance.instr) <- Some d)
      decisions;
    let labels = stmt_labels restructured.Restructure.loop in
    let label_of_stmt s =
      if s >= 0 && s < Array.length labels then labels.(s) else Printf.sprintf "S%d" (s + 1)
    in
    let pairs =
      List.map
        (fun (r : Lbd_model.pair_report) ->
          let w = prog.Program.waits.(r.Lbd_model.wait_id) in
          let s = prog.Program.signals.(r.Lbd_model.signal) in
          {
            report = r;
            src_label = s.Program.label;
            snk_label = label_of_stmt w.Program.snk_stmt;
            array = w.Program.array;
            send_chain = chain_of last_decision s.Program.send_instr;
            wait_chain = chain_of last_decision w.Program.wait_instr;
          })
        (Lbd_model.pairs schedule)
    in
    Ok
      {
        loop_name = prog.Program.name;
        scheduler;
        machine;
        schedule;
        decisions;
        last_decision;
        pairs;
        simulated = (Isched_sim.Timing.run schedule).Isched_sim.Timing.finish;
        analytic = Lbd_model.exact_time schedule;
        paper = Lbd_model.paper_time schedule;
        fallback;
      }

(* --- rendering --- *)

let pp_chain_line buf (sched : Schedule.t) (d : Provenance.decision) =
  Buffer.add_string buf (Format.asprintf "    %a" Provenance.pp_decision d);
  let final = sched.Schedule.cycle_of.(d.Provenance.instr) in
  if final <> d.Provenance.cycle then
    Buffer.add_string buf (Printf.sprintf " [compacted to cycle %d]" (final + 1));
  Buffer.add_char buf '\n'

let render_ascii ?pair t =
  let buf = Buffer.create 2048 in
  let p = t.schedule.Schedule.prog in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "loop %s on %s — %s\n" t.loop_name (Machine.name t.machine) t.scheduler;
  add "schedule length l = %d, n = %d iterations\n" t.schedule.Schedule.length
    p.Program.n_iters;
  add "loop time: simulated = %d, analytic exact = %d, paper (n/d)(i-j)+l = %d\n\n" t.simulated
    t.analytic t.paper;
  Buffer.add_string buf (Schedule.to_string t.schedule);
  Buffer.add_char buf '\n';
  let shown = List.filter (matches_pair pair) t.pairs in
  (match (pair, shown) with
  | Some key, [] -> add "no synchronization pair matches %s\n" key
  | _ -> ());
  List.iter
    (fun pt ->
      let r = pt.report in
      add "pair %s -> %s (array %s, wait %s): i = %d, j = %d, i-j = %d, d = %d — %s\n"
        pt.src_label pt.snk_label pt.array
        (Program.wait_label p r.Lbd_model.wait_id)
        r.Lbd_model.send_pos r.Lbd_model.wait_pos
        (r.Lbd_model.send_pos - r.Lbd_model.wait_pos)
        r.Lbd_model.distance
        (if r.Lbd_model.is_lbd then "LBD" else "LFD");
      add "  contribution: paper (n/d)(i-j)+l = %d, exact = %d\n" r.Lbd_model.paper_time
        r.Lbd_model.exact_time;
      (match pt.send_chain with
      | [] -> add "  send decision chain: (not recorded)\n"
      | ds ->
        add "  send decision chain (i = %d):\n" r.Lbd_model.send_pos;
        List.iter (pp_chain_line buf t.schedule) (List.rev ds));
      (match pt.wait_chain with
      | [] -> add "  wait decision chain: (not recorded)\n"
      | ds ->
        add "  wait decision chain (j = %d):\n" r.Lbd_model.wait_pos;
        List.iter (pp_chain_line buf t.schedule) (List.rev ds));
      Buffer.add_char buf '\n')
    shown;
  Buffer.contents buf

let pair_json pt =
  let r = pt.report in
  let chain ds = "[" ^ String.concat ", " (List.map Provenance.decision_json ds) ^ "]" in
  Printf.sprintf
    "{ \"src\": %s, \"snk\": %s, \"array\": %s, \"wait_id\": %d, \"signal\": %d, \"i\": %d, \
     \"j\": %d, \"span\": %d, \"distance\": %d, \"is_lbd\": %b, \"paper_time\": %d, \
     \"exact_time\": %d, \"send_chain\": %s, \"wait_chain\": %s }"
    (Json.quote pt.src_label) (Json.quote pt.snk_label) (Json.quote pt.array) r.Lbd_model.wait_id
    r.Lbd_model.signal r.Lbd_model.send_pos r.Lbd_model.wait_pos
    (r.Lbd_model.send_pos - r.Lbd_model.wait_pos)
    r.Lbd_model.distance r.Lbd_model.is_lbd r.Lbd_model.paper_time r.Lbd_model.exact_time
    (chain pt.send_chain) (chain pt.wait_chain)

let render_json ?pair t =
  let shown = List.filter (matches_pair pair) t.pairs in
  Printf.sprintf
    "{\n  \"loop\": %s,\n  \"machine\": %s,\n  \"scheduler\": %s,\n  \"fallback\": %b,\n  \
     \"length\": %d,\n  \"n_iters\": %d,\n  \"simulated\": %d,\n  \"analytic\": %d,\n  \
     \"paper\": %d,\n  \"pairs\": [\n    %s\n  ],\n  \"decisions\": [\n    %s\n  ]\n}\n"
    (Json.quote t.loop_name)
    (Json.quote (Machine.name t.machine))
    (Json.quote t.scheduler) t.fallback t.schedule.Schedule.length
    t.schedule.Schedule.prog.Program.n_iters t.simulated t.analytic t.paper
    (String.concat ",\n    " (List.map pair_json shown))
    (String.concat ",\n    " (List.map Provenance.decision_json t.decisions))
