module Ast = Isched_frontend.Ast
module Program = Isched_ir.Program
module Machine = Isched_ir.Machine
module Restructure = Isched_transform.Restructure
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters

type options = {
  migrate : bool;
  sync_elim : bool;
  order_paths : bool;
  n_iters : int option;
}

let default_options = { migrate = false; sync_elim = false; order_paths = true; n_iters = None }

type prepared =
  | Doall of Restructure.result
  | Doacross of {
      restructured : Restructure.result;
      carried : Isched_deps.Dep.t list;  (* of the restructured loop *)
      prog : Program.t;
      graph : Isched_dfg.Dfg.t;
    }

type scheduler = List_scheduling | Marker_scheduling | New_scheduling

let all_schedulers = [ List_scheduling; Marker_scheduling; New_scheduling ]

let scheduler_name = function
  | List_scheduling -> "list scheduling"
  | Marker_scheduling -> "marker-guided scheduling"
  | New_scheduling -> "new instruction scheduling"

(* The front half of the pipeline is pure: the same (loop, options) pair
   always restructures, compiles and builds the same graph, and none of
   the produced structures is mutated downstream (schedulers allocate
   their own working state).  The tables and ablations re-prepare the
   same corpus loops dozens of times, so [prepare] memoizes on the
   structural key below: the loop plus the whole options record, with
   the scheduler-only [order_paths] reset to its default.  Every other
   field is keyed without being named here, so a new front-half option
   cannot be left out of the key. *)
type prep_key = { key_loop : Ast.loop; key_options : options }

let prep_key options l =
  { key_loop = l; key_options = { options with order_paths = default_options.order_paths } }

(* Key hashing rides on the digest the frontend computed once at loop
   construction (the polymorphic hash samples only the first few AST
   nodes, so generated corpus loops collided); the digest also
   pre-filters the full structural equality. *)
module Key = struct
  let equal a b =
    a.key_options = b.key_options
    && (a.key_loop == b.key_loop
       || (a.key_loop.Ast.digest = b.key_loop.Ast.digest && a.key_loop = b.key_loop))

  let hash k = k.key_loop.Ast.digest lxor Hashtbl.hash k.key_options
end

(* Racing workers that miss on one key compute it once; the bound keeps
   a long-lived daemon, whose explain requests reach [prepare], from
   retaining every loop it saw.  The largest bench run has 231 keys. *)
let memo =
  Isched_util.Cache.create ~name:"pipeline.memo" ~capacity:1024 ~hash:Key.hash ~equal:Key.equal ()

let memo_counter suffix = Counters.counter ("pipeline.memo." ^ suffix)

let memo_stats () = (Counters.value (memo_counter "hit"), Counters.value (memo_counter "miss"))

let memo_clear () =
  Isched_util.Cache.clear memo;
  List.iter
    (fun s -> Counters.reset_counter (memo_counter s))
    [ "hit"; "miss"; "evict"; "coalesced" ]

let prepare_uncached (options : options) (l : Ast.loop) =
  Span.with_ ~name:"pipeline.prepare" ~args:[ ("loop", l.Ast.name) ] (fun () ->
      let restructured = Restructure.run l in
      let l' = restructured.Restructure.loop in
      (* One dependence analysis decides DOALL and feeds the sync plan:
         [carried_deps] is the expensive half of [prepare], and
         [is_doall] + [Plan.build] used to each run it. *)
      let carried = Isched_deps.Dep.carried_deps l' in
      if carried = [] then Doall restructured
      else begin
        let prog =
          Isched_codegen.Codegen.compile ~migrate:options.migrate ~carried
            ?n_iters:options.n_iters l'
        in
        let graph = Isched_dfg.Dfg.build prog in
        let prog, graph =
          if options.sync_elim then begin
            let r = Isched_sync.Elim.run prog graph in
            (r.Isched_sync.Elim.prog, r.Isched_sync.Elim.graph)
          end
          else (prog, graph)
        in
        Doacross { restructured; carried; prog; graph }
      end)

let prepare ?(options = default_options) (l : Ast.loop) =
  fst
    (Isched_util.Cache.find_or_compute memo (prep_key options l) (fun () ->
         prepare_uncached options l))

let schedule_inner ~options prepared machine which =
  match prepared with
  | Doall r ->
    invalid_arg
      (Printf.sprintf "Pipeline.schedule: %s is a DOALL loop" r.Restructure.loop.Ast.name)
  | Doacross { graph; _ } -> (
    match which with
    | List_scheduling -> Isched_core.List_sched.run graph machine
    | Marker_scheduling -> Isched_core.Marker_sched.run graph machine
    | New_scheduling ->
      let opts =
        { Isched_core.Sync_sched.default_options with order_paths = options.order_paths }
      in
      Isched_core.Sync_sched.run ~options:opts graph machine)

exception Invalid_schedule_produced of { scheduler : string; diagnostics : string }

let () =
  Printexc.register_printer (function
    | Invalid_schedule_produced { scheduler; diagnostics } ->
      Some (Printf.sprintf "Pipeline: %s produced an invalid schedule:\n%s" scheduler diagnostics)
    | _ -> None)

(* [validate] reruns the independent checker on every schedule handed
   out: the static analyzer against the same graph the scheduler used
   plus the trusted rebuild (both, so a dropped-arc discrepancy between
   them is caught from either side). *)
let validate_schedule which (s : Isched_core.Schedule.t) graph =
  let fail vs =
    raise
      (Invalid_schedule_produced
         {
           scheduler = scheduler_name which;
           diagnostics =
             Isched_check.Static.errors_to_string s.Isched_core.Schedule.prog.Program.name vs;
         })
  in
  (match Isched_check.Static.check ~graph s with Ok () -> () | Error vs -> fail vs);
  match Isched_check.Static.check s with Ok () -> () | Error vs -> fail vs

let schedule ?(options = default_options) ?(validate = false) prepared machine which =
  let s =
    if Span.enabled () then
      Span.with_ ~name:"pipeline.schedule" ~args:[ ("scheduler", scheduler_name which) ] (fun () ->
          schedule_inner ~options prepared machine which)
    else schedule_inner ~options prepared machine which
  in
  (if validate then
     match prepared with
     | Doall _ -> ()
     | Doacross { graph; _ } -> validate_schedule which s graph);
  s

let scheduler_tag = function
  | List_scheduling -> "list"
  | Marker_scheduling -> "marker"
  | New_scheduling -> "new"

let schedule_traced ?(options = default_options) ?validate prepared machine which =
  let module Provenance = Isched_obs.Provenance in
  let was = Provenance.enabled () in
  Provenance.reset ();
  Provenance.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Provenance.set_enabled was)
    (fun () ->
      let s = schedule ~options ?validate prepared machine which in
      (s, Provenance.decisions ()))

let loop_time ?(options = default_options) ?validate prepared machine which =
  let s = schedule ~options ?validate prepared machine which in
  (Isched_sim.Timing.run s).Isched_sim.Timing.finish

let list_and_new_times ?(options = default_options) prepared machine =
  match prepared with
  | Doall r ->
    invalid_arg
      (Printf.sprintf "Pipeline.list_and_new_times: %s is a DOALL loop"
         r.Restructure.loop.Ast.name)
  | Doacross { graph; _ } ->
    let s_list = Isched_core.List_sched.run graph machine in
    let opts =
      { Isched_core.Sync_sched.default_options with order_paths = options.order_paths }
    in
    (* The list schedule doubles as the new scheduler's never-degrade
       baseline: both measurements cost one list run instead of two.
       When the comparison falls back it returns the baseline itself, so
       physical equality marks the second simulation as redundant. *)
    let s_new = Isched_core.Sync_sched.run ~options:opts ~baseline:s_list graph machine in
    let t_list = (Isched_sim.Timing.run s_list).Isched_sim.Timing.finish in
    let t_new =
      if s_new == s_list then t_list
      else (Isched_sim.Timing.run s_new).Isched_sim.Timing.finish
    in
    (t_list, t_new)
