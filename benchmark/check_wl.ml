(* Workload [check]: the corpus check of [ischedc check --corpus].  Every
   corpus loop is scheduled by the list, marker-guided and new schedulers
   on 4-issue #FU=1 and each schedule goes through the static checker and
   the value oracle; the modulo schedule is validated; the injection
   campaign runs on a seeded sample of loops.  Verdicts have known
   answers both ways: every corpus schedule is valid and every injected
   fault must be detected.  Most of the time sits in the oracle
   (sim.value + exec), the schedulers take about 1%. *)

module Pipeline = Isched_harness.Pipeline
module Suite = Isched_perfect.Suite
module Prng = Isched_util.Prng
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Inject = Isched_check.Inject
module Modulo = Isched_core.Modulo_sched
module T = Tracer

let machine = Machine.make ~issue:4 ~nfu:1 ()

type sched = List | Marker | New

let scheds = [ List; Marker; New ]

let sched_name = function List -> "list" | Marker -> "marker" | New -> "new"

let run_sched w graph =
  match w with
  | List -> Isched_core.List_sched.run graph machine
  | Marker -> Isched_core.Marker_sched.run graph machine
  | New -> Isched_core.Sync_sched.run graph machine

(* Loops in the injection sample, drawn from the seed. *)
let sample_size = 15

type corpus = { loops : Isched_frontend.Ast.loop array; sampled : bool array }

let load ~seed ~tiny =
  let loops = Array.of_list (Suite.all_loops ()) in
  let loops = if tiny then Array.sub loops 0 12 else loops in
  let n = Array.length loops in
  let idx = Array.init n Fun.id in
  Prng.shuffle (Prng.create seed) idx;
  let sampled = Array.make n false in
  Array.iteri (fun k i -> if k < min sample_size (n / 5 + 1) then sampled.(i) <- true) idx;
  { loops; sampled }

(* [corrupt] flips the expected verdict of the first schedule checked,
   for the benchmark's self-test. *)
let expect_valid ~corrupt out =
  let first = ref corrupt in
  fun ok what ->
    let expected = not !first in
    first := false;
    Outcome.check out (ok = expected) what

let inject_outcomes out ~name ~w ~graph s =
  let injected = ref 0 and detected = ref 0 in
  List.iter
    (fun (o : Inject.outcome) ->
      if o.Inject.injected then begin
        incr injected;
        if o.Inject.detected then incr detected;
        Outcome.check out o.Inject.detected (fun () ->
            Printf.sprintf "check: injected %s under %s on %s was not detected"
              (Inject.name o.Inject.fault) (sched_name w) name)
      end)
    (Inject.campaign ~graph s);
  (!injected, !detected)

(* One loop's verdicts, as [ischedc check --corpus] gives them: the
   three schedules through the oracle and the modulo schedule through
   [validate].  Returns the graph and the schedules, [None] for a DOALL
   loop. *)
let verdicts verdict (l : Isched_frontend.Ast.loop) =
  let name = l.Isched_frontend.Ast.name in
  match Pipeline.prepare_uncached Pipeline.default_options l with
  | Pipeline.Doall _ -> None
  | Pipeline.Doacross { graph; _ } ->
    let schedules = List.map (fun w -> (w, run_sched w graph)) scheds in
    List.iter
      (fun (w, s) ->
        verdict
          (Isched_check.Oracle.check_schedule ~graph s = Ok ())
          (fun () -> Printf.sprintf "check: %s schedule of %s has a wrong verdict" (sched_name w) name))
      schedules;
    let t = Modulo.run graph machine in
    verdict
      (Modulo.validate t graph = Ok ())
      (fun () -> Printf.sprintf "check: modulo schedule of %s has a wrong verdict" name);
    Some (graph, schedules)

(* The injection campaign of [ischedc check --corpus --inject] on one
   loop's schedules. *)
let inject_loop out (l : Isched_frontend.Ast.loop) (graph, schedules) =
  List.iter
    (fun (w, s) -> ignore (inject_outcomes out ~name:l.Isched_frontend.Ast.name ~w ~graph s))
    schedules

(* Emitted-code quality over the check corpus: the new scheduler's
   simulated time and the Send/Wait count. *)
let code_quality c =
  Array.fold_left
    (fun (t, ops) l ->
      match Pipeline.prepare_uncached Pipeline.default_options l with
      | Pipeline.Doall _ -> (t, ops)
      | Pipeline.Doacross { graph; prog; _ } ->
        let s = run_sched New graph in
        (t + (Isched_sim.Timing.run s).Isched_sim.Timing.finish, ops + Tables_wl.sync_ops_of prog))
    (0, 0) c.loops

let run ~seed ~seconds ~tiny ~corrupt =
  let out = Outcome.create () in
  (* A load takes a few ms, short enough for a passing slow phase of the
     machine to move it: loads are timed between the rounds too, so the
     median spans the whole run, like the rounds'. *)
  let setups = ref [] in
  let load_timed () =
    let c, dt = Bstats.time (fun () -> load ~seed ~tiny) in
    setups := dt :: !setups;
    c
  in
  let c = load_timed () in
  let n = Array.length c.loops in
  Printf.printf "check: seed %d, %d corpus loops, %d sampled for injection, 4-issue #FU=1\n" seed n
    (Array.fold_left (fun k b -> if b then k + 1 else k) 0 c.sampled);
  let lat = ref [] and rounds = ref [] in
  Bstats.repeat_for ~seconds (fun r ->
      let verdict = expect_valid ~corrupt:(corrupt && r = 0) out in
      let t0 = Bstats.now_ns () in
      (* A loop's latency sample is its verdicts; the injection campaign
         counts in the round, not in the sample, so which loops the seed
         samples does not move the latency quantiles. *)
      let round_lat =
        Array.mapi
          (fun i l ->
            let r, dt = Bstats.time (fun () -> verdicts verdict l) in
            if c.sampled.(i) then Option.iter (inject_loop out l) r;
            dt)
          c.loops
      in
      rounds := Bstats.secs_since t0 :: !rounds;
      lat := round_lat :: !lat;
      for _ = 1 to 5 do
        ignore (load_timed ())
      done);
  let rounds = Array.of_list !rounds in
  (* One round holds too few samples for a p99 of its own. *)
  let all_lat = Array.concat !lat in
  Printf.printf "  %d rounds of %d loop checks, %d latency samples\n" (Array.length rounds) n
    (Array.length all_lat);
  let t_new, ops = code_quality c in
  Outcome.finish out
    [
      Outcome.m "setup_s" "s" (Bstats.median (Array.of_list !setups));
      Outcome.m "loops_per_s" "loops/s"
        (Bstats.median (Array.map (fun w -> float_of_int n /. w) rounds));
      Outcome.m "t_new_cycles" "cycles" (float_of_int t_new);
      Outcome.m "sync_ops" "instrs" (float_of_int ops);
      Outcome.m "mem_peak_mb" "MiB" (Bstats.top_heap_mb ());
      Outcome.m "p50_us" "us" (Bstats.quantile all_lat 0.5 *. 1e6);
      Outcome.m "p99_us" "us" (Bstats.quantile all_lat 0.99 *. 1e6);
    ]

(* --- traced run --- *)

type counts = {
  mutable injected : int;
  mutable detected : int;
  mutable loops : int;
  mutable doacross : int;
  mutable instrs : int;
  mutable arcs : int;
  mutable timing : int;
  mutable extrapolated : int;
}

(* The same work as [verdicts] and [inject_loop], one library entry
   point per span; the oracle ([Isched_check.Oracle.check_schedule]) is
   taken apart into its static check and the four steps of its
   differential run. *)
let replica_loop out k ~inject (l : Isched_frontend.Ast.loop) =
  let name = l.Isched_frontend.Ast.name in
  k.loops <- k.loops + 1;
  let r = T.span "transform.restructure" (fun () -> Isched_transform.Restructure.run l) in
  let l' = r.Isched_transform.Restructure.loop in
  let carried = T.span "deps.carried_deps" (fun () -> Isched_deps.Dep.carried_deps l') in
  if carried <> [] then begin
    k.doacross <- k.doacross + 1;
    let p = T.span "codegen.compile" (fun () -> Isched_codegen.Codegen.compile ~carried l') in
    let graph = T.span "dfg.build" (fun () -> Isched_dfg.Dfg.build p) in
    k.instrs <- k.instrs + Array.length p.Program.body;
    k.arcs <- k.arcs + graph.Isched_dfg.Dfg.n_arcs;
    let schedules =
      List.map (fun w -> (w, T.span ("core." ^ sched_name w) (fun () -> run_sched w graph))) scheds
    in
    List.iter
      (fun (w, s) ->
        let static_ok =
          T.span "check.static" (fun () -> Isched_check.Static.check ~graph s) = Ok ()
        in
        let v = T.span "sim.value" (fun () -> Isched_sim.Value.run s) in
        let log = Isched_exec.Readlog.create () in
        let mem = T.span "exec.prog_interp" (fun () -> Isched_exec.Prog_interp.run ~log p) in
        let mem_ok =
          T.span "exec.memory_equal" (fun () -> Isched_exec.Memory.equal mem v.Isched_sim.Value.memory)
        in
        let stale =
          T.span "exec.readlog_compare" (fun () ->
              Isched_exec.Readlog.compare_logs ~reference:log ~actual:v.Isched_sim.Value.log)
        in
        let tm = T.span "sim.timing" (fun () -> Isched_sim.Timing.run s) in
        k.timing <- k.timing + 1;
        if tm.Isched_sim.Timing.extrapolated_from <> None then k.extrapolated <- k.extrapolated + 1;
        Outcome.check out
          (static_ok && mem_ok && stale = [] && v.Isched_sim.Value.races = []
          && tm.Isched_sim.Timing.finish = v.Isched_sim.Value.finish)
          (fun () -> Printf.sprintf "check: traced %s schedule of %s fails" (sched_name w) name))
      schedules;
    let ok =
      T.span "core.modulo" (fun () ->
          let t = Modulo.run graph machine in
          Modulo.validate t graph = Ok ())
    in
    Outcome.check out ok (fun () -> Printf.sprintf "check: traced modulo schedule of %s fails" name);
    if inject then
      List.iter
        (fun (w, s) ->
          let i, d = T.span "check.inject" (fun () -> inject_outcomes out ~name ~w ~graph s) in
          k.injected <- k.injected + i;
          k.detected <- k.detected + d)
        schedules
  end

let run_traced ~seed ~seconds ~tiny ~corrupt =
  let out = Outcome.create () in
  let c = load ~seed ~tiny in
  Printf.printf "check (traced): seed %d, %d corpus loops\n" seed (Array.length c.loops);
  let verdict = expect_valid ~corrupt out in
  Array.iteri
    (fun i l ->
      let r = verdicts verdict l in
      if c.sampled.(i) then Option.iter (inject_loop out l) r)
    c.loops;
  let fresh () =
    {
      injected = 0;
      detected = 0;
      loops = 0;
      doacross = 0;
      instrs = 0;
      arcs = 0;
      timing = 0;
      extrapolated = 0;
    }
  in
  let k = ref (fresh ()) in
  let runs =
    Trace_out.compare_runs ~seconds ~max_traced:max_int (fun traced ->
        let kr = fresh () in
        Array.iteri
          (fun i l -> T.root "check.loop" ~req:i (fun () -> replica_loop out kr ~inject:c.sampled.(i) l))
          c.loops;
        if traced then k := kr)
  in
  let k = !k in
  let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  Trace_out.finish out ~workload:"check" ~seed ~spans:runs.Trace_out.spans
    ~per:(float_of_int runs.Trace_out.rounds) ~overhead:runs.Trace_out.overhead
    [
      ("deps.doacross_ratio", ratio k.doacross k.loops);
      ("codegen.instrs", float_of_int k.instrs);
      ("dfg.arcs", float_of_int k.arcs);
      ("sim.timing.extrapolated_ratio", ratio k.extrapolated k.timing);
      ("check.inject.detected_ratio", ratio k.detected k.injected);
    ]
