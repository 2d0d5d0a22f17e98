(* Workload [tables]: the paper's Table 2/3 experiment over the streamed,
   scaled generated corpus ({!Isched_harness.Report.scaled_tables}) on the
   four paper machine configurations, once with sync elimination off and
   once with it on, over a domain pool of [jobs] participants.  It is the
   only workload where sync.elim and util.pool do real work; it bypasses
   sim.value, exec, check, frontend and serve. *)

module Report = Isched_harness.Report
module Pipeline = Isched_harness.Pipeline
module Suite = Isched_perfect.Suite
module Profile = Isched_perfect.Profile
module Pool = Isched_util.Pool
module Prng = Isched_util.Prng
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module T = Tracer

let configs = Machine.paper_configs
let config_names = List.map fst configs

(* The box the benchmark was defined on has 2 cores; never more
   participants than the machine has. *)
let jobs = min 2 (Domain.recommended_domain_count ())

(* T_a (list scheduling) totals per configuration, in [configs] order,
   pinned from the commit that defined the benchmark: (scale, sync_elim)
   -> totals.  A scheduler-independent known answer: only the baseline
   pipeline decides these. *)
let pinned_t_list = function
  | 20, false -> [ 2160251; 2345394; 2214720; 1314648 ]
  | 20, true -> [ 2152192; 2339484; 2214812; 1311069 ]
  | 1, false -> [ 114234; 119825; 114153; 69890 ]
  | 1, true -> [ 114234; 119825; 114153; 69890 ]
  | scale, _ -> invalid_arg (Printf.sprintf "no pinned totals at scale %d" scale)

type setting = {
  rows : Report.measurement list;
  sync_ops : int;
}

let options sync_elim = { Pipeline.default_options with sync_elim }

(* Send/Wait instructions of a program (the [sync_ops] metric). *)
let sync_ops_of (p : Program.t) =
  Array.fold_left (fun n i -> if Isched_ir.Instr.is_sync i then n + 1 else n) 0 p.Program.body

let run_setting ~scale profiles sync_elim =
  let _, rows, _, sync_ops =
    Report.scaled_tables ~options:(options sync_elim) ~jobs ~scale profiles configs
  in
  { rows; sync_ops }

let totals_by_config rows f =
  List.map
    (fun c ->
      List.fold_left
        (fun acc (m : Report.measurement) -> if m.Report.config = c then acc + f m else acc)
        0 rows)
    config_names

let t_new_sum s = List.fold_left (fun acc (m : Report.measurement) -> acc + m.Report.t_new) 0 s.rows

let n_loops ~scale profiles =
  List.fold_left
    (fun acc p ->
      let sig_n = List.length (Suite.signature_loops p) in
      List.fold_left
        (fun acc (c : Suite.chunk) ->
          acc + c.Suite.hi - c.Suite.lo + if c.Suite.with_signature then sig_n else 0)
        acc (Suite.chunks ~scale p))
    0 profiles

(* Known answers of one round: never-degrade on every row, the pinned
   T_a totals, and the same output as the first round. *)
let check_round out ~scale ~corrupt ~first (off, on_) =
  List.iter
    (fun (sync_elim, s) ->
      List.iter
        (fun (m : Report.measurement) ->
          Outcome.check out (m.Report.t_new <= m.Report.t_list) (fun () ->
              Printf.sprintf "tables: %s on %s (sync_elim=%b): t_new %d > t_list %d"
                m.Report.benchmark m.Report.config sync_elim m.Report.t_new m.Report.t_list))
        s.rows;
      let pins = pinned_t_list (scale, sync_elim) in
      let pins = if corrupt then List.mapi (fun i v -> if i = 0 then v + 1 else v) pins else pins in
      let got = totals_by_config s.rows (fun m -> m.Report.t_list) in
      List.iter2
        (fun c (g, p) ->
          Outcome.check out (g = p) (fun () ->
              Printf.sprintf "tables: T_a total on %s (sync_elim=%b) is %d, pinned %d" c sync_elim g
                p))
        config_names (List.combine got pins))
    [ (false, off); (true, on_) ];
  match first with
  | None -> ()
  | Some (off0, on0) ->
    Outcome.check out
      (off.rows = off0.rows && on_.rows = on0.rows && off.sync_ops = off0.sync_ops
     && on_.sync_ops = on0.sync_ops)
      (fun () -> "tables: a later round's tables differ from the first round's")

(* The seed permutes the corpus order handed to the experiment (and so
   the order of pool tasks); the tables themselves do not depend on it,
   which is what lets their totals be pinned. *)
let profiles_of_seed seed =
  let a = Array.of_list Profile.all in
  Prng.shuffle (Prng.create seed) a;
  Array.to_list a

let setup ~profiles =
  Pool.shutdown ();
  let t0 = Bstats.now_ns () in
  let chunks = List.concat_map (fun p -> Suite.chunks ~scale:1 p) profiles in
  ignore (Pool.map ~jobs (fun (c : Suite.chunk) -> c.Suite.hi) chunks);
  ignore (run_setting ~scale:1 profiles false);
  ignore (run_setting ~scale:1 profiles true);
  Bstats.secs_since t0

let round ~scale profiles =
  Bstats.time (fun () ->
      let off = run_setting ~scale profiles false in
      let on_ = run_setting ~scale profiles true in
      (off, on_))

(* Per-loop latency: one loop's cell work in the experiment — prepare,
   then the list and new schedules and their simulation on the four
   machines — timed on its own, for both settings.  Adds the loop's T_a
   and T_b into [tl] and [tn] (setting x config). *)
let latency_pass ~scale profiles ~tl ~tn =
  let samples = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun c ->
          List.iter
            (fun l ->
              List.iteri
                (fun si sync_elim ->
                  let options = options sync_elim in
                  let (), dt =
                    Bstats.time (fun () ->
                        match Pipeline.prepare_uncached options l with
                        | Pipeline.Doall _ -> ()
                        | Pipeline.Doacross _ as prepared ->
                          List.iteri
                            (fun ci (_, m) ->
                              let a, b = Pipeline.list_and_new_times ~options prepared m in
                              tl.(si).(ci) <- tl.(si).(ci) + a;
                              tn.(si).(ci) <- tn.(si).(ci) + b)
                            configs)
                  in
                  samples := dt :: !samples)
                [ false; true ])
            (Suite.chunk_loops c))
        (Suite.chunks ~scale p))
    profiles;
  !samples

(* Each iteration runs one round of the experiment (throughput) and one
   per-loop latency pass; interleaving them spreads both over the whole
   run, so a slow phase of the machine moves a minority of the windows
   either median is taken over. *)
let run ~seed ~seconds ~tiny ~corrupt =
  let scale = if tiny then 1 else 20 in
  let profiles = profiles_of_seed seed in
  let out = Outcome.create () in
  (* Five set-ups before the rounds and five after them: a set-up takes
     tens of ms, so a slow phase of the machine could hold all of one
     batch. *)
  let setups = Array.init 5 (fun _ -> setup ~profiles) in
  let loops = n_loops ~scale profiles in
  Printf.printf "tables: seed %d, scale %d (%d loops), %d configs, jobs %d, sync_elim off+on\n"
    seed scale loops (List.length configs) jobs;
  let walls = ref [] and passes = ref [] and first = ref None in
  Bstats.repeat_for ~seconds (fun _ ->
      (* each half starts from a collected heap, not from the other's
         garbage *)
      Gc.full_major ();
      let res, wall = round ~scale profiles in
      walls := wall :: !walls;
      check_round out ~scale ~corrupt ~first:!first res;
      if !first = None then first := Some res;
      (* the per-loop sums must add up to the experiment's totals *)
      let tl = Array.make_matrix 2 (List.length configs) 0 in
      let tn = Array.make_matrix 2 (List.length configs) 0 in
      Gc.full_major ();
      passes := Array.of_list (latency_pass ~scale profiles ~tl ~tn) :: !passes;
      List.iteri
        (fun si s ->
          Outcome.check out
            (Array.to_list tl.(si) = totals_by_config s.rows (fun m -> m.Report.t_list)
            && Array.to_list tn.(si) = totals_by_config s.rows (fun m -> m.Report.t_new))
            (fun () -> "tables: per-loop latency pass totals differ from the tables'"))
        [ fst res; snd res ]);
  let setups = Array.append setups (Array.init 5 (fun _ -> setup ~profiles)) in
  let walls = Array.of_list !walls in
  let off, on_ = Option.get !first in
  Printf.printf "  %d rounds (round wall p50 %.4f s), each followed by a latency pass of %d loops\n"
    (Array.length walls) (Bstats.median walls) (Array.length (List.hd !passes));
  let per_s = Array.map (fun w -> float_of_int (2 * loops) /. w) walls in
  Outcome.finish out
    [
      Outcome.m "setup_s" "s" (Bstats.median setups);
      Outcome.m "loops_per_s" "loops/s" (Bstats.median per_s);
      Outcome.m "t_new_cycles" "cycles" (float_of_int (t_new_sum off + t_new_sum on_));
      Outcome.m "sync_ops" "instrs" (float_of_int on_.sync_ops);
      Outcome.m "mem_peak_mb" "MiB" (Bstats.top_heap_mb ());
      Outcome.m "p50_us" "us" (Bstats.quantile_of_item_medians !passes 0.5 *. 1e6);
      Outcome.m "p99_us" "us" (Bstats.quantile_of_item_medians !passes 0.99 *. 1e6);
    ]

(* --- traced run --- *)

type acc = {
  mutable a_loops : int;
  mutable a_doacross : int;
  mutable a_instrs : int;
  mutable a_arcs : int;
  mutable a_waits : int;
  mutable a_waits_removed : int;
  mutable a_timing : int;
  mutable a_extrapolated : int;
  mutable a_sync_ops : int;
  a_t_list : int array;
  a_t_new : int array;
}

let new_acc () =
  {
    a_loops = 0;
    a_doacross = 0;
    a_instrs = 0;
    a_arcs = 0;
    a_waits = 0;
    a_waits_removed = 0;
    a_timing = 0;
    a_extrapolated = 0;
    a_sync_ops = 0;
    a_t_list = Array.make (List.length configs) 0;
    a_t_new = Array.make (List.length configs) 0;
  }

let merge a b =
  a.a_loops <- a.a_loops + b.a_loops;
  a.a_doacross <- a.a_doacross + b.a_doacross;
  a.a_instrs <- a.a_instrs + b.a_instrs;
  a.a_arcs <- a.a_arcs + b.a_arcs;
  a.a_waits <- a.a_waits + b.a_waits;
  a.a_waits_removed <- a.a_waits_removed + b.a_waits_removed;
  a.a_timing <- a.a_timing + b.a_timing;
  a.a_extrapolated <- a.a_extrapolated + b.a_extrapolated;
  a.a_sync_ops <- a.a_sync_ops + b.a_sync_ops;
  Array.iteri (fun i v -> a.a_t_list.(i) <- a.a_t_list.(i) + v) b.a_t_list;
  Array.iteri (fun i v -> a.a_t_new.(i) <- a.a_t_new.(i) + v) b.a_t_new

let timing a s =
  let r = T.span "sim.timing" (fun () -> Isched_sim.Timing.run s) in
  a.a_timing <- a.a_timing + 1;
  if r.Isched_sim.Timing.extrapolated_from <> None then a.a_extrapolated <- a.a_extrapolated + 1;
  r.Isched_sim.Timing.finish

(* The per-chunk work of [Report.scaled_tables]' Table 2 half, one
   library entry point per span — the same calls
   [Pipeline.prepare_uncached] and [Pipeline.list_and_new_times] make. *)
let replica_chunk ~sync_elim (c : Suite.chunk) =
  let a = new_acc () in
  let loops = T.span "perfect.chunk_loops" (fun () -> Suite.chunk_loops c) in
  List.iter
    (fun l ->
      a.a_loops <- a.a_loops + 1;
      let r = T.span "transform.restructure" (fun () -> Isched_transform.Restructure.run l) in
      let l' = r.Isched_transform.Restructure.loop in
      let carried = T.span "deps.carried_deps" (fun () -> Isched_deps.Dep.carried_deps l') in
      if carried <> [] then begin
        a.a_doacross <- a.a_doacross + 1;
        let prog =
          T.span "codegen.compile" (fun () -> Isched_codegen.Codegen.compile ~carried l')
        in
        let graph = T.span "dfg.build" (fun () -> Isched_dfg.Dfg.build prog) in
        a.a_instrs <- a.a_instrs + Array.length prog.Program.body;
        a.a_arcs <- a.a_arcs + graph.Isched_dfg.Dfg.n_arcs;
        let prog, graph =
          if sync_elim then begin
            let r = T.span "sync.elim" (fun () -> Isched_sync.Elim.run prog graph) in
            a.a_waits <- a.a_waits + Array.length prog.Program.waits;
            a.a_waits_removed <- a.a_waits_removed + List.length r.Isched_sync.Elim.eliminated;
            (r.Isched_sync.Elim.prog, r.Isched_sync.Elim.graph)
          end
          else (prog, graph)
        in
        a.a_sync_ops <- a.a_sync_ops + sync_ops_of prog;
        List.iteri
          (fun i (_, m) ->
            let s_list = T.span "core.list" (fun () -> Isched_core.List_sched.run graph m) in
            let s_new =
              T.span "core.new" (fun () -> Isched_core.Sync_sched.run ~baseline:s_list graph m)
            in
            let tl = timing a s_list in
            let tn = if s_new == s_list then tl else timing a s_new in
            a.a_t_list.(i) <- a.a_t_list.(i) + tl;
            a.a_t_new.(i) <- a.a_t_new.(i) + tn)
          configs
      end)
    loops;
  a

let replica_round ~scale profiles =
  let chunks = List.concat_map (fun p -> Suite.chunks ~scale p) profiles in
  List.map
    (fun sync_elim ->
      let parts =
        Pool.mapi ~jobs
          (fun i c -> T.root "tables.task" ~req:i (fun () -> replica_chunk ~sync_elim c))
          chunks
      in
      let a = new_acc () in
      List.iter (merge a) parts;
      (sync_elim, a))
    [ false; true ]

let run_traced ~seed ~seconds ~tiny ~corrupt =
  let scale = if tiny then 1 else 20 in
  let profiles = profiles_of_seed seed in
  let out = Outcome.create () in
  ignore (setup ~profiles);
  Printf.printf "tables (traced): seed %d, scale %d, jobs %d\n" seed scale jobs;
  let ((off, on_) as reference), _ = round ~scale profiles in
  check_round out ~scale ~corrupt ~first:None reference;
  let last = ref [] in
  let runs =
    Trace_out.compare_runs ~seconds ~max_traced:3 (fun _ -> last := replica_round ~scale profiles)
  in
  (* The replica must reproduce the experiment's own totals. *)
  List.iter
    (fun (sync_elim, a) ->
      let s = if sync_elim then on_ else off in
      let want_l = totals_by_config s.rows (fun m -> m.Report.t_list) in
      let want_n = totals_by_config s.rows (fun m -> m.Report.t_new) in
      Outcome.check out
        (Array.to_list a.a_t_list = want_l
        && Array.to_list a.a_t_new = want_n
        && a.a_sync_ops = s.sync_ops)
        (fun () ->
          Printf.sprintf "tables: traced replica totals (sync_elim=%b) differ from Report's" sync_elim))
    !last;
  let a = new_acc () in
  List.iter (fun (_, b) -> merge a b) !last;
  let elim = List.assoc true !last in
  (* the roots are the pool tasks *)
  let _, _, task_s = T.aggregate runs.Trace_out.spans in
  let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  Trace_out.finish out ~workload:"tables" ~seed ~spans:runs.Trace_out.spans
    ~per:(float_of_int runs.Trace_out.rounds) ~overhead:runs.Trace_out.overhead
    [
      ("deps.doacross_ratio", ratio a.a_doacross a.a_loops);
      ("codegen.instrs", float_of_int (a.a_instrs / 2));
      ("dfg.arcs", float_of_int (a.a_arcs / 2));
      ("sync.elim.waits_removed_ratio", ratio elim.a_waits_removed elim.a_waits);
      ("sim.timing.extrapolated_ratio", ratio a.a_extrapolated a.a_timing);
      ( "util.pool.utilization",
        task_s /. (runs.Trace_out.traced_wall *. float_of_int jobs) );
    ]
