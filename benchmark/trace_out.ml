(* The traced run's report: every per-layer metric of BENCHMARK.json for
   every workload (a layer the workload never calls reads 0), the spans
   written to benchmark/out/, and the tracing overhead. *)

(* Entry points timed by the workloads, one span name each. *)
let layers =
  [
    "perfect.chunk_loops";
    "frontend.parse";
    "transform.restructure";
    "deps.carried_deps";
    "codegen.compile";
    "dfg.build";
    "sync.elim";
    "core.list";
    "core.marker";
    "core.new";
    "core.modulo";
    "sim.timing";
    "sim.value";
    "exec.prog_interp";
    "exec.memory_equal";
    "exec.readlog_compare";
    "check.static";
    "check.inject";
    "serve.cache";
    "serve.handle.hit";
    "serve.handle.miss";
  ]

(* Sizes and ratios measured where the work happens, with their units. *)
let extras =
  [
    ("deps.doacross_ratio", "ratio");
    ("codegen.instrs", "count");
    ("dfg.arcs", "count");
    ("sync.elim.waits_removed_ratio", "ratio");
    ("sim.timing.extrapolated_ratio", "ratio");
    ("check.inject.detected_ratio", "ratio");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.transport_us", "us");
    ("serve.handle_p99_us", "us");
    ("serve.open_p50_us", "us");
    ("serve.open_p99_us", "us");
    ("serve.gen_late_us", "us");
    ("util.pool.utilization", "ratio");
  ]

(* Named layers must explain at least this share of the time spent in
   the traced run's root spans (the rest is the benchmark's own glue). *)
let coverage_tolerance = 0.10

let out_dir = "benchmark/out"

let write_spans ~workload ~seed spans =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir workload seed in
  Tracer.write path spans;
  Printf.printf "  spans written to %s\n" path

(* [finish out ~workload ~seed ~spans ~per ~overhead values] — [per]
   divides call counts and busy times (the number of traced rounds);
   [values] are the workload's extras. *)
let finish out ~workload ~seed ~spans ~per ~overhead values =
  let lookup, coverage, _ = Tracer.aggregate spans in
  write_spans ~workload ~seed spans;
  Printf.printf "  %d spans; named layers cover %.1f%% of root-span time\n" (List.length spans)
    (100. *. coverage);
  Outcome.check out
    (coverage >= 1. -. coverage_tolerance)
    (fun () ->
      Printf.sprintf "%s: layer self times cover only %.1f%% of the traced time" workload
        (100. *. coverage));
  let layer_metrics =
    List.concat_map
      (fun name ->
        let l = lookup name in
        [
          Outcome.m (name ^ ".calls") "count" (float_of_int l.Tracer.calls /. per);
          Outcome.m (name ^ ".busy_s") "s" (l.Tracer.busy_s /. per);
        ])
      layers
  in
  let extra_metrics =
    List.map
      (fun (name, unit_) -> Outcome.m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
      extras
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name extras) then invalid_arg ("unknown per-layer metric " ^ name))
    values;
  Outcome.finish out
    (layer_metrics @ extra_metrics
    @ [
        Outcome.m "trace_overhead" "ratio" overhead;
        Outcome.m "trace.coverage" "ratio" coverage;
        Outcome.m "error_rate" "ratio" (Outcome.error_rate out);
      ])

type runs = { overhead : float; rounds : int; traced_wall : float; spans : Tracer.span list }

(* [compare_runs ~seconds ~max_traced f] runs [f] with recording off for
   a third of [seconds], then with recording on for the rest (each at
   least once, at most [max_traced] traced rounds).  The overhead is the
   ratio of the two median walls; [f] receives whether it is traced. *)
let compare_runs ~seconds ~max_traced f =
  let plain = ref [] in
  Bstats.repeat_for ~seconds:(seconds /. 3.) (fun _ ->
      plain := snd (Bstats.time (fun () -> f false)) :: !plain);
  Tracer.start ();
  let traced = ref [] in
  let t0 = Bstats.now_ns () in
  while
    !traced = []
    || (List.length !traced < max_traced && Bstats.secs_since t0 < seconds *. 2. /. 3.)
  do
    traced := snd (Bstats.time (fun () -> f true)) :: !traced
  done;
  let traced_wall = Bstats.secs_since t0 in
  let spans = Tracer.stop () in
  Printf.printf "  %d untraced and %d traced replica rounds\n" (List.length !plain)
    (List.length !traced);
  {
    overhead = Bstats.median (Array.of_list !traced) /. Bstats.median (Array.of_list !plain);
    rounds = List.length !traced;
    traced_wall;
    spans;
  }
