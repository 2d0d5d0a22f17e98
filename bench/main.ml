(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation over the Perfect-benchmark surrogate corpora, the
   ablations of DESIGN.md, and Bechamel micro-benchmarks of the pipeline
   stages.

   Run with:  dune exec bench/main.exe -- [--jobs N] [--smoke] [--out FILE]

   --jobs N   fan the (benchmark x config) cells over N domains
   --smoke    reduced corpus (1 benchmark, 2 configs, tables only)
   --out FILE where to write the machine-readable perf record
              (default BENCH_results.json; runs append, so a --jobs 1
              and a --jobs 8 run side by side show the speedup) *)

module Report = Isched_harness.Report
module Pipeline = Isched_harness.Pipeline
module Suite = Isched_perfect.Suite
module Machine = Isched_ir.Machine
module Table = Isched_util.Table
module Pool = Isched_util.Pool

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n== %s\n%s\n\n" line title line

(* --- command line --- *)

type cli = {
  mutable jobs : int;
  mutable smoke : bool;
  mutable out : string;
  mutable trace : string option;
  mutable counters : bool;
  mutable compare : bool;
  mutable bench_history : string option;
  mutable stages : string list option;  (* None = the default stages *)
  mutable scale : int;  (* corpus multiplier; > 1 streams the tables stage *)
  mutable sync_elim : bool;  (* run the redundant-sync elimination pass *)
  mutable serve_bench : bool;  (* run the serve load generator instead *)
  mutable requests : int;
  mutable concurrency : int;
  mutable serve_cache : int;
  mutable zipf : float;
  mutable socket : string option;  (* replay against an external daemon *)
}

let stage_names = [ "figures"; "tables"; "ablations"; "micro"; "artifacts" ]

(* The serial Bechamel micro stage dominates the full run's wall clock
   (~3 s of quota-driven sampling) and pollutes every jobs-scaling
   comparison, so it is opt-in: the default stage list leaves it out,
   and --stages micro (or an explicit all-five list) reaches it. *)
let default_stage_names = [ "figures"; "tables"; "ablations"; "artifacts" ]

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] [--smoke] [--out FILE] [--trace FILE] [--counters]\n\
    \                [--stages LIST] [--scale N] [--compare] [--bench-history FILE]\n\
    \  --jobs N     width of the domain pool (default 1 = sequential)\n\
    \  --smoke      reduced run: 1 benchmark, 2 configs, tables only\n\
    \  --out FILE   perf record path (default BENCH_results.json)\n\
    \  --trace FILE write a Chrome/Perfetto trace_event JSON of the run\n\
    \  --counters   print the observability counter registry at the end\n\
    \  --stages LIST  comma-separated subset of figures,tables,ablations,micro,artifacts\n\
    \               to run.  Default: everything but the serial Bechamel micro stage\n\
    \               (reach it with --stages micro or an explicit all-five list)\n\
    \  --scale N    multiply the generated corpus N-fold (default 1).  N > 1 streams\n\
    \               the corpus in bounded memory and supports only the tables stage\n\
    \               (--stages tables, the default when --scale is given)\n\
    \  --sync-elim  run the redundant-synchronization elimination pass before\n\
    \               scheduling; records carry a distinct stages label so elim and\n\
    \               base runs never baseline against each other\n\
    \  --compare    perf-regression gate: compare the newest recorded run against the\n\
    \               mean of prior runs at matching --jobs/--smoke/--stages/--scale;\n\
    \               exit 1 on a >20% wall-clock or table_totals regression.\n\
    \               Runs no benchmarks.\n\
    \  --bench-history FILE  history file for --compare and for appending records\n\
    \               (default: the --out path)\n\
    \  --serve-bench  replay scheduling requests against the serve daemon and record\n\
    \               p50/p99/p999 latency (cold vs warm cache) in the perf record\n\
    \  --requests N   total requests to replay (default 100000)\n\
    \  --concurrency N  client domains, one connection each (default 8)\n\
    \  --serve-cache N  schedule-cache capacity of the self-hosted daemon (default 1024)\n\
    \  --zipf S     skew of the key-popularity distribution (default 1.0)\n\
    \  --socket PATH  replay against an already-running daemon instead of\n\
    \               self-hosting one in-process";
  exit 2

let parse_cli () =
  let cli =
    {
      jobs = 1;
      smoke = false;
      out = "BENCH_results.json";
      trace = None;
      counters = false;
      compare = false;
      bench_history = None;
      stages = None;
      scale = 1;
      sync_elim = false;
      serve_bench = false;
      requests = 100_000;
      concurrency = 8;
      serve_cache = 1024;
      zipf = 1.0;
      socket = None;
    }
  in
  let parse_stages s =
    let names = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "") in
    if names = [] || List.exists (fun n -> not (List.mem n stage_names)) names then usage ();
    cli.stages <- Some names
  in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      cli.smoke <- true;
      go rest
    | "--counters" :: rest ->
      cli.counters <- true;
      go rest
    | "--compare" :: rest ->
      cli.compare <- true;
      go rest
    | "--serve-bench" :: rest ->
      cli.serve_bench <- true;
      go rest
    | "--sync-elim" :: rest ->
      cli.sync_elim <- true;
      go rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with Some j when j >= 1 -> cli.jobs <- j | _ -> usage ());
      go rest
    | "--requests" :: n :: rest ->
      (match int_of_string_opt n with Some r when r >= 1 -> cli.requests <- r | _ -> usage ());
      go rest
    | "--concurrency" :: n :: rest ->
      (match int_of_string_opt n with Some c when c >= 1 -> cli.concurrency <- c | _ -> usage ());
      go rest
    | "--serve-cache" :: n :: rest ->
      (match int_of_string_opt n with Some c when c >= 1 -> cli.serve_cache <- c | _ -> usage ());
      go rest
    | "--zipf" :: s :: rest ->
      (match float_of_string_opt s with Some z when z >= 0. -> cli.zipf <- z | _ -> usage ());
      go rest
    | "--socket" :: path :: rest ->
      cli.socket <- Some path;
      go rest
    | "--scale" :: n :: rest ->
      (match int_of_string_opt n with Some s when s >= 1 -> cli.scale <- s | _ -> usage ());
      go rest
    | "--out" :: path :: rest ->
      cli.out <- path;
      go rest
    | "--trace" :: path :: rest ->
      cli.trace <- Some path;
      go rest
    | "--bench-history" :: path :: rest ->
      cli.bench_history <- Some path;
      go rest
    | "--stages" :: list :: rest ->
      parse_stages list;
      go rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> go ("--jobs" :: String.sub arg 7 (String.length arg - 7) :: rest)
    | arg :: rest when String.length arg > 6 && String.sub arg 0 6 = "--out=" -> go ("--out" :: String.sub arg 6 (String.length arg - 6) :: rest)
    | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--trace=" -> go ("--trace" :: String.sub arg 8 (String.length arg - 8) :: rest)
    | arg :: rest when String.length arg > 16 && String.sub arg 0 16 = "--bench-history=" ->
      go ("--bench-history" :: String.sub arg 16 (String.length arg - 16) :: rest)
    | arg :: rest when String.length arg > 9 && String.sub arg 0 9 = "--stages=" ->
      go ("--stages" :: String.sub arg 9 (String.length arg - 9) :: rest)
    | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--scale=" ->
      go ("--scale" :: String.sub arg 8 (String.length arg - 8) :: rest)
    | arg :: rest when String.length arg > 11 && String.sub arg 0 11 = "--requests=" ->
      go ("--requests" :: String.sub arg 11 (String.length arg - 11) :: rest)
    | arg :: rest when String.length arg > 14 && String.sub arg 0 14 = "--concurrency=" ->
      go ("--concurrency" :: String.sub arg 14 (String.length arg - 14) :: rest)
    | arg :: rest when String.length arg > 14 && String.sub arg 0 14 = "--serve-cache=" ->
      go ("--serve-cache" :: String.sub arg 14 (String.length arg - 14) :: rest)
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--zipf=" ->
      go ("--zipf" :: String.sub arg 7 (String.length arg - 7) :: rest)
    | arg :: rest when String.length arg > 9 && String.sub arg 0 9 = "--socket=" ->
      go ("--socket" :: String.sub arg 9 (String.length arg - 9) :: rest)
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if cli.scale > 1 then begin
    (* A scaled corpus is streamed, which only the tables stage knows
       how to do; every other stage would need the materialized corpus. *)
    match cli.stages with
    | None -> cli.stages <- Some [ "tables" ]
    | Some [ "tables" ] -> ()
    | Some _ ->
      prerr_endline "--scale N with N > 1 supports only --stages tables";
      usage ()
  end;
  cli

let history_path cli = match cli.bench_history with Some p -> p | None -> cli.out

let stage_wanted cli name =
  match cli.stages with None -> List.mem name default_stage_names | Some l -> List.mem name l

(* Canonical label recorded in the perf record; the --compare gate only
   baselines runs against prior runs with the same label, so a
   tables-only run never masquerades as a full run's baseline.  The
   label "all" still means the full five-stage run (explicit list
   required now that micro is opt-in), so records written before the
   default changed keep matching the runs they describe. *)
let stages_label cli =
  let canonical l = List.filter (fun n -> List.mem n l) stage_names in
  (* --sync-elim changes the workload (smaller programs, fewer sync
     ops), so it gets a label suffix of its own: elimination runs only
     ever baseline against other elimination runs. *)
  let elim_suffix = if cli.sync_elim then "+sync-elim" else "" in
  if cli.serve_bench then
    (* Serve-bench runs are a different workload entirely: give them a
       label of their own (parameterized by request count and
       concurrency) so they only ever baseline against like runs and
       can never stand in for a tables baseline. *)
    Printf.sprintf "serve-r%d-c%d" cli.requests cli.concurrency
  else
    (match cli.stages with
    | None -> String.concat "," default_stage_names
    | Some l -> if canonical l = stage_names then "all" else String.concat "," (canonical l))
    ^ elim_suffix

(* --- stage timing --- *)

let stage_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  stage_times := !stage_times @ [ (name, Unix.gettimeofday () -. t0) ];
  r

(* --- figures --- *)

let fig_1_to_4 () =
  section "Figs. 1-4 - the paper's worked example, reproduced end to end";
  print_string (Isched_harness.Worked_example.report ())

(* --- tables --- *)

let tables ~options benches configs =
  section "Table 1 - characteristics of the benchmark corpora";
  Table.print (Report.table1 ~options benches);
  print_endline
    "(Perfect surrogates: deterministic corpora matching the paper's structural statistics;\n\
     FLQ52, QCD and TRACK all-LBD, MDG and ADM mixed, LBDs almost all flow dependences.)";
  let ms = Report.measure ~options benches configs in
  section "Table 2 - total parallel execution time (100 iterations per loop)";
  Table.print (Report.table2 ms);
  section "Table 3 - improved percentage of parallel execution time";
  Table.print (Report.table3 ms);
  let two, four = Report.overall ms in
  Printf.printf
    "\nOverall enhancement: %.2f%% for 2-issue and %.2f%% for 4-issue\n\
     (the paper reports about 83.37%% and 85.1%%).\n"
    two four;
  section "DOACROSS loop categories (Chen & Yew's six types, Section 4.1)";
  Table.print (Report.categories benches);
  ms

(* The scaled-corpus variant: same sections, but everything flows
   through Report.scaled_tables so no more than a chunk of the corpus
   exists at a time. *)
let tables_scaled ~options ~scale ~smoke configs =
  let profiles = Suite.profiles ~smoke () in
  let t1, ms, cats, sync_ops = Report.scaled_tables ~options ~scale profiles configs in
  section (Printf.sprintf "Table 1 - characteristics of the benchmark corpora (scale %d)" scale);
  Table.print t1;
  section "Table 2 - total parallel execution time (100 iterations per loop)";
  Table.print (Report.table2 ms);
  section "Table 3 - improved percentage of parallel execution time";
  Table.print (Report.table3 ms);
  let two, four = Report.overall ms in
  Printf.printf "\nOverall enhancement: %.2f%% for 2-issue and %.2f%% for 4-issue\n" two four;
  Printf.printf "Send/Wait instructions across the generated programs: %d%s\n" sync_ops
    (if options.Pipeline.sync_elim then " (after redundant-sync elimination)" else "");
  section "DOACROSS loop categories (Chen & Yew's six types, Section 4.1)";
  Table.print cats;
  (ms, sync_ops)

let ablations benches =
  section "Ablation A1 - damage ordering of synchronization paths";
  Table.print (Report.ablation_order benches);
  section "Ablation A3 - statement-level synchronization migration";
  Table.print (Report.ablation_migration benches);
  section "Sweep A4 - beyond the paper's four machine configurations";
  Table.print (Report.sweep benches);
  section "Ablation A5 - list vs marker-guided (ISPAN'94) vs new scheduling";
  Table.print (Report.ablation_markers benches);
  section "Ablation A6 - post-codegen redundant-sync elimination";
  Table.print (Report.ablation_sync_elim benches);
  section "Unroll study - DOACROSS unrolling under the new scheduler";
  Table.print (Report.unroll_study ());
  section "Processor sweep - limited pools with cyclic iteration assignment";
  Table.print (Report.processor_sweep benches);
  section "Register study - spill traffic vs register-file size";
  Table.print (Report.register_study benches);
  section "Architecture comparison - software pipelining vs DOACROSS multiprocessing";
  Table.print (Report.architecture_comparison benches)

(* --- Bechamel micro-benchmarks --- *)

let micro () =
  section "Bechamel micro-benchmarks of the pipeline stages";
  let open Bechamel in
  let fig1 = Isched_harness.Worked_example.fig1_loop () in
  let prog = Isched_harness.Worked_example.fig2_program () in
  let graph = Isched_dfg.Dfg.build prog in
  let m4 = Machine.make ~issue:4 ~nfu:1 () in
  let small_benches =
    List.map
      (fun p -> Suite.load { p with Isched_perfect.Profile.n_generated = 2 })
      Isched_perfect.Profile.all
  in
  let sched_new = Isched_core.Sync_sched.run graph m4 in
  let tests =
    [
      (* One benchmark per reproduced artefact, as DESIGN.md indexes
         them, plus the stage micro-benchmarks. *)
      Test.make ~name:"table1-corpus-statistics"
        (Staged.stage (fun () -> ignore (Report.table1 small_benches)));
      Test.make ~name:"table2-measure-one-config"
        (Staged.stage (fun () ->
             ignore (Report.measure small_benches [ ("4-issue(#FU=1)", m4) ])));
      Test.make ~name:"table3-improvement-metric"
        (Staged.stage (fun () -> ignore (Report.improvement ~t_list:57790 ~t_new:47329)));
      Test.make ~name:"fig4-list-scheduling"
        (Staged.stage (fun () -> ignore (Isched_core.List_sched.run graph m4)));
      Test.make ~name:"fig4-new-scheduling"
        (Staged.stage (fun () -> ignore (Isched_core.Sync_sched.run graph m4)));
      Test.make ~name:"stage-dependence-analysis"
        (Staged.stage (fun () -> ignore (Isched_deps.Dep.analyze fig1)));
      Test.make ~name:"stage-codegen"
        (Staged.stage (fun () -> ignore (Isched_codegen.Codegen.compile fig1)));
      Test.make ~name:"stage-dfg-build"
        (Staged.stage (fun () -> ignore (Isched_dfg.Dfg.build prog)));
      Test.make ~name:"stage-timing-simulation"
        (Staged.stage (fun () -> ignore (Isched_sim.Timing.run sched_new)));
      Test.make ~name:"stage-value-simulation"
        (Staged.stage (fun () -> ignore (Isched_sim.Value.run sched_new)));
    ]
  in
  let test = Test.make_grouped ~name:"isched" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 256) () in
  let raw_results = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw_results in
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "  %-40s %14.1f ns/run\n" name est
         | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)

(* SVG artifacts for the worked example: both schedulers' wavefronts
   and the new schedule's row layout. *)
let artifacts () =
  let dir = "artifacts" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
    Printf.printf "wrote %s\n" path
  in
  let prog = Isched_harness.Worked_example.fig2_program () in
  let g = Isched_dfg.Dfg.build prog in
  let m = Machine.make ~issue:4 ~nfu:1 () in
  let s_list = Isched_core.List_sched.run g m in
  let s_new = Isched_core.Sync_sched.run g m in
  write "fig4-list-wavefront.svg" (Isched_sim.Viz.wavefront_svg ~max_iters:20 s_list);
  write "fig4-new-wavefront.svg" (Isched_sim.Viz.wavefront_svg ~max_iters:20 s_new);
  write "fig4-new-schedule.svg" (Isched_sim.Viz.schedule_svg s_new)

(* --- the serve load generator (--serve-bench) --- *)

module Serve_bench = struct
  module Server = Isched_serve.Server
  module Client = Isched_serve.Client
  module Protocol = Isched_serve.Protocol
  module Prng = Isched_util.Prng
  module Hist = Isched_obs.Hist

  (* Zipf-skewed key popularity: rank r (0-based) drawn with probability
     proportional to 1/(r+1)^theta; theta 0 is uniform.  Precomputed CDF
     + binary search keeps the draw O(log n) off the request path. *)
  let zipf_cdf ~theta n =
    let c = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (i + 1) ** theta));
      c.(i) <- !acc
    done;
    c

  let pick rng cdf =
    let n = Array.length cdf in
    let u = Prng.float rng *. cdf.(n - 1) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

  (* The canonical response encoding starts with a fixed envelope, so
     the load generator classifies hit/miss with a prefix check instead
     of parsing 400-byte JSON bodies off the timed path (the protocol
     suite pins the encoding these prefixes assume). *)
  let hit_prefix = "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": \"hit\""

  let miss_prefix = "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": \"miss\""

  (* One client domain: one connection, [quota] requests drawn from the
     shared popularity distribution with a private PRNG stream; the
     latencies land in a private hit and a private miss histogram. *)
  let worker ~socket ~names ~cdf ~seed ~quota =
    let rng = Prng.create seed in
    let hit = Array.make Hist.n_buckets 0 and miss = Array.make Hist.n_buckets 0 in
    let errors = ref 0 in
    let record h t0 =
      let b = Hist.index (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)) in
      h.(b) <- h.(b) + 1
    in
    Client.with_connection socket (fun c ->
        for _ = 1 to quota do
          let name = names.(pick rng cdf) in
          let req = Protocol.schedule_request (Protocol.Corpus_loop name) in
          let t0 = Unix.gettimeofday () in
          match Client.request_raw c req with
          | Ok payload when String.starts_with ~prefix:hit_prefix payload -> record hit t0
          | Ok payload when String.starts_with ~prefix:miss_prefix payload -> record miss t0
          | Ok _ | Error _ -> incr errors
        done);
    (hit, miss, !errors)

  (* Percentiles are bucket upper bounds, within 25% of the exact
     order statistic. *)
  let ns h p = float_of_int (Hist.quantile h p)

  let total h = Array.fold_left ( + ) 0 h

  let summarize name h =
    match total h with
    | 0 -> Printf.printf "  %-10s (no samples)\n" name
    | n ->
      Printf.printf "  %-10s n=%-8d p50=%8.1fus  p99=%8.1fus  p999=%8.1fus\n" name n
        (ns h 0.50 /. 1e3)
        (ns h 0.99 /. 1e3)
        (ns h 0.999 /. 1e3)

  let pcts_json h =
    Printf.sprintf "{ \"count\": %d, \"p50_ns\": %d, \"p99_ns\": %d, \"p999_ns\": %d }"
      (total h) (Hist.quantile h 0.50) (Hist.quantile h 0.99)
      (Hist.quantile h 0.999)

  (* Returns the JSON fragment recorded under "serve" in the perf
     record. *)
  let run cli =
    section "Scheduling service - load generator";
    let names =
      Array.of_list
        (List.map
           (fun (l : Isched_frontend.Ast.loop) -> l.Isched_frontend.Ast.name)
           (Suite.all_loops ~smoke:cli.smoke ()))
    in
    let cdf = zipf_cdf ~theta:cli.zipf (Array.length names) in
    let self_host = cli.socket = None in
    let socket =
      match cli.socket with
      | Some p -> p
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ischedc-serve-bench-%d.sock" (Unix.getpid ()))
    in
    let server =
      if not self_host then None
      else begin
        let config =
          {
            (Server.default_config ~socket_path:socket) with
            Server.cache_capacity = cli.serve_cache;
            workers = max 2 (min cli.concurrency 8);
            queue_capacity = max 64 cli.concurrency;
          }
        in
        let server = Server.create config in
        let ready = Atomic.make false in
        let d = Domain.spawn (fun () -> Server.run ~on_ready:(fun () -> Atomic.set ready true) server) in
        while not (Atomic.get ready) do
          Unix.sleepf 0.005
        done;
        Some (server, d)
      end
    in
    Printf.printf "%d requests, %d clients, %d corpus keys, zipf %.2f, cache %d (%s)\n%!"
      cli.requests cli.concurrency (Array.length names) cli.zipf cli.serve_cache
      (if self_host then "self-hosted daemon" else "external daemon at " ^ socket);
    let quota = cli.requests / cli.concurrency in
    let extra = cli.requests - (quota * cli.concurrency) in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init cli.concurrency (fun i ->
          let q = quota + if i < extra then 1 else 0 in
          Domain.spawn (fun () -> worker ~socket ~names ~cdf ~seed:(0x5eed0000 + i) ~quota:q))
    in
    let results = List.map Domain.join domains in
    let wall = Unix.gettimeofday () -. t0 in
    (* The daemon's own windowed view, read over the socket before the
       drain: what ischedc top renders, cross-checked below against the
       client-side samples from the very same run. *)
    let server_window =
      let module Json = Isched_obs.Json in
      match Client.with_connection socket (fun c -> Client.request c Protocol.Stats) with
      | Ok (Protocol.Stats_reply stats) ->
        let f path =
          Option.value ~default:0.
            (Option.bind
               (List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some stats) path)
               Json.to_float)
        in
        Some
          ( f [ "window"; "p50_ns" ],
            f [ "window"; "p99_ns" ],
            f [ "window"; "rate" ],
            f [ "window"; "count" ],
            if f [ "cache_window"; "count" ] > 0. then
              1. -. f [ "cache_window"; "flagged_ratio" ]
            else 0. )
      | Ok _ | Error _ -> None
      | exception (Unix.Unix_error _ | Failure _) -> None
    in
    (match server with
    | None -> ()
    | Some (s, d) ->
      Server.stop s;
      Domain.join d);
    let errors = List.fold_left (fun a (_, _, e) -> a + e) 0 results in
    let merge pick =
      let m = Array.make Hist.n_buckets 0 in
      List.iter (fun r -> Array.iteri (fun i c -> m.(i) <- m.(i) + c) (pick r)) results;
      m
    in
    let hit = merge (fun (h, _, _) -> h) and miss = merge (fun (_, m, _) -> m) in
    let all = Array.map2 ( + ) hit miss in
    Printf.printf "replayed %d requests in %.2f s (%.0f req/s), %d error(s)\n" cli.requests wall
      (float_of_int cli.requests /. wall)
      errors;
    summarize "all" all;
    summarize "warm(hit)" hit;
    summarize "cold(miss)" miss;
    if total hit > 0 && total miss > 0 then
      Printf.printf "  warm-cache p50 is %.1fx below the cold-path p50\n"
        (ns miss 0.50 /. Float.max 1. (ns hit 0.50));
    (match server_window with
    | None -> ()
    | Some (p50, p99, rate, count, hit_ratio) ->
      Printf.printf
        "  server    n=%-8.0f p50=%8.1fus  p99=%8.1fus  rate=%7.0f req/s  hit=%5.1f%%\n" count
        (p50 /. 1e3) (p99 /. 1e3) rate (100. *. hit_ratio);
      (* The daemon measures decode-to-write, the client adds the two
         socket hops and its own decode-free read — so the server p50
         sits at or below the client p50, within the same order of
         magnitude (and its bucketed quantiles overshoot <= 25%). *)
      if total all > 0 && p50 > 0. then
        Printf.printf "  cross-check: server/client p50 ratio %.2f\n"
          (p50 /. Float.max 1. (ns all 0.50)));
    let server_window_json =
      match server_window with
      | None -> "null"
      | Some (p50, p99, rate, count, hit_ratio) ->
        Printf.sprintf
          "{ \"count\": %.0f, \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"rate_rps\": %.1f, \
           \"hit_ratio\": %.4f }"
          count p50 p99 rate hit_ratio
    in
    Printf.sprintf
      "{ \"requests\": %d, \"concurrency\": %d, \"cache_capacity\": %d, \"zipf\": %.3f, \
       \"wall_clock_seconds\": %.3f, \"throughput_rps\": %.1f, \"errors\": %d, \"latency\": { \
       \"all\": %s, \"hit\": %s, \"miss\": %s }, \"server_window\": %s }"
      cli.requests cli.concurrency cli.serve_cache cli.zipf wall
      (float_of_int cli.requests /. wall)
      errors (pcts_json all) (pcts_json hit) (pcts_json miss) server_window_json
end

(* --- machine-readable perf record --- *)

let git_rev () =
  let read path =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (String.trim (really_input_string ic (in_channel_length ic))))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head >= 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.trim (String.sub head 5 (String.length head - 5)) in
    match read (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> (
      (* The ref may live in packed-refs: "<rev> <refname>" lines. *)
      match read ".git/packed-refs" with
      | None -> "unknown"
      | Some packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.index_opt l ' ' with
               | Some i when String.sub l (i + 1) (String.length l - i - 1) = r ->
                 Some (String.sub l 0 i)
               | _ -> None)
        |> Option.value ~default:"unknown"))
  | Some head -> head

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The record keeps every run: {"runs": [ ... ]}.  Appending re-reads
   the previous file and splices its run objects back verbatim (we only
   ever parse our own output), so a --jobs 1 run and a --jobs 8 run can
   sit side by side and document the speedup. *)
let previous_runs path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match (String.index_opt s '[', String.rindex_opt s ']') with
      | Some i, Some j when j > i ->
        let inner = String.trim (String.sub s (i + 1) (j - i - 1)) in
        if inner = "" then None else Some inner
      | _ -> None
    with Sys_error _ | End_of_file -> None

let emit_record ~path ~cli ~total ?serve ?sync_ops (ms : Report.measurement list) =
  let b = Buffer.create 1024 in
  let configs =
    List.fold_left (fun acc m -> if List.mem m.Report.config acc then acc else acc @ [ m.Report.config ]) [] ms
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "      \"git_rev\": \"%s\",\n" (json_escape (git_rev ())));
  Buffer.add_string b (Printf.sprintf "      \"unix_time\": %.0f,\n" (Unix.time ()));
  Buffer.add_string b (Printf.sprintf "      \"jobs\": %d,\n" cli.jobs);
  Buffer.add_string b (Printf.sprintf "      \"smoke\": %b,\n" cli.smoke);
  Buffer.add_string b (Printf.sprintf "      \"scale\": %d,\n" cli.scale);
  Buffer.add_string b (Printf.sprintf "      \"sync_elim\": %b,\n" cli.sync_elim);
  (match sync_ops with
  | None -> ()
  | Some n -> Buffer.add_string b (Printf.sprintf "      \"sync_ops\": %d,\n" n));
  Buffer.add_string b (Printf.sprintf "      \"stages\": \"%s\",\n" (json_escape (stages_label cli)));
  Buffer.add_string b (Printf.sprintf "      \"wall_clock_seconds\": %.3f,\n" total);
  let hits, misses = Isched_harness.Pipeline.memo_stats () in
  Buffer.add_string b
    (Printf.sprintf "      \"prepare_memo\": { \"hits\": %d, \"misses\": %d },\n" hits misses);
  Buffer.add_string b "      \"stage_seconds\": {";
  List.iteri
    (fun i (name, s) ->
      Buffer.add_string b
        (Printf.sprintf "%s \"%s\": %.3f" (if i = 0 then "" else ",") (json_escape name) s))
    !stage_times;
  Buffer.add_string b " },\n";
  Buffer.add_string b "      \"table_totals\": {";
  List.iteri
    (fun i c ->
      let rows = List.filter (fun m -> m.Report.config = c) ms in
      let tl = List.fold_left (fun a m -> a + m.Report.t_list) 0 rows in
      let tn = List.fold_left (fun a m -> a + m.Report.t_new) 0 rows in
      Buffer.add_string b
        (Printf.sprintf "%s \"%s\": { \"t_list\": %d, \"t_new\": %d }"
           (if i = 0 then "" else ",")
           (json_escape c) tl tn))
    configs;
  Buffer.add_string b " },\n";
  (match serve with
  | None -> ()
  | Some s -> Buffer.add_string b (Printf.sprintf "      \"serve\": %s,\n" s));
  (* Full counter snapshot (see doc/observability.md for the schema):
     scheduler runs, pool utilisation, first_fit probe lengths, timing
     fast-path hits... so every future perf PR has a machine-readable
     before/after story beyond wall-clock. *)
  Buffer.add_string b
    (Printf.sprintf "      \"counters\": %s\n" (Isched_obs.Counters.to_json ()));
  Buffer.add_string b "    }";
  let entry = Buffer.contents b in
  let runs = match previous_runs path with None -> entry | Some prev -> prev ^ ",\n    " ^ entry in
  let doc = Printf.sprintf "{\n  \"runs\": [\n    %s\n  ]\n}\n" runs in
  (* Keep the history bounded: the newest 200 runs.  On an unparseable
     document the rotation declines and the raw splice stands — better
     an over-long history than a destroyed one. *)
  let doc = Option.value ~default:doc (Isched_harness.Bench_gate.rotate_history ~keep:200 doc) in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc doc);
  Printf.printf "wrote %s\n" path

(* --- the --compare perf-regression gate --- *)

let run_compare cli =
  let path = history_path cli in
  if not (Sys.file_exists path) then begin
    Printf.printf "perf comparison: no history at %s — nothing to compare against, OK\n" path;
    exit 0
  end;
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Isched_harness.Bench_gate.parse_history contents with
  | Error e ->
    Printf.eprintf "perf comparison: cannot parse %s: %s\n" path e;
    exit 2
  | Ok runs -> (
    match Isched_harness.Bench_gate.compare_latest runs with
    | Error e ->
      Printf.eprintf "perf comparison: %s\n" e;
      exit 2
    | Ok c ->
      print_string (Isched_harness.Bench_gate.render_comparison c);
      exit (if Isched_harness.Bench_gate.ok c then 0 else 1))

let () =
  let cli = parse_cli () in
  if cli.compare then run_compare cli;
  Pool.set_default_jobs cli.jobs;
  (match cli.trace with None -> () | Some _ -> Isched_obs.Span.set_enabled true);
  let t0 = Unix.gettimeofday () in
  let configs =
    if cli.smoke then
      match Machine.paper_configs with a :: b :: _ -> [ a; b ] | short -> short
    else Machine.paper_configs
  in
  let options = { Pipeline.default_options with sync_elim = cli.sync_elim } in
  let serve_json = ref None in
  let sync_ops = ref None in
  let ms =
    if cli.serve_bench then begin
      serve_json := Some (timed "serve" (fun () -> Serve_bench.run cli));
      []
    end
    else if cli.scale > 1 then begin
      (* Streamed: the corpus is never materialized, so there is no
         load-corpora stage and only tables can run (enforced at CLI
         parse time). *)
      let ms, ops =
        timed "tables" (fun () -> tables_scaled ~options ~scale:cli.scale ~smoke:cli.smoke configs)
      in
      sync_ops := Some ops;
      ms
    end
    else begin
      let benches = timed "load-corpora" (fun () -> Suite.corpora ~smoke:cli.smoke ()) in
      if (not cli.smoke) && stage_wanted cli "figures" then timed "figures" fig_1_to_4;
      let ms =
        if stage_wanted cli "tables" then timed "tables" (fun () -> tables ~options benches configs)
        else []
      in
      if not cli.smoke then begin
        if stage_wanted cli "ablations" then timed "ablations" (fun () -> ablations benches);
        if stage_wanted cli "micro" then timed "micro" micro;
        if stage_wanted cli "artifacts" then timed "artifacts" artifacts
      end;
      ms
    end
  in
  let total = Unix.gettimeofday () -. t0 in
  emit_record ~path:(history_path cli) ~cli ~total ?serve:!serve_json ?sync_ops:!sync_ops ms;
  (match cli.trace with
  | None -> ()
  | Some path ->
    Isched_obs.Span.write_file path;
    Printf.printf "wrote %s\n" path);
  if cli.counters then begin
    print_string "\n--- counters ---\n";
    print_string (Isched_obs.Counters.render ())
  end;
  Printf.printf "\nTotal bench time: %.1f s (jobs=%d)\n" total cli.jobs
