(* Tests for the experiment harness: the Fig. 5 pipeline, the table
   builders, the worked example, and the headline results' shape. *)

module Pipeline = Isched_harness.Pipeline
module Report = Isched_harness.Report
module Worked_example = Isched_harness.Worked_example
module Suite = Isched_perfect.Suite
module Machine = Isched_ir.Machine
module Table = Isched_util.Table

let check = Alcotest.check

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* small corpora for fast table tests *)
let small_benches () =
  List.map
    (fun p -> Suite.load { p with Isched_perfect.Profile.n_generated = 3 })
    Isched_perfect.Profile.all

let test_pipeline_prepare () =
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  (match Pipeline.prepare l with
  | Pipeline.Doacross { prog; graph; _ } ->
    check Alcotest.int "graph covers the program" (Array.length prog.Isched_ir.Program.body)
      graph.Isched_dfg.Dfg.n
  | Pipeline.Doall _ -> Alcotest.fail "recurrence is doacross");
  let l2 = Isched_frontend.Parser.parse_loop "DO I = 1, 10\n S = S + E[I]\nENDDO" in
  match Pipeline.prepare l2 with
  | Pipeline.Doall _ -> ()
  | Pipeline.Doacross _ -> Alcotest.fail "reduction should become doall"

let test_pipeline_schedule_rejects_doall () =
  let l = Isched_frontend.Parser.parse_loop "DO I = 1, 10\n S = S + E[I]\nENDDO" in
  let p = Pipeline.prepare l in
  Alcotest.(check bool) "raises on doall" true
    (try
       ignore (Pipeline.schedule p (Machine.make ~issue:4 ~nfu:1 ()) Pipeline.List_scheduling);
       false
     with Invalid_argument _ -> true)

let test_pipeline_loop_time_positive () =
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  let p = Pipeline.prepare l in
  let t = Pipeline.loop_time p (Machine.make ~issue:4 ~nfu:1 ()) Pipeline.New_scheduling in
  Alcotest.(check bool) "positive" true (t > 0)

let test_table1_shape () =
  let t = Report.table1 (small_benches ()) in
  let s = Table.render t in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " row present") true (contains s name))
    [ "FLQ52"; "QCD"; "MDG"; "TRACK"; "ADM"; "TOTAL" ]

let test_measure_and_tables () =
  let benches = small_benches () in
  let ms = Report.measure benches Machine.paper_configs in
  check Alcotest.int "5 benchmarks x 4 configs" 20 (List.length ms);
  List.iter
    (fun (m : Report.measurement) ->
      Alcotest.(check bool) "t_new <= t_list" true (m.Report.t_new <= m.Report.t_list);
      Alcotest.(check bool) "positive times" true (m.Report.t_new > 0))
    ms;
  let s2 = Table.render (Report.table2 ms) in
  Alcotest.(check bool) "table2 has totals" true (contains s2 "Total");
  let s3 = Table.render (Report.table3 ms) in
  Alcotest.(check bool) "table3 has percents" true (contains s3 "%")

let test_improvement_metric () =
  check (Alcotest.float 1e-9) "50%" 50. (Report.improvement ~t_list:200 ~t_new:100);
  check (Alcotest.float 1e-9) "0%" 0. (Report.improvement ~t_list:100 ~t_new:100);
  check (Alcotest.float 1e-9) "guard" 0. (Report.improvement ~t_list:0 ~t_new:0)

let test_overall_shape () =
  (* The headline numbers on the full corpora: both overall improvements
     above 70%, like the paper's 83.4% / 85.1%. *)
  let ms = Report.measure (Suite.all ()) Machine.paper_configs in
  let two, four = Report.overall ms in
  Alcotest.(check bool) "2-issue overall > 70%" true (two > 70.);
  Alcotest.(check bool) "4-issue overall > 70%" true (four > 70.)

let test_qcd_improves_least () =
  let ms = Report.measure (Suite.all ()) [ ("4-issue(#FU=1)", Machine.make ~issue:4 ~nfu:1 ()) ] in
  let impr name =
    let m = List.find (fun (m : Report.measurement) -> m.Report.benchmark = name) ms in
    Report.improvement ~t_list:m.Report.t_list ~t_new:m.Report.t_new
  in
  List.iter
    (fun other ->
      Alcotest.(check bool) (other ^ " beats QCD") true (impr other > impr "QCD"))
    [ "FLQ52"; "MDG"; "TRACK"; "ADM" ]

let test_categories_table () =
  let s = Table.render (Report.categories (small_benches ())) in
  Alcotest.(check bool) "has the six type names" true
    (contains s "induction variable" && contains s "reduction operation" && contains s "others")

let test_ablation_order () =
  let s = Table.render (Report.ablation_order (small_benches ())) in
  Alcotest.(check bool) "variants shown" true
    (contains s "new unordered" && contains s "new ordered" && contains s "ordering gain")

let test_ablation_migration () =
  let s = Table.render (Report.ablation_migration (small_benches ())) in
  Alcotest.(check bool) "migration columns" true (contains s "list+migr" && contains s "new+migr")

let test_worked_example_report () =
  let s = Worked_example.report () in
  List.iter
    (fun affix -> Alcotest.(check bool) (affix ^ " present") true (contains s affix))
    [
      "Fig. 1";
      "Fig. 2";
      "Fig. 3";
      "Fig. 4";
      "Wait_Signal(S3, I-2)";
      "Send_Signal(S3)";
      "Sigwat graph";
      "Wat graph";
      "synchronization path";
      "list scheduling";
      "new instruction scheduling";
    ]

let test_worked_example_times () =
  (* The Fig. 4 comparison: list 1200 cycles, new under 500, matching
     the paper's (12N)+13 versus (N/2)*span+13 relationship. *)
  let s = Worked_example.report () in
  Alcotest.(check bool) "list time" true (contains s "simulated 1200");
  Alcotest.(check bool) "new time well under half" true (contains s "simulated 457")

let test_measure_pool_matches_sequential () =
  (* The --jobs acceptance property: fanning the (benchmark x config)
     cells over domains must reproduce the sequential measurement list
     exactly, element for element. *)
  let benches = small_benches () in
  let seq = Report.measure ~jobs:1 benches Machine.paper_configs in
  let par = Report.measure ~jobs:4 benches Machine.paper_configs in
  check Alcotest.int "same length" (List.length seq) (List.length par);
  Alcotest.(check bool) "identical measurements in order" true (seq = par)

let test_prepare_memo () =
  Pipeline.memo_clear ();
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  let a = Pipeline.prepare l in
  let b = Pipeline.prepare l in
  Alcotest.(check bool) "second call returns the cached value" true (a == b);
  let hits, misses = Pipeline.memo_stats () in
  check Alcotest.int "one miss" 1 misses;
  Alcotest.(check bool) "at least one hit" true (hits >= 1);
  (* a different option set is a different cache line *)
  let c = Pipeline.prepare ~options:{ Pipeline.default_options with Pipeline.n_iters = Some 7 } l in
  Alcotest.(check bool) "options partition the cache" true (c != a);
  check Alcotest.int "second miss" 2 (snd (Pipeline.memo_stats ()))

let test_prepare_memo_concurrent () =
  (* Eight domains racing [prepare] on the identical key: the memo
     coalesces, so exactly one of them computes, the other seven wait
     for (or find) that very result, and every caller gets the same
     physical preparation.  The loop is long enough (a 60-statement
     recurrence) and the start gate tight enough that, without
     coalescing, racers do compute it again. *)
  Pipeline.memo_clear ();
  let source =
    "DOACROSS I = 1, 10\n"
    ^ String.concat ""
        (List.init 60 (fun k -> Printf.sprintf " A%d[I] = A%d[I-1] + A%d[I-2]\n" k k k))
    ^ "ENDDO"
  in
  let l = Isched_frontend.Parser.parse_loop source in
  let ready = Atomic.make 0 in
  let domains =
    Array.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 8 do
              Domain.cpu_relax ()
            done;
            Pipeline.prepare l))
  in
  let results = Array.map Domain.join domains in
  Array.iter
    (fun p -> Alcotest.(check bool) "one shared preparation" true (p == results.(0)))
    results;
  let hits, misses = Pipeline.memo_stats () in
  check Alcotest.int "exactly one miss" 1 misses;
  check Alcotest.int "seven hits" 7 hits;
  (* A fresh parse of the same source is a physically distinct but
     digest-equal key: it must hit the entry the racers installed. *)
  let l2 = Isched_frontend.Parser.parse_loop source in
  Alcotest.(check bool) "structurally equal key hits" true (Pipeline.prepare l2 == results.(0));
  check Alcotest.int "still one miss" 1 (snd (Pipeline.memo_stats ()))

let test_prepare_memo_bounded () =
  (* 1025 distinct loops through a 1024-entry memo: something must be
     evicted, and no more than the capacity is ever retained. *)
  Pipeline.memo_clear ();
  for n = 10 to 1034 do
    ignore
      (Pipeline.prepare
         (Isched_frontend.Parser.parse_loop
            (Printf.sprintf "DOACROSS I = 1, %d\n A[I] = A[I-1]\nENDDO" n)))
  done;
  let counter name =
    match Isched_obs.Counters.find name with
    | Some (Isched_obs.Counters.Counter n) -> n
    | _ -> Alcotest.failf "counter %s is not registered" name
  in
  let misses = snd (Pipeline.memo_stats ()) and evicted = counter "pipeline.memo.evict" in
  check Alcotest.int "every loop missed" 1025 misses;
  Alcotest.(check bool) "the bound evicted" true (evicted >= 1);
  Alcotest.(check bool) "at most 1024 retained" true (misses - evicted <= 1024);
  Pipeline.memo_clear ()

let test_options_respected () =
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 50\n A[5] = A[5] + E[I]\nENDDO" in
  let with_opts options =
    match Pipeline.prepare ~options l with
    | Pipeline.Doacross { prog; _ } -> Array.length prog.Isched_ir.Program.waits
    | Pipeline.Doall _ -> -1
  in
  let base = with_opts Pipeline.default_options in
  let elim = with_opts { Pipeline.default_options with Pipeline.sync_elim = true } in
  Alcotest.(check bool) "elimination drops pairs" true (elim < base)

let test_memo_key_covers_sync_elim () =
  (* The cache-key regression class: flipping a front-half option must
     be a memo MISS that returns a different preparation, never a stale
     hit from the other setting.  The guarded reduction is a kernel
     where the post-codegen pass provably changes the program. *)
  let l =
    Isched_frontend.Parser.parse_loop
      "DOACROSS I = 1, 50\n IF (E[I] > 0) S = S + Q[I] * C[I]\nENDDO"
  in
  let waits p =
    match p with
    | Pipeline.Doacross { prog; _ } -> Array.length prog.Isched_ir.Program.waits
    | Pipeline.Doall _ -> -1
  in
  let d = Pipeline.default_options in
  List.iter
    (fun (name, options) ->
      Pipeline.memo_clear ();
      let base = Pipeline.prepare l in
      check Alcotest.int "one miss" 1 (snd (Pipeline.memo_stats ()));
      let flipped = Pipeline.prepare ~options l in
      check Alcotest.int ("flipping " ^ name ^ " misses") 2 (snd (Pipeline.memo_stats ()));
      Alcotest.(check bool) "distinct cache lines" true (flipped != base);
      if options.Pipeline.sync_elim then
        Alcotest.(check bool) "the eliminated preparation is smaller" true
          (waits flipped < waits base);
      (* Re-asking for either setting hits its own line and keeps its
         own answer. *)
      let base' = Pipeline.prepare l in
      let flipped' = Pipeline.prepare ~options l in
      check Alcotest.int "no further misses" 2 (snd (Pipeline.memo_stats ()));
      Alcotest.(check bool) "base line stable" true (base' == base);
      Alcotest.(check bool) (name ^ " line stable") true (flipped' == flipped))
    [
      ("sync_elim", { d with Pipeline.sync_elim = true });
      ("migrate", { d with Pipeline.migrate = true });
      ("n_iters", { d with Pipeline.n_iters = Some 7 });
    ];
  (* [order_paths] only steers the scheduler: it shares the line. *)
  Pipeline.memo_clear ();
  let base = Pipeline.prepare l in
  let unordered = Pipeline.prepare ~options:{ d with Pipeline.order_paths = false } l in
  Alcotest.(check bool) "order_paths shares the line" true (unordered == base);
  check Alcotest.int "order_paths is not keyed" 1 (snd (Pipeline.memo_stats ()))

let test_ablation_sync_elim () =
  (* Pin the kernels row: fixed-cell accumulations and a guarded scalar
     sum, where the pass removes 12 of 20 Send/Wait instructions on
     every configuration. *)
  let s = Table.render (Report.ablation_sync_elim (small_benches ())) in
  let cells line =
    String.split_on_char '|' line |> List.map String.trim |> List.filter (( <> ) "")
  in
  let rec from_kernels = function
    | [] -> []
    | line :: rest -> (
      match cells line with
      | "elim kernels" :: row -> row :: List.map cells rest
      | _ -> from_kernels rest)
  in
  let rows = List.filteri (fun i _ -> i < 4) (from_kernels (String.split_on_char '\n' s)) in
  check
    Alcotest.(list (list string))
    "elim kernels row"
    [
      [ "2-issue/#FU=1"; "20"; "8"; "2601"; "2011"; "22.68%" ];
      [ "2-issue/#FU=2"; "20"; "8"; "2404"; "1804"; "24.96%" ];
      [ "4-issue/#FU=1"; "20"; "8"; "2500"; "2011"; "19.56%" ];
      [ "4-issue/#FU=2"; "20"; "8"; "2100"; "1804"; "14.10%" ];
    ]
    rows

let suite =
  [
    ("pipeline: prepare splits doall/doacross", `Quick, test_pipeline_prepare);
    ("pipeline: scheduling a doall is an error", `Quick, test_pipeline_schedule_rejects_doall);
    ("pipeline: loop_time", `Quick, test_pipeline_loop_time_positive);
    ("table1: all rows present", `Quick, test_table1_shape);
    ("table2/3: measurements and rendering", `Quick, test_measure_and_tables);
    ("table3: improvement metric", `Quick, test_improvement_metric);
    ("headline: overall improvement above 70%", `Slow, test_overall_shape);
    ("headline: QCD improves least", `Slow, test_qcd_improves_least);
    ("categories table", `Quick, test_categories_table);
    ("ablation A1 renders", `Quick, test_ablation_order);
    ("ablation A3 renders", `Quick, test_ablation_migration);
    ("ablation A6 renders", `Quick, test_ablation_sync_elim);
    ("worked example: all figures present", `Quick, test_worked_example_report);
    ("worked example: Fig. 4 times", `Quick, test_worked_example_times);
    ("pipeline options: redundant-sync elimination", `Quick, test_options_respected);
    ("pipeline: memo key covers sync_elim", `Quick, test_memo_key_covers_sync_elim);
    ("measure: domain pool equals sequential", `Quick, test_measure_pool_matches_sequential);
    ("pipeline: prepare memoization", `Quick, test_prepare_memo);
    ("pipeline: memo safe under 8-way identical keys", `Quick, test_prepare_memo_concurrent);
    ("pipeline: memo is bounded", `Quick, test_prepare_memo_bounded);
  ]
