(* Tests for the observability layer: span recording and export,
   counter/distribution semantics, and domain-safety of both. *)

module Span = Isched_obs.Span
module Counters = Isched_obs.Counters

let check = Alcotest.check

(* A minimal strict JSON parser — enough to assert that the exported
   trace is well-formed (what Perfetto requires before it renders
   anything).  Raises [Failure] on any malformation. *)
module Json = struct
  let parse (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
    let peek () = if !pos >= n then fail "eof" else s.[!pos] in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
        advance ();
        skip_ws ()
      end
    in
    let expect c = if peek () <> c then fail (Printf.sprintf "expected %c" c) else advance () in
    let parse_lit lit =
      String.iter (fun c -> if peek () <> c then fail ("bad literal " ^ lit) else advance ()) lit
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
          | 'u' ->
            advance ();
            for _ = 1 to 4 do
              (match peek () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
              | _ -> fail "bad \\u escape");
              advance ()
            done
          | _ -> fail "bad escape");
          go ()
        | c when Char.code c < 0x20 -> fail "raw control char in string"
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      if peek () = '-' then advance ();
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
      do
        advance ()
      done;
      if !pos = start then fail "bad number";
      ignore (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            ignore (parse_string ());
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ()
            | '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ()
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then advance ()
        else
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elements ()
            | ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ()
      | '"' -> ignore (parse_string ())
      | 't' -> parse_lit "true"
      | 'f' -> parse_lit "false"
      | 'n' -> parse_lit "null"
      | _ -> parse_number ()
    in
    parse_value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage"
end

(* Every test runs against the process-wide singletons, so each starts
   from a clean slate. *)
let fresh () =
  Span.set_enabled false;
  Span.reset ();
  Counters.set_enabled true;
  Counters.reset ()

(* --- spans --- *)

let test_span_disabled_records_nothing () =
  fresh ();
  let r = Span.with_ ~name:"nothing" (fun () -> 41 + 1) in
  check Alcotest.int "result passes through" 42 r;
  check Alcotest.int "no events" 0 (List.length (Span.events ()))

let test_span_records_when_enabled () =
  fresh ();
  Span.set_enabled true;
  ignore (Span.with_ ~name:"outer" ~args:[ ("k", "v") ] (fun () -> Span.with_ ~name:"inner" Fun.id));
  Span.set_enabled false;
  match Span.events () with
  | [ inner; outer ] ->
    (* Completion order: the inner span finishes first. *)
    check Alcotest.string "inner name" "inner" inner.Span.name;
    check Alcotest.string "outer name" "outer" outer.Span.name;
    check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "args kept" [ ("k", "v") ]
      outer.Span.args;
    Alcotest.(check bool) "inner nested in outer" true
      (inner.Span.ts_us >= outer.Span.ts_us
      && inner.Span.ts_us +. inner.Span.dur_us <= outer.Span.ts_us +. outer.Span.dur_us +. 0.001)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_survives_exception () =
  fresh ();
  Span.set_enabled true;
  (try Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
  Span.set_enabled false;
  check Alcotest.int "span recorded despite raise" 1 (List.length (Span.events ()))

let test_span_export_is_valid_json () =
  fresh ();
  Span.set_enabled true;
  ignore
    (Span.with_ ~name:{|tricky "name"
with newline\and backslash|}
       ~args:[ ("arg\twith\ttabs", "va\"lue") ]
       (fun () -> ()));
  Span.set_enabled false;
  let json = Span.export_json () in
  (try Json.parse json with Failure m -> Alcotest.failf "export not valid JSON: %s" m);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "has traceEvents key" true (contains "\"traceEvents\"" json)

let test_span_reset () =
  fresh ();
  Span.set_enabled true;
  ignore (Span.with_ ~name:"a" Fun.id);
  Span.reset ();
  check Alcotest.int "reset drops events" 0 (List.length (Span.events ()));
  Span.set_enabled false

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let test_span_reset_restarts_epoch () =
  (* Regression: reset used to clear the log but keep the old epoch, so
     post-reset spans carried timestamps offset by the whole previous
     run.  After a reset the first span must sit near t = 0 again. *)
  fresh ();
  Span.set_enabled true;
  ignore (Span.with_ ~name:"before" Fun.id);
  Unix.sleepf 0.1;
  Span.reset ();
  ignore (Span.with_ ~name:"after" Fun.id);
  Span.set_enabled false;
  match Span.events () with
  | [ ev ] ->
    check Alcotest.string "post-reset span kept" "after" ev.Span.name;
    Alcotest.(check bool) "timestamp restarts at the reset, not the first enable" true
      (ev.Span.ts_us < 50_000.0)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_log_bounded () =
  fresh ();
  Span.set_enabled true;
  Span.set_capacity 3;
  Fun.protect ~finally:(fun () ->
      Span.set_enabled false;
      Span.set_capacity (1 lsl 20);
      Span.reset ())
  @@ fun () ->
  for i = 1 to 5 do
    check Alcotest.int "thunk still runs when full" i
      (Span.with_ ~name:(Printf.sprintf "s%d" i) (fun () -> i))
  done;
  check Alcotest.int "log capped" 3 (List.length (Span.events ()));
  check Alcotest.int "overflow counted" 2 (Span.dropped_events ());
  Span.reset ();
  check Alcotest.int "reset clears the drop count" 0 (Span.dropped_events ());
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Span.set_capacity: capacity must be >= 1") (fun () ->
      Span.set_capacity 0)

(* --- counters --- *)

let test_counter_basics () =
  fresh ();
  let c = Counters.counter "test.basic" in
  check Alcotest.int "starts at 0" 0 (Counters.value c);
  Counters.incr c;
  Counters.add c 10;
  check Alcotest.int "incr + add" 11 (Counters.value c);
  let c' = Counters.counter "test.basic" in
  Counters.incr c';
  check Alcotest.int "same name, same counter" 12 (Counters.value c)

let test_counter_disabled () =
  fresh ();
  let c = Counters.counter "test.disabled" in
  Counters.set_enabled false;
  Counters.incr c;
  Counters.add c 5;
  Counters.set_enabled true;
  check Alcotest.int "no-ops while disabled" 0 (Counters.value c)

let test_dist_stats () =
  fresh ();
  let d = Counters.dist "test.dist" in
  List.iter (Counters.observe d) [ 3; -2; 7; 3; 100 ];
  let s = Counters.dist_stats d in
  check Alcotest.int "count" 5 s.Counters.count;
  check Alcotest.int "sum" 111 s.Counters.sum;
  check Alcotest.int "min" (-2) s.Counters.min_v;
  check Alcotest.int "max" 100 s.Counters.max_v;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "buckets: negatives at -1, exacts, 100 under its bucket bound 111"
    [ (-1, 1); (3, 2); (7, 1); (111, 1) ]
    s.Counters.buckets

let test_registry_kind_conflict () =
  fresh ();
  ignore (Counters.counter "test.kind");
  Alcotest.check_raises "dist on a counter name"
    (Invalid_argument "Counters.dist: test.kind is a counter") (fun () ->
      ignore (Counters.dist "test.kind"))

let test_snapshot_sorted_and_complete () =
  fresh ();
  ignore (Counters.counter "test.zz");
  ignore (Counters.counter "test.aa");
  let names = List.map fst (Counters.snapshot ()) in
  Alcotest.(check bool) "sorted" true (names = List.sort compare names);
  Alcotest.(check bool) "contains both" true
    (List.mem "test.aa" names && List.mem "test.zz" names);
  (match Counters.find "test.aa" with
  | Some (Counters.Counter 0) -> ()
  | _ -> Alcotest.fail "find test.aa");
  check (Alcotest.option Alcotest.reject) "find unknown" None
    (Counters.find "test.does-not-exist")

let test_reset_keeps_handles () =
  fresh ();
  let c = Counters.counter "test.reset" in
  let d = Counters.dist "test.reset.d" in
  Counters.add c 7;
  Counters.observe d 1;
  Counters.reset ();
  check Alcotest.int "counter zeroed" 0 (Counters.value c);
  check Alcotest.int "dist zeroed" 0 (Counters.dist_stats d).Counters.count;
  Counters.incr c;
  check Alcotest.int "handle still live" 1 (Counters.value c)

let test_counters_json_valid () =
  fresh ();
  let c = Counters.counter "test.json" in
  Counters.add c 3;
  Counters.observe (Counters.dist "test.json.d") 5;
  let json = Isched_obs.Json.to_string (Counters.to_value ()) in
  try Json.parse json with Failure m -> Alcotest.failf "to_json not valid JSON: %s" m

let test_counters_json_escapes_names () =
  (* Regression: names containing quotes, backslashes or control
     characters used to be emitted raw, breaking the whole document. *)
  fresh ();
  Counters.add (Counters.counter {|test.tricky "quoted"\name|}) 1;
  Counters.observe (Counters.dist "test.tricky\tdist\n") 2;
  let json = Isched_obs.Json.to_string (Counters.to_value ()) in
  (try Json.parse json with Failure m -> Alcotest.failf "escaped names broke JSON: %s" m);
  Alcotest.(check bool) "quote escaped" true (contains {|\"quoted\"|} json)

let test_counters_json_has_buckets () =
  (* Regression: distributions exported only count/sum/min/max — the
     buckets (the whole point of a distribution) were dropped. *)
  fresh ();
  let d = Counters.dist "test.bucketed" in
  List.iter (Counters.observe d) [ 3; 3; -2; 100 ];
  let json = Isched_obs.Json.to_string (Counters.to_value ()) in
  (try Json.parse json with Failure m -> Alcotest.failf "not valid JSON: %s" m);
  Alcotest.(check bool) "buckets key present" true (contains "\"buckets\"" json);
  Alcotest.(check bool) "exact bucket" true (contains "[3, 2]" json);
  Alcotest.(check bool) "negative bucket" true (contains "[-1, 1]" json);
  Alcotest.(check bool) "bucket bound above 63" true (contains "[111, 1]" json)

(* --- domain safety --- *)

let test_domain_safety () =
  fresh ();
  Span.set_enabled true;
  let c = Counters.counter "test.domains" in
  let d = Counters.dist "test.domains.d" in
  let per_domain = 5_000 in
  let work () =
    for i = 1 to per_domain do
      Counters.incr c;
      Counters.observe d (i mod 7);
      if i mod 1000 = 0 then ignore (Span.with_ ~name:"test.domain-span" Fun.id)
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join domains;
  Span.set_enabled false;
  check Alcotest.int "no lost increments" (5 * per_domain) (Counters.value c);
  let s = Counters.dist_stats d in
  check Alcotest.int "no lost observations" (5 * per_domain) s.Counters.count;
  check Alcotest.int "all spans recorded" (5 * (per_domain / 1000))
    (List.length (Span.events ()));
  try Json.parse (Span.export_json ())
  with Failure m -> Alcotest.failf "concurrent export not valid JSON: %s" m

let test_sharded_merge_across_domains () =
  fresh ();
  (* The counters keep per-domain shards and merge them at read time;
     after eight writer domains join, the merged view must equal the
     shard sum exactly — lost updates or a shard skipped by the merge
     would show up as a shortfall here. *)
  let c = Counters.counter "test.shards" in
  let d = Counters.dist "test.shards.d" in
  let per_domain = 10_000 in
  let work () =
    for i = 1 to per_domain do
      Counters.incr c;
      Counters.observe d (i mod 10)
    done
  in
  let domains = Array.init 8 (fun _ -> Domain.spawn work) in
  Array.iter Domain.join domains;
  check Alcotest.int "value equals the shard sum" (8 * per_domain) (Counters.value c);
  let s = Counters.dist_stats d in
  check Alcotest.int "count merged over all shards" (8 * per_domain) s.Counters.count;
  (* Each domain observes [i mod 10] for i in 1..10_000: 1000 full
     cycles of 0..9, so per-domain sum is 45_000. *)
  check Alcotest.int "sum merged" (8 * 45_000) s.Counters.sum;
  check Alcotest.int "min merged" 0 s.Counters.min_v;
  check Alcotest.int "max merged" 9 s.Counters.max_v;
  check Alcotest.int "bucket counts merged" (8 * per_domain)
    (List.fold_left (fun a (_, n) -> a + n) 0 s.Counters.buckets)

(* --- Prometheus exposition --- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_prometheus_exposition () =
  fresh ();
  let c = Counters.counter "test.prom.c" in
  let d = Counters.dist "test.prom.d" in
  Counters.add c 7;
  List.iter (Counters.observe d) [ -5; 0; 3; 70 ];
  Alcotest.(check string)
    "name mangling" "isched_serve_cache_hit"
    (Counters.prometheus_name "serve.cache.hit");
  let out = Counters.render_prometheus () in
  Alcotest.(check bool) "counter block" true
    (contains ~needle:"# TYPE isched_test_prom_c counter\nisched_test_prom_c 7\n" out);
  (* Cumulative buckets at their upper bounds: negatives under le="-1",
     exact values below 64, 70 under its bucket's bound 79; sum =
     -5+0+3+70. *)
  let expected_hist =
    "# TYPE isched_test_prom_d histogram\n\
     isched_test_prom_d_bucket{le=\"-1\"} 1\n\
     isched_test_prom_d_bucket{le=\"0\"} 2\n\
     isched_test_prom_d_bucket{le=\"3\"} 3\n\
     isched_test_prom_d_bucket{le=\"79\"} 4\n\
     isched_test_prom_d_bucket{le=\"+Inf\"} 4\n\
     isched_test_prom_d_sum 68\n\
     isched_test_prom_d_count 4\n"
  in
  Alcotest.(check bool) "histogram block" true (contains ~needle:expected_hist out);
  (* Samples >= 64 only: their le lines are ascending in le, their
     counts cumulative, and +Inf equals _count. *)
  List.iter
    (Counters.observe (Counters.dist "test.prom.big"))
    [ 64; 70; 100; 1_000; 1 lsl 40; 1 lsl 40 ];
  let out = Counters.render_prometheus () in
  let series =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           Scanf.sscanf_opt l "isched_test_prom_big_bucket{le=%S} %d" (fun le c -> (le, c)))
  in
  let finite = List.filter (fun (le, _) -> le <> "+Inf") series in
  let les = List.map (fun (le, _) -> int_of_string le) finite in
  let counts = List.map snd series in
  Alcotest.(check (list int))
    "le lines at the bucket bounds" [ 79; 111; 1023; 1_374_389_534_719 ] les;
  Alcotest.(check (list int)) "cumulative counts" [ 2; 3; 4; 6; 6 ] counts;
  Alcotest.(check bool) "le ascending" true (List.sort compare les = les);
  Alcotest.(check bool) "counts non-decreasing" true (List.sort compare counts = counts);
  Alcotest.(check bool) "+Inf equals _count" true
    (List.assoc_opt "+Inf" series = Some 6 && contains ~needle:"isched_test_prom_big_count 6\n" out)

(* The satellite fix: renders must be deterministic whatever order the
   8-way shard merge (and concurrent registration) produced — pinned by
   hammering from 8 domains and diffing two renders byte for byte. *)
let test_render_deterministic_after_hammer () =
  fresh ();
  let per_domain = 2_000 in
  let work d () =
    (* Each domain registers its own metrics (registration order is
       racy by construction) and hammers a shared one. *)
    let own = Counters.counter (Printf.sprintf "test.render.domain%d" d) in
    let shared = Counters.dist "test.render.shared" in
    for i = 1 to per_domain do
      Counters.incr own;
      Counters.observe shared (i mod 80);
      (* Renders taken mid-hammer must not crash and stay sorted. *)
      if i mod 500 = 0 then ignore (Counters.render_prometheus ())
    done
  in
  let domains = Array.init 8 (fun d -> Domain.spawn (work d)) in
  Array.iter Domain.join domains;
  Alcotest.(check string) "two renders identical" (Counters.render ()) (Counters.render ());
  Alcotest.(check string) "two expositions identical" (Counters.render_prometheus ())
    (Counters.render_prometheus ());
  let names = List.map fst (Counters.snapshot ()) in
  Alcotest.(check bool) "snapshot byte-lexicographically sorted" true
    (List.sort String.compare names = names)

(* --- Hist: the shared bucket scheme --- *)

module Hist = Isched_obs.Hist

let qtest ?(count = 500) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Samples over every magnitude: small signed values, the exact/log
   boundary, values around powers of two, and the full int range. *)
let gen_sample =
  QCheck2.Gen.(
    oneof
      [
        int_range (-100) 200;
        map2 (fun k d -> (1 lsl k) + d) (int_range 0 61) (int_range (-2) 2);
        int;
        oneofl [ max_int; min_int; 63; 64 ];
      ])

let within_bound v u = u >= v && float_of_int u <= (1.25 *. float_of_int v) +. 1.

let test_hist_bucket_law =
  qtest "hist: bucket bounds cover v within 25%, monotone, exact below 64"
    QCheck2.Gen.(pair gen_sample gen_sample)
    (fun (a, b) ->
      let law v =
        let i = Hist.index v in
        i >= 0 && i < Hist.n_buckets
        && if v < 0 then i = 0 else within_bound v (Hist.upper i) && (v >= 64 || Hist.upper i = v)
      in
      law a && law b && (a > b || Hist.index a <= Hist.index b))

let test_hist_edges () =
  check Alcotest.int "max_int in the last bucket" (Hist.n_buckets - 1) (Hist.index max_int);
  check Alcotest.int "last bound is max_int" max_int (Hist.upper (Hist.n_buckets - 1));
  check Alcotest.int "min_int in the sign bucket" 0 (Hist.index min_int);
  for i = 0 to Hist.n_buckets - 1 do
    if Hist.index (Hist.upper i) <> i then Alcotest.failf "bound of bucket %d is not in it" i
  done;
  check Alcotest.int "empty quantile" 0 (Hist.quantile (Array.make Hist.n_buckets 0) 0.5)

(* The reference: the nearest-rank order statistic of a sorted array. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  sorted.(max 1 (int_of_float (ceil (p *. float_of_int n))) - 1)

let test_hist_quantile_law =
  qtest "hist: quantile within 25% of the nearest-rank reference"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 300) (oneof [ int_range 0 200; int_range 0 1_000_000_000 ]))
        (oneof [ oneofl [ 0.5; 0.99; 0.999; 1. ]; float_range 0.001 1. ]))
    (fun (samples, p) ->
      let counts = Array.make Hist.n_buckets 0 in
      List.iter (fun v -> counts.(Hist.index v) <- counts.(Hist.index v) + 1) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      within_bound (nearest_rank sorted p) (Hist.quantile counts p))

(* --- Rolling: sliding-window histograms --- *)

module Rolling = Isched_obs.Rolling

let rstats r now = Rolling.stats r ~now_ns:now

let test_rolling_rotation_deterministic () =
  (* Injected clock, 4 buckets of 1000 ns: advancing [now] by one epoch
     must drop exactly the one expired bucket, nothing else. *)
  let r = Rolling.create ~buckets:4 ~width_ns:1_000 () in
  let fill epoch count =
    for _ = 1 to count do
      Rolling.observe r ~now_ns:((epoch * 1_000) + 500) ~latency_ns:10 ~flagged:false
    done
  in
  fill 0 10;
  fill 1 20;
  fill 2 30;
  fill 3 40;
  check Alcotest.int "all four buckets live" 100 (rstats r 3_500).Rolling.count;
  check Alcotest.int "epoch 0 expired exactly" 90 (rstats r 4_500).Rolling.count;
  check Alcotest.int "epoch 1 expired exactly" 70 (rstats r 5_500).Rolling.count;
  check Alcotest.int "epoch 2 expired exactly" 40 (rstats r 6_500).Rolling.count;
  check Alcotest.int "everything expired" 0 (rstats r 7_500).Rolling.count;
  (* A new observation recycles the oldest slot without touching the
     still-live buckets. *)
  fill 4 5;
  check Alcotest.int "recycled slot joins live window" 95 (rstats r 4_500).Rolling.count;
  (* An observation older than every live bucket is dropped, not
     smeared into a newer one. *)
  Rolling.observe r ~now_ns:500 ~latency_ns:10 ~flagged:false;
  check Alcotest.int "stale observation dropped" 95 (rstats r 4_500).Rolling.count;
  Rolling.reset r;
  check Alcotest.int "reset empties the window" 0 (rstats r 4_500).Rolling.count

let test_rolling_quantiles_and_rate () =
  let r = Rolling.create () in
  (* Default 60 x 1 s window; all samples in one bucket, now half a
     second past the bucket start, so the covered span is exactly
     0.5 s. *)
  let base = 5_000_000_000 in
  let now = base + 500_000_000 in
  for v = 1 to 100 do
    Rolling.observe r ~now_ns:now ~latency_ns:v ~flagged:(v mod 4 = 0)
  done;
  let s = rstats r now in
  check Alcotest.int "count" 100 s.Rolling.count;
  check Alcotest.int "flagged" 25 s.Rolling.flagged;
  check (Alcotest.float 1e-9) "flagged ratio" 0.25 s.Rolling.flagged_ratio;
  check (Alcotest.float 1e-6) "rate over the covered span" 200. s.Rolling.rate;
  (* Bucketed quantiles report the covering bucket's upper bound: at
     least the true value, at most 25% above it (plus 1 for the
     smallest buckets). *)
  let within name truth got =
    if got < truth || float_of_int got > (float_of_int truth *. 1.25) +. 1. then
      Alcotest.failf "%s: true %d reported %d (outside [v, 1.25v+1])" name truth got
  in
  within "p50" 50 s.Rolling.p50_ns;
  within "p99" 99 s.Rolling.p99_ns;
  within "p999" 100 s.Rolling.p999_ns;
  (* Exact region: latencies below 64 ns have one bucket per value. *)
  let r2 = Rolling.create () in
  for v = 1 to 10 do
    Rolling.observe r2 ~now_ns:now ~latency_ns:v ~flagged:false
  done;
  check Alcotest.int "exact p50 below 16" 5 (rstats r2 now).Rolling.p50_ns;
  (* Renderer smoke: gauge lines with TYPE headers. *)
  let out = Rolling.render_prometheus ~name:"isched_test_window" r ~now_ns:now in
  Alcotest.(check bool) "p99 gauge present" true
    (contains ~needle:"# TYPE isched_test_window_p99_seconds gauge\n" out);
  Alcotest.(check bool) "count gauge present" true
    (contains ~needle:"isched_test_window_count 100\n" out)

(* --- Reqlog: the bounded request-trace ring --- *)

module Reqlog = Isched_obs.Reqlog
module Ojson = Isched_obs.Json

let mk_entry ?(total_ns = 1_000) ?(error = None) id =
  {
    Reqlog.id;
    start_ns = 1_000_000 + id;
    stage_ns = Array.make Reqlog.n_stages 0;
    total_ns;
    verdict = (if id mod 2 = 0 then Reqlog.Hit else Reqlog.Miss);
    digest = id * 17;
    scheduler = "new";
    sync_elim = false;
    error;
  }

let test_reqlog_hammer_no_dup_no_loss () =
  Counters.set_enabled true;
  Reqlog.reset ();
  Reqlog.set_capacity 256;
  Reqlog.set_slow_capacity 64;
  Reqlog.set_slow_threshold_ns 0;
  (* 8 domains drawing ids from one shared counter, 512 ids into a
     256-slot ring at capacity: every retained id distinct and in
     range, the ring exactly full, nothing torn. *)
  let next = Atomic.make 0 in
  let work () =
    for _ = 1 to 64 do
      Reqlog.record (mk_entry (Atomic.fetch_and_add next 1))
    done
  in
  let domains = Array.init 8 (fun _ -> Domain.spawn work) in
  Array.iter Domain.join domains;
  check Alcotest.int "all accepted" 512 (Reqlog.recorded ());
  let entries = Reqlog.recent () in
  check Alcotest.int "ring exactly at capacity" 256 (List.length entries);
  let ids = List.map (fun e -> e.Reqlog.id) entries in
  let distinct = List.sort_uniq Int.compare ids in
  check Alcotest.int "no id duplicated" (List.length ids) (List.length distinct);
  List.iter
    (fun id -> if id < 0 || id >= 512 then Alcotest.failf "id %d out of range" id)
    ids;
  (* Newest first, and the limit is honoured. *)
  let top8 = Reqlog.recent ~limit:8 () in
  check Alcotest.int "limit honoured" 8 (List.length top8);
  Alcotest.(check bool) "newest first" true
    (List.sort (fun a b -> Int.compare b a) ids = ids);
  (* Threshold 0 promoted everything: the slow ring is full and
     distinct too. *)
  let slow = Reqlog.slow () in
  check Alcotest.int "slow ring at capacity" 64 (List.length slow);
  let sids = List.map (fun e -> e.Reqlog.id) slow in
  check Alcotest.int "slow ids distinct" (List.length sids)
    (List.length (List.sort_uniq Int.compare sids));
  Reqlog.set_slow_threshold_ns 100_000_000;
  Reqlog.set_capacity 1024;
  Reqlog.reset ()

let test_reqlog_slow_threshold () =
  Counters.set_enabled true;
  Reqlog.reset ();
  Reqlog.set_slow_threshold_ns 5_000;
  Reqlog.record (mk_entry ~total_ns:4_999 0);
  Reqlog.record (mk_entry ~total_ns:5_000 1);
  Reqlog.record (mk_entry ~total_ns:50_000 2);
  check Alcotest.int "all in the main ring" 3 (List.length (Reqlog.recent ()));
  check Alcotest.int "only >= threshold promoted" 2 (List.length (Reqlog.slow ()));
  Reqlog.set_slow_threshold_ns 100_000_000;
  Reqlog.reset ()

let test_reqlog_disabled_is_inert () =
  Reqlog.reset ();
  Counters.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Counters.set_enabled true)
    (fun () ->
      for i = 0 to 9 do
        Reqlog.record (mk_entry i)
      done);
  check Alcotest.int "nothing accepted while disabled" 0 (Reqlog.recorded ());
  check Alcotest.int "ring untouched" 0 (List.length (Reqlog.recent ()))

let test_reqlog_entry_json () =
  let e = { (mk_entry 42) with Reqlog.error = None } in
  let v =
    match Ojson.parse (Reqlog.entry_json e) with
    | Ok v -> v
    | Error m -> Alcotest.failf "entry_json not valid JSON: %s" m
  in
  let f k = Option.bind (Ojson.member k v) Ojson.to_float in
  check (Alcotest.option (Alcotest.float 0.)) "id" (Some 42.) (f "id");
  check
    (Alcotest.option (Alcotest.float 0.))
    "start_ms is epoch milliseconds" (Some 1.) (f "start_ms");
  Alcotest.(check bool) "stages object keyed by stage names" true
    (match Option.bind (Ojson.member "stages" v) (Ojson.member "cache_probe") with
    | Some _ -> true
    | None -> false);
  Alcotest.(check bool) "error omitted when None" true (Ojson.member "error" v = None);
  let e' = { e with Reqlog.error = Some "internal" } in
  Alcotest.(check bool) "error present when set" true
    (match Ojson.parse (Reqlog.entry_json e') with
    | Ok v' -> Option.bind (Ojson.member "error" v') Ojson.to_str = Some "internal"
    | Error _ -> false)

(* A batch tallied locally and merged with [observe_counts] reads
   exactly like one [observe] per sample, on top of earlier samples. *)
let test_observe_counts_law =
  qtest "counters: observe_counts equals one observe per sample"
    QCheck2.Gen.(pair (list gen_sample) (list (int_bound 99)))
    (fun (before, batch) ->
      fresh ();
      let one = Counters.dist "test.many.one" and many = Counters.dist "test.many.batch" in
      List.iter (fun v -> Counters.observe one v; Counters.observe many v) before;
      List.iter (Counters.observe one) batch;
      let counts = Array.make 100 0 in
      List.iter (fun v -> counts.(v) <- counts.(v) + 1) batch;
      Counters.observe_counts many counts;
      Counters.dist_stats one = Counters.dist_stats many)

let suite =
  [
    Alcotest.test_case "span: disabled records nothing" `Quick test_span_disabled_records_nothing;
    Alcotest.test_case "span: records nested spans with args" `Quick test_span_records_when_enabled;
    Alcotest.test_case "span: recorded despite exceptions" `Quick test_span_survives_exception;
    Alcotest.test_case "span: export is valid trace_event JSON" `Quick test_span_export_is_valid_json;
    Alcotest.test_case "span: reset drops events" `Quick test_span_reset;
    Alcotest.test_case "span: reset restarts the epoch" `Quick test_span_reset_restarts_epoch;
    Alcotest.test_case "span: log is bounded, drops counted" `Quick test_span_log_bounded;
    Alcotest.test_case "counters: incr/add/value and handle identity" `Quick test_counter_basics;
    Alcotest.test_case "counters: disabled means no-op" `Quick test_counter_disabled;
    Alcotest.test_case "counters: distribution stats and buckets" `Quick test_dist_stats;
    Alcotest.test_case "counters: name/kind conflicts rejected" `Quick test_registry_kind_conflict;
    Alcotest.test_case "counters: snapshot sorted, find works" `Quick test_snapshot_sorted_and_complete;
    Alcotest.test_case "counters: reset keeps handles valid" `Quick test_reset_keeps_handles;
    Alcotest.test_case "counters: to_json is valid JSON" `Quick test_counters_json_valid;
    Alcotest.test_case "counters: to_json escapes hostile names" `Quick
      test_counters_json_escapes_names;
    Alcotest.test_case "counters: to_json carries the buckets" `Quick
      test_counters_json_has_buckets;
    Alcotest.test_case "obs: counters and spans are domain-safe" `Quick test_domain_safety;
    Alcotest.test_case "counters: sharded value merges across 8 domains" `Quick
      test_sharded_merge_across_domains;
    Alcotest.test_case "counters: Prometheus exposition format" `Quick test_prometheus_exposition;
    Alcotest.test_case "counters: renders deterministic after 8-domain hammer" `Quick
      test_render_deterministic_after_hammer;
    Alcotest.test_case "rolling: deterministic-clock window rotation" `Quick
      test_rolling_rotation_deterministic;
    Alcotest.test_case "rolling: quantiles, flagged ratio and rate" `Quick
      test_rolling_quantiles_and_rate;
    Alcotest.test_case "reqlog: 8-domain hammer, no duplicate or lost ids" `Quick
      test_reqlog_hammer_no_dup_no_loss;
    Alcotest.test_case "reqlog: slow threshold promotes exactly at the bound" `Quick
      test_reqlog_slow_threshold;
    Alcotest.test_case "reqlog: disabled counters make record inert" `Quick
      test_reqlog_disabled_is_inert;
    Alcotest.test_case "reqlog: entry JSON schema" `Quick test_reqlog_entry_json;
    test_hist_bucket_law;
    Alcotest.test_case "hist: bucket edges" `Quick test_hist_edges;
    test_hist_quantile_law;
    test_observe_counts_law;
  ]
