(* The scheduling service: wire-protocol round-trips, framing under
   hostile inputs, the striped LRU schedule cache (eviction order,
   exactly-once compute under concurrency), served-response-equals-
   fresh-pipeline over the whole corpus, the --validate corrupted-entry
   injection, bounded-queue backpressure, and an end-to-end socket
   session with graceful drain. *)

module Protocol = Isched_serve.Protocol
module Cache = Isched_util.Cache
module Server = Isched_serve.Server
module Client = Isched_serve.Client
module Json = Isched_obs.Json
module Counters = Isched_obs.Counters
module Reqlog = Isched_obs.Reqlog
module Suite = Isched_perfect.Suite
module Ast = Isched_frontend.Ast
module Machine = Isched_ir.Machine
module Schedule = Isched_core.Schedule
module Lbd_model = Isched_core.Lbd_model
module Pipeline = Isched_harness.Pipeline

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* --- generators --- *)

let gen_small_string = QCheck2.Gen.(string_size ~gen:printable (int_range 0 24))

let gen_scheduler = QCheck2.Gen.oneofl Pipeline.all_schedulers

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.Stats;
        return Protocol.Metrics;
        (let* text = bool in
         let* s = gen_small_string in
         let* scheduler = gen_scheduler in
         let* issue = int_range 1 16 in
         let* nfu = int_range 1 4 in
         let* n_iters = opt (int_range 1 10_000) in
         let* sync_elim = opt bool in
         let* explain = bool in
         let source = if text then Protocol.Text s else Protocol.Corpus_loop s in
         return (Protocol.Schedule { source; scheduler; issue; nfu; n_iters; sync_elim; explain }));
      ])

(* Arbitrary JSON whose numbers are integral: that is all the protocol
   ever emits, and it keeps print-parse-print byte-stable. *)
let gen_json =
  QCheck2.Gen.(
    sized_size (int_range 0 3) (fix (fun self n ->
        let leaf =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Num (float_of_int i)) (int_range (-1000) 1000);
              map (fun s -> Json.Str s) gen_small_string;
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun vs -> Json.Arr vs) (list_size (int_range 0 3) (self (n - 1)));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 3) (pair gen_small_string (self (n - 1))));
            ])))

let gen_loop_reply =
  QCheck2.Gen.(
    let* loop_name = gen_small_string in
    let* doall = bool in
    let* cycles_per_iteration = int_range 0 1000 in
    let* lbd_pairs = int_range 0 100 in
    let* parallel_time = int_range 0 100_000 in
    let* analytic_time = int_range 0 100_000 in
    let* rows =
      array_size (int_range 0 6) (array_size (int_range 0 4) (int_range 0 64))
    in
    let* explain_payload = opt gen_json in
    return
      {
        Protocol.loop_name;
        doall;
        cycles_per_iteration;
        lbd_pairs;
        parallel_time;
        analytic_time;
        rows;
        explain_payload;
      })

let gen_error_code =
  QCheck2.Gen.oneofl
    [
      Protocol.Oversized_frame; Protocol.Malformed_frame; Protocol.Bad_request;
      Protocol.Source_error; Protocol.Unknown_loop; Protocol.Overloaded;
      Protocol.Invalid_schedule; Protocol.Internal;
    ]

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Pong;
        map (fun v -> Protocol.Stats_reply v) gen_json;
        map (fun s -> Protocol.Metrics_reply s) gen_small_string;
        (let* cache_hit = bool in
         let* loops = list_size (int_range 0 3) gen_loop_reply in
         return (Protocol.Scheduled { cache_hit; loops }));
        (let* code = gen_error_code in
         let* message = gen_small_string in
         return (Protocol.Error { code; message }));
      ])

(* --- protocol round-trip properties --- *)

let prop_request_roundtrip =
  qtest "protocol: encode o decode o encode is the identity on requests" gen_request (fun r ->
      let e = Protocol.encode_request r in
      match Protocol.decode_request e with
      | Ok r' -> String.equal (Protocol.encode_request r') e
      | Error _ -> false)

let prop_response_roundtrip =
  qtest "protocol: encode o decode o encode is the identity on responses" gen_response
    (fun r ->
      let e = Protocol.encode_response r in
      match Protocol.decode_response e with
      | Ok r' -> String.equal (Protocol.encode_response r') e
      | Error _ -> false)

let prop_decode_total =
  qtest "protocol: decoding arbitrary bytes never raises"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 64))
    (fun s ->
      (match Protocol.decode_request s with Ok _ -> true | Error _ -> true)
      && match Protocol.decode_response s with Ok _ -> true | Error _ -> true)

let prop_scheduled_fast_path =
  qtest "protocol: encode_scheduled matches encode_response byte for byte"
    QCheck2.Gen.(pair bool (list_size (int_range 0 3) gen_loop_reply))
    (fun (cache_hit, loops) ->
      let reference = Protocol.encode_response (Protocol.Scheduled { cache_hit; loops }) in
      let fast =
        Protocol.encode_scheduled ~cache_hit (List.map Protocol.render_loop_reply loops)
      in
      String.equal reference fast)

(* --- framing over a socketpair --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let header_bytes len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let read_result_name = function
  | Protocol.Frame _ -> "frame"
  | Protocol.Eof -> "eof"
  | Protocol.Truncated -> "truncated"
  | Protocol.Oversized _ -> "oversized"
  | Protocol.Stopped -> "stopped"

let check_read name expected got =
  Alcotest.(check string) name expected (read_result_name got)

let test_framing_roundtrip () =
  with_socketpair (fun a b ->
      Protocol.write_frame a "hello";
      (match Protocol.read_frame b with
      | Protocol.Frame p -> Alcotest.(check string) "payload" "hello" p
      | other -> Alcotest.failf "expected frame, got %s" (read_result_name other));
      (* Two frames back to back through a buffered reader. *)
      Protocol.write_frame a "one";
      Protocol.write_frame a "two";
      let r = Protocol.reader b in
      (match Protocol.read_frame_buffered r with
      | Protocol.Frame p -> Alcotest.(check string) "first" "one" p
      | other -> Alcotest.failf "expected frame, got %s" (read_result_name other));
      match Protocol.read_frame_buffered r with
      | Protocol.Frame p -> Alcotest.(check string) "second" "two" p
      | other -> Alcotest.failf "expected frame, got %s" (read_result_name other))

let test_framing_eof () =
  with_socketpair (fun a b ->
      Unix.close a;
      check_read "clean close" "eof" (Protocol.read_frame b))

let test_framing_truncated_header () =
  with_socketpair (fun a b ->
      write_all a "\000\000";
      Unix.close a;
      check_read "partial header" "truncated" (Protocol.read_frame b))

let test_framing_truncated_payload () =
  with_socketpair (fun a b ->
      write_all a (header_bytes 100);
      write_all a "only ten b";
      Unix.close a;
      check_read "partial payload" "truncated" (Protocol.read_frame b))

let test_framing_oversized () =
  with_socketpair (fun a b ->
      write_all a (header_bytes (Protocol.max_frame + 1));
      match Protocol.read_frame b with
      | Protocol.Oversized n -> Alcotest.(check int) "declared length" (Protocol.max_frame + 1) n
      | other -> Alcotest.failf "expected oversized, got %s" (read_result_name other))

let test_framing_negative_length () =
  with_socketpair (fun a b ->
      write_all a "\255\255\255\255";
      check_read "negative length" "oversized" (Protocol.read_frame b))

let test_framing_stop () =
  with_socketpair (fun _a b ->
      (* Nothing ever arrives; a raised stop flag must end the wait. *)
      let deadline = Unix.gettimeofday () +. 0.5 in
      let stop () = Unix.gettimeofday () > deadline in
      check_read "stop flag" "stopped" (Protocol.read_frame ~stop b))

(* --- the striped LRU cache --- *)

let int_cache ~stripes ~capacity =
  Cache.create ~stripes ~capacity ~hash:Hashtbl.hash ~equal:Int.equal ()

let test_cache_hit_miss () =
  let c = int_cache ~stripes:1 ~capacity:4 in
  let v, hit = Cache.find_or_compute c 1 (fun () -> "one") in
  Alcotest.(check (pair string bool)) "first is a miss" ("one", false) (v, hit);
  let v, hit = Cache.find_or_compute c 1 (fun () -> Alcotest.fail "recompute") in
  Alcotest.(check (pair string bool)) "second is a hit" ("one", true) (v, hit);
  Alcotest.(check int) "length" 1 (Cache.length c)

let test_cache_failed_compute_not_cached () =
  let c = int_cache ~stripes:1 ~capacity:4 in
  (try ignore (Cache.find_or_compute c 1 (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "placeholder removed" 0 (Cache.length c);
  let v, hit = Cache.find_or_compute c 1 (fun () -> "ok") in
  Alcotest.(check (pair string bool)) "retry computes" ("ok", false) (v, hit)

(* LRU order under a capacity 1..4 sweep: with a single stripe the
   eviction order is exact — least-recently-used out first, where a hit
   refreshes recency. *)
let test_cache_lru_sweep () =
  for cap = 1 to 4 do
    let c = int_cache ~stripes:1 ~capacity:cap in
    for k = 0 to cap - 1 do
      ignore (Cache.find_or_compute c k (fun () -> k))
    done;
    Alcotest.(check int) (Printf.sprintf "cap %d full" cap) cap (Cache.length c);
    (* Refresh key 0, insert one more: the eviction victim must be the
       LRU key (1 when cap > 1, otherwise 0 itself). *)
    ignore (Cache.find_or_compute c 0 (fun () -> Alcotest.fail "should hit"));
    ignore (Cache.find_or_compute c cap (fun () -> cap));
    Alcotest.(check int) (Printf.sprintf "cap %d still full" cap) cap (Cache.length c);
    let victim = if cap = 1 then 0 else 1 in
    Alcotest.(check bool)
      (Printf.sprintf "cap %d evicted LRU key %d" cap victim)
      true
      (Cache.find c victim = None);
    if cap > 1 then
      Alcotest.(check bool)
        (Printf.sprintf "cap %d kept refreshed key 0" cap)
        true
        (Cache.find c 0 = Some 0);
    Alcotest.(check bool)
      (Printf.sprintf "cap %d kept newest key" cap)
      true
      (Cache.find c cap = Some cap);
    (* Eviction proceeds strictly from the LRU end as more keys land. *)
    for k = cap + 1 to cap + 3 do
      ignore (Cache.find_or_compute c k (fun () -> k))
    done;
    Alcotest.(check int) (Printf.sprintf "cap %d bounded" cap) cap (Cache.length c);
    Alcotest.(check bool)
      (Printf.sprintf "cap %d newest survives" cap)
      true
      (Cache.find c (cap + 3) = Some (cap + 3))
  done

(* Exactly-once compute per key: 8 domains hammer the same keys; the
   compute counter per key must end at 1, every caller must observe the
   same value, and concurrent waiters coalesce rather than recompute. *)
let test_cache_exactly_once () =
  let n_keys = 8 in
  let c = int_cache ~stripes:16 ~capacity:64 in
  let computes = Array.init n_keys (fun _ -> Atomic.make 0) in
  let domains =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            for round = 0 to 24 do
              let k = (d + round) mod n_keys in
              let v, _ =
                Cache.find_or_compute c k (fun () ->
                    Atomic.incr computes.(k);
                    (* Widen the race window so waiters really wait. *)
                    Unix.sleepf 0.002;
                    k * 1000)
              in
              if v <> k * 1000 then failwith "wrong value observed"
            done))
  in
  List.iter Domain.join domains;
  Array.iteri
    (fun k n ->
      Alcotest.(check int) (Printf.sprintf "key %d computed exactly once" k) 1 (Atomic.get n))
    computes;
  Alcotest.(check int) "all keys cached" n_keys (Cache.length c)

(* --- corpus enumeration is shared (regression pin) --- *)

let test_suite_enumeration_pinned () =
  let names loops = List.map (fun (l : Ast.loop) -> l.Ast.name) loops in
  let manual =
    List.concat_map (fun (b : Suite.benchmark) -> b.Suite.loops) (Suite.all ())
  in
  Alcotest.(check (list string))
    "all_loops enumerates exactly what Suite.all does"
    (names manual)
    (names (Suite.all_loops ()));
  Alcotest.(check int) "five corpora" 5 (List.length (Suite.profiles ()));
  (* Every enumerated loop is find-able by name and resolves to the
     same structural loop (names are unique across corpora). *)
  List.iter
    (fun (l : Ast.loop) ->
      match Suite.find_loop l.Ast.name with
      | None -> Alcotest.failf "find_loop missed %s" l.Ast.name
      | Some l' ->
        Alcotest.(check int) (l.Ast.name ^ " digest") l.Ast.digest l'.Ast.digest)
    manual

(* --- served response equals the fresh pipeline --- *)

let machine4 = Machine.make ~issue:4 ~nfu:1 ()

type fresh = Doall | Sched of int * int * int * int * int array array

let fresh_answer (l : Ast.loop) =
  let options = Pipeline.default_options in
  match Pipeline.prepare_uncached options l with
  | Pipeline.Doall _ -> Doall
  | Pipeline.Doacross _ as p ->
    let s = Pipeline.schedule p machine4 Pipeline.Sched_new in
    let t = Isched_sim.Timing.run s in
    Sched
      ( s.Schedule.length,
        Lbd_model.n_lbd s,
        t.Isched_sim.Timing.finish,
        Lbd_model.exact_time s,
        s.Schedule.rows )

(* A loop that definitely still carries a dependence after
   restructuring — several tests need a real schedule to exist. *)
let a_doacross_loop =
  lazy
    (List.find
       (fun (l : Ast.loop) ->
         match fresh_answer l with Doall -> false | Sched _ -> true)
       (List.hd (Suite.all ())).Suite.loops)
      .Ast.name

let check_reply_matches name (fresh : fresh) (r : Protocol.loop_reply) =
  Alcotest.(check string) (name ^ " loop name") name r.Protocol.loop_name;
  match fresh with
  | Doall -> Alcotest.(check bool) (name ^ " doall") true r.Protocol.doall
  | Sched (len, lbd, par, analytic, rows) ->
    Alcotest.(check bool) (name ^ " doacross") false r.Protocol.doall;
    Alcotest.(check int) (name ^ " cycles") len r.Protocol.cycles_per_iteration;
    Alcotest.(check int) (name ^ " lbd pairs") lbd r.Protocol.lbd_pairs;
    Alcotest.(check int) (name ^ " parallel time") par r.Protocol.parallel_time;
    Alcotest.(check int) (name ^ " analytic time") analytic r.Protocol.analytic_time;
    Alcotest.(check bool) (name ^ " rows") true (rows = r.Protocol.rows)

(* Every corpus loop, served cold then warm, must equal the fresh
   pipeline's answer — the cache must never change what is served. *)
let test_served_equals_fresh () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  List.iter
    (fun (l : Ast.loop) ->
      let name = l.Ast.name in
      let fresh = fresh_answer l in
      let ask expected_hit =
        match Server.handle server (Protocol.schedule_request (Protocol.Corpus_loop name)) with
        | Protocol.Scheduled { cache_hit; loops = [ r ] } ->
          Alcotest.(check bool) (name ^ " hit flag") expected_hit cache_hit;
          check_reply_matches name fresh r
        | Protocol.Scheduled _ -> Alcotest.failf "%s: expected one loop reply" name
        | Protocol.Error { message; _ } -> Alcotest.failf "%s: error %s" name message
        | _ -> Alcotest.failf "%s: unexpected response" name
      in
      ask false;  (* cold *)
      ask true (* warm *))
    (Suite.all_loops ())

(* The same equivalence for source-text requests: a multi-loop source
   must come back loop by loop, in order. *)
let test_served_text_source () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  let p = List.hd Isched_perfect.Profile.all in
  let src = Suite.signature_sources p in
  (* The server parses text sources under the unit name "request"; the
     replies must use those names and match the fresh pipeline loop by
     loop, in order. *)
  let loops = Isched_frontend.Parser.parse ~name:"request" src in
  List.iter Isched_frontend.Sema.check_exn loops;
  match Server.handle server (Protocol.schedule_request (Protocol.Text src)) with
  | Protocol.Scheduled { loops = replies; _ } ->
    Alcotest.(check int) "reply per loop" (List.length loops) (List.length replies);
    List.iter2
      (fun (l : Ast.loop) r -> check_reply_matches l.Ast.name (fresh_answer l) r)
      loops replies
  | Protocol.Error { message; _ } -> Alcotest.failf "error %s" message
  | _ -> Alcotest.fail "unexpected response"

(* --- error mapping through the handler --- *)

let expect_error name code = function
  | Protocol.Error { code = c; _ } ->
    Alcotest.(check string) name (Protocol.error_code_name code) (Protocol.error_code_name c)
  | _ -> Alcotest.failf "%s: expected an error response" name

let test_handler_errors () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  expect_error "unknown corpus loop" Protocol.Unknown_loop
    (Server.handle server (Protocol.schedule_request (Protocol.Corpus_loop "NOPE.L99")));
  expect_error "unparsable source" Protocol.Source_error
    (Server.handle server (Protocol.schedule_request (Protocol.Text "DOACROSS garbage(((")));
  expect_error "empty source" Protocol.Source_error
    (Server.handle server (Protocol.schedule_request (Protocol.Text "! only a comment\n")));
  expect_error "bad machine" Protocol.Bad_request
    (Server.handle server (Protocol.schedule_request ~issue:0 (Protocol.Corpus_loop "QCD.L1")))

(* Malformed source text keeps its wire bytes: the frontend maps parse,
   lex and semantic failures to one message each. *)
let test_source_error_bytes () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) src expected
        (Protocol.encode_response
           (Server.handle server (Protocol.schedule_request (Protocol.Text src)))))
    [
      ( "DOACROSS I = 1, 10\n A[I] = = 3\nENDDO\n",
        {|{"status": "error", "code": "source_error", "message": "parse error at 2:9: expected an expression, found '='"}|}
      );
      ( "DOACROSS I = 1, 10\n A[I] = B[I] $ 3\nENDDO\n",
        {|{"status": "error", "code": "source_error", "message": "lex error at 2:14: illegal character '$'"}|}
      );
      ( "DOACROSS I = 1, 10\n I = 3\nENDDO\n",
        {|{"status": "error", "code": "source_error", "message": "request.L1: loop variable \"I\" is assigned in the body"}|}
      );
      ( "! only a comment\n",
        {|{"status": "error", "code": "source_error", "message": "source contains no loops"}|} );
    ]

(* A trip count is bounded at both boundaries: in the source, where the
   range is a source error, and as the request's [n_iters] override. *)
let test_trip_count_bound () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  Alcotest.(check string) "source range"
    {|{"status": "error", "code": "source_error", "message": "request.L1: iteration range 1..2000000000 has more than 1000000 iterations"}|}
    (Protocol.encode_response
       (Server.handle server
          (Protocol.schedule_request (Protocol.Text "DOACROSS I = 1, 2000000000\n A[I] = A[I-1]\nENDDO\n"))));
  let request n =
    Printf.sprintf
      {|{"op": "schedule", "corpus_loop": "QCD.L1", "scheduler": "new", "issue": 4, "nfu": 1, "n_iters": %d, "explain": false}|}
      n
  in
  (match Protocol.decode_request (request Isched_frontend.Sema.max_trip_count) with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.failf "n_iters at the bound rejected: %s" m);
  match Protocol.decode_request (request 2_000_000) with
  | Error (code, message) ->
    Alcotest.(check string) "code" "bad_request" (Protocol.error_code_name code);
    Alcotest.(check string) "message" {|"n_iters" must be an integer in 1..1000000|} message
  | Ok _ -> Alcotest.fail "n_iters above the bound accepted"

(* The one scheduler type: the protocol's names are the pipeline's tags,
   which are also the CLI's --scheduler values. *)
let test_scheduler_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Protocol.scheduler_name s ^ " round-trips")
        true
        (Protocol.scheduler_of_name (Protocol.scheduler_name s) = Some s))
    Pipeline.all_schedulers;
  Alcotest.(check (list string))
    "the CLI's --scheduler values" [ "list"; "marker"; "new" ]
    (List.map Protocol.scheduler_name Pipeline.all_schedulers);
  Alcotest.(check bool) "unknown name" true (Protocol.scheduler_of_name "modulo" = None)

(* --- the schedule-cache key covers sync_elim --- *)

(* The guarded scalar reduction reaches codegen with flow, anti and
   output pairs; the sync_elim pass provably removes two of them, so
   the two settings serve different schedules — a shared cache entry
   would be observably wrong, not just stale. *)
let elim_kernel = "DOACROSS I = 1, 50\n IF (E[I] > 0) S = S + Q[I] * C[I]\nENDDO"

let test_cache_key_covers_sync_elim () =
  (* One stripe: every entry shares a list, so key equality alone — not
     a lucky split across stripes — must keep the settings apart. *)
  let server =
    Server.create
      { (Server.default_config ~socket_path:"/tmp/unused.sock") with Server.cache_stripes = 1 }
  in
  let ask ?n_iters ?sync_elim () =
    match
      Server.handle server
        (Protocol.schedule_request ?n_iters ?sync_elim (Protocol.Text elim_kernel))
    with
    | Protocol.Scheduled { cache_hit; loops = [ r ] } -> (cache_hit, r)
    | Protocol.Error { message; _ } -> Alcotest.failf "error: %s" message
    | _ -> Alcotest.fail "expected one scheduled loop"
  in
  let hit_base, base = ask () in
  Alcotest.(check bool) "base request is cold" false hit_base;
  let hit_elim, elim = ask ~sync_elim:true () in
  Alcotest.(check bool) "flipping sync_elim is a MISS, never a stale hit" false hit_elim;
  Alcotest.(check int) "two distinct cache entries" 2 (Server.cache_length server);
  Alcotest.(check bool) "the settings serve different schedules" true
    (base.Protocol.rows <> elim.Protocol.rows);
  let hit_base', base' = ask () in
  let hit_elim', elim' = ask ~sync_elim:true () in
  Alcotest.(check bool) "base entry warm" true hit_base';
  Alcotest.(check bool) "elim entry warm" true hit_elim';
  Alcotest.(check bool) "base entry stable" true (base'.Protocol.rows = base.Protocol.rows);
  Alcotest.(check bool) "elim entry stable" true (elim'.Protocol.rows = elim.Protocol.rows);
  (* The key stores the RESOLVED setting: an explicit [false] and an
     absent member both resolve to the server default and share one
     entry. *)
  let hit_explicit, _ = ask ~sync_elim:false () in
  Alcotest.(check bool) "explicit false hits the resolved-default entry" true hit_explicit;
  Alcotest.(check int) "still two entries" 2 (Server.cache_length server);
  (* A trip-count override is another option of the resolved record:
     its own entry, and an explicit [None] is the default entry. *)
  let hit_iters, iters = ask ~n_iters:7 () in
  Alcotest.(check bool) "an n_iters override is a MISS" false hit_iters;
  Alcotest.(check int) "three distinct cache entries" 3 (Server.cache_length server);
  Alcotest.(check bool) "the override serves a different time" true
    (iters.Protocol.parallel_time <> base.Protocol.parallel_time);
  let hit_iters', _ = ask ~n_iters:7 () in
  Alcotest.(check bool) "override entry warm" true hit_iters';
  let hit_none, none = ask ?n_iters:None () in
  Alcotest.(check bool) "explicit None hits the default entry" true hit_none;
  Alcotest.(check bool) "default entry stable" true (none.Protocol.rows = base.Protocol.rows);
  Alcotest.(check int) "still three entries" 3 (Server.cache_length server)

(* The key's hash picks the stripe, and the benchmark's traced replica
   recomputes it to mirror the daemon's cache: it must stay exactly
   [digest lxor Hashtbl.hash (scheduler, issue, nfu, n_iters,
   sync_elim)] for every option record a request can resolve to. *)
let test_cache_key_hash_pinned () =
  List.iter
    (fun (l : Ast.loop) ->
      List.iter
        (fun scheduler ->
          List.iter
            (fun (_, (m : Machine.t)) ->
              let issue = m.Machine.issue_width and nfu = m.Machine.fu_counts.(0) in
              List.iter
                (fun (n_iters, sync_elim) ->
                  let options = { Pipeline.default_options with n_iters; sync_elim } in
                  Alcotest.(check int)
                    (Printf.sprintf "%s hash" l.Ast.name)
                    (l.Ast.digest lxor Hashtbl.hash (scheduler, issue, nfu, n_iters, sync_elim))
                    (Server.cache_key_hash l ~scheduler ~issue ~nfu options))
                [ (None, false); (None, true); (Some 7, false); (Some 7, true) ])
            Machine.paper_configs)
        [ Protocol.Sched_list; Protocol.Sched_marker; Protocol.Sched_new ])
    (Suite.all_loops ())

(* --- the --validate injection --- *)

let test_validate_catches_corruption () =
  let config =
    { (Server.default_config ~socket_path:"/tmp/unused.sock") with Server.validate = true }
  in
  let server = Server.create config in
  let req = Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop)) in
  (match Server.handle server req with
  | Protocol.Scheduled _ -> ()
  | _ -> Alcotest.fail "fresh compute should validate");
  Alcotest.(check int) "one corrupted entry" 1 (Server.corrupt_cached_schedules server);
  (* The corrupted entry must be reported, never served... *)
  expect_error "corrupt entry is caught" Protocol.Invalid_schedule (Server.handle server req);
  (* ...and evicted, so the next request recomputes and succeeds. *)
  Alcotest.(check int) "corrupt entry evicted" 0 (Server.cache_length server);
  match Server.handle server req with
  | Protocol.Scheduled { cache_hit; _ } ->
    Alcotest.(check bool) "recomputed" false cache_hit
  | _ -> Alcotest.fail "recompute after eviction should succeed"

(* Exactly-once through the server's digest-keyed cache: concurrent
   identical requests must trigger one pipeline compute. *)
let test_server_exactly_once () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  let miss_count () =
    match Counters.find "serve.cache.miss" with
    | Some (Counters.Counter n) -> n
    | _ -> 0
  in
  let before = miss_count () in
  let req = Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop)) in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            match Server.handle server req with
            | Protocol.Scheduled { loops = [ r ]; _ } -> r.Protocol.cycles_per_iteration
            | _ -> -1))
  in
  let answers = List.map Domain.join domains in
  (match answers with
  | a :: rest ->
    Alcotest.(check bool) "no errors" true (a >= 0);
    List.iter (fun b -> Alcotest.(check int) "all domains agree" a b) rest
  | [] -> assert false);
  Alcotest.(check int) "one miss for eight concurrent requests" 1 (miss_count () - before)

(* --- the daemon over a real socket --- *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "isched-test-%d-%s.sock" (Unix.getpid ()) name)

let start_server ?(configure = fun c -> c) name =
  let socket = sock_path name in
  let config = configure (Server.default_config ~socket_path:socket) in
  let server = Server.create config in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () -> Server.run ~on_ready:(fun () -> Atomic.set ready true) server)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (server, d, socket)

let stop_server (server, d, socket) =
  Server.stop server;
  Domain.join d;
  Alcotest.(check bool) "socket removed on drain" false (Sys.file_exists socket)

let test_socket_session () =
  let ((_, _, socket) as s) = start_server "session" in
  Client.with_connection socket (fun c ->
      (match Client.request_exn c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "expected pong");
      (match Client.request_exn c (Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop))) with
      | Protocol.Scheduled { cache_hit; loops = [ r ] } ->
        Alcotest.(check bool) "first is cold" false cache_hit;
        Alcotest.(check bool) "has a schedule" false r.Protocol.doall
      | _ -> Alcotest.fail "expected a scheduled response");
      (match Client.request_exn c (Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop))) with
      | Protocol.Scheduled { cache_hit; _ } -> Alcotest.(check bool) "then warm" true cache_hit
      | _ -> Alcotest.fail "expected a scheduled response");
      (match Client.request_exn c (Protocol.schedule_request ~explain:true (Protocol.Corpus_loop (Lazy.force a_doacross_loop))) with
      | Protocol.Scheduled { loops = [ r ]; _ } ->
        Alcotest.(check bool) "explain payload present" true (r.Protocol.explain_payload <> None)
      | _ -> Alcotest.fail "expected a scheduled response");
      match Client.request_exn c Protocol.Stats with
      | Protocol.Stats_reply v ->
        let requests = Option.bind (Json.member "requests" v) Json.to_float in
        Alcotest.(check bool) "stats counts requests" true (Option.value ~default:0. requests >= 3.)
      | _ -> Alcotest.fail "expected stats");
  stop_server s

(* Hostile frames against a live daemon: structured errors, the
   connection (and daemon) survive what can be survived, and nothing
   hangs. *)
let test_socket_hostile_frames () =
  let ((_, _, socket) as s) = start_server "hostile" in
  (* Malformed payload: a structured error, then the same connection
     keeps working (framing is still aligned). *)
  Client.with_connection socket (fun _c -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let reader = Protocol.reader fd in
  Protocol.write_frame fd "this is not json";
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> (
    match Protocol.decode_response p with
    | Ok r -> expect_error "malformed payload" Protocol.Malformed_frame r
    | Error _ -> Alcotest.fail "undecodable error response")
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  Protocol.write_frame fd "[1, 2, 3]";
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> (
    match Protocol.decode_response p with
    | Ok r -> expect_error "non-object request" Protocol.Bad_request r
    | Error _ -> Alcotest.fail "undecodable error response")
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  Protocol.write_frame fd "{\"op\": \"warp\"}";
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> (
    match Protocol.decode_response p with
    | Ok r -> expect_error "unknown op" Protocol.Bad_request r
    | Error _ -> Alcotest.fail "undecodable error response")
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  (* A malformed pass option — sync_elim must be a boolean — is a
     structured error, never a silently applied default and never a
     dropped connection. *)
  Protocol.write_frame fd
    "{\"op\": \"schedule\", \"source\": \"DOACROSS I = 1, 10\\n A[I] = A[I-1]\\nENDDO\", \
     \"sync_elim\": \"yes\"}";
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> (
    match Protocol.decode_response p with
    | Ok r -> expect_error "non-boolean sync_elim" Protocol.Bad_request r
    | Error _ -> Alcotest.fail "undecodable error response")
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  (* An unknown request member — a misspelled or unsupported pass
     option — is likewise answered, not ignored: a client asking for a
     pass the server does not know must hear about it. *)
  Protocol.write_frame fd
    "{\"op\": \"schedule\", \"source\": \"DOACROSS I = 1, 10\\n A[I] = A[I-1]\\nENDDO\", \
     \"migrate\": true}";
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> (
    match Protocol.decode_response p with
    | Ok r -> expect_error "unknown request member" Protocol.Bad_request r
    | Error _ -> Alcotest.fail "undecodable error response")
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  (* The connection is still usable after five bad requests. *)
  Protocol.write_frame fd (Protocol.encode_request Protocol.Ping);
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> Alcotest.(check bool) "ping after garbage" true
                          (Protocol.decode_response p = Ok Protocol.Pong)
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  (* Oversized length prefix: a structured error, then the server
     closes (stream position is unknowable). *)
  write_all fd (header_bytes (Protocol.max_frame + 17));
  (match Protocol.read_frame_buffered reader with
  | Protocol.Frame p -> (
    match Protocol.decode_response p with
    | Ok r -> expect_error "oversized frame" Protocol.Oversized_frame r
    | Error _ -> Alcotest.fail "undecodable error response")
  | other -> Alcotest.failf "expected a frame, got %s" (read_result_name other));
  check_read "server closed after oversized" "eof" (Protocol.read_frame_buffered reader);
  Unix.close fd;
  (* A truncated frame (peer dies mid-payload) must not wedge the
     daemon: the next connection is served normally. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  write_all fd (header_bytes 100);
  write_all fd "half";
  Unix.close fd;
  Client.with_connection socket (fun c ->
      match Client.request_exn c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "daemon wedged by a truncated frame");
  stop_server s

let test_socket_backpressure () =
  (* queue_capacity 0: every connection beyond what a worker picks up
     instantly is refused with a structured overloaded error. *)
  let ((_, _, socket) as s) =
    start_server "backpressure" ~configure:(fun c -> { c with Server.queue_capacity = 0 })
  in
  (* The refusal is written unprompted on accept, so read it without
     sending anything — sending first races the server's close. *)
  for i = 1 to 5 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    (match Protocol.read_frame fd with
    | Protocol.Frame p -> (
      match Protocol.decode_response p with
      | Ok r -> expect_error (Printf.sprintf "connection %d refused" i) Protocol.Overloaded r
      | Error _ -> Alcotest.fail "undecodable overload response")
    | other -> Alcotest.failf "expected an overload frame, got %s" (read_result_name other));
    check_read "closed after refusal" "eof" (Protocol.read_frame fd);
    Unix.close fd
  done;
  stop_server s

(* A mini-soak: concurrent clients replaying corpus requests against a
   small cache (eviction churn included), zero errors, clean drain. *)
let test_socket_mini_soak () =
  let ((server, _, socket) as s) =
    start_server "soak"
      ~configure:(fun c ->
        (* 4 stripes of 2 so the global bound is exactly 8. *)
        { c with Server.cache_capacity = 8; cache_stripes = 4; workers = 2 })
  in
  let names =
    Array.of_list
      (List.map (fun (l : Ast.loop) -> l.Ast.name) (List.hd (Suite.all ())).Suite.loops)
  in
  let clients = 4 and per_client = 100 in
  let domains =
    List.init clients (fun d ->
        Domain.spawn (fun () ->
            let rng = Isched_util.Prng.create (37 + d) in
            let errors = ref 0 in
            Client.with_connection socket (fun c ->
                for _ = 1 to per_client do
                  let name = names.(Isched_util.Prng.int rng (Array.length names)) in
                  match Client.request c (Protocol.schedule_request (Protocol.Corpus_loop name)) with
                  | Ok (Protocol.Scheduled _) -> ()
                  | Ok _ | Error _ -> incr errors
                done);
            !errors))
  in
  let errors = List.fold_left (fun a d -> a + Domain.join d) 0 domains in
  Alcotest.(check int) "zero errors across the soak" 0 errors;
  Alcotest.(check bool)
    "requests all served"
    true
    (Server.requests_served server >= clients * per_client);
  Alcotest.(check bool) "cache stayed bounded" true (Server.cache_length server <= 8);
  stop_server s

(* --- telemetry: stats shape, metrics verb, request traces --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let mem path v =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some v) path

let num_at path v = Option.bind (mem path v) Json.to_float

(* The extended stats payload: the new members are present and
   consistent, the reply survives encode∘decode∘encode byte-identically,
   and a pre-extension payload (no stripe_entries/queue/workers/window
   members) still decodes and round-trips byte-identically — an old
   daemon's reply must not confuse a new client, nor vice versa. *)
let test_stats_shape_and_compat () =
  let server = Server.create (Server.default_config ~socket_path:"/tmp/unused.sock") in
  (match
     Server.handle server
       (Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop)))
   with
  | Protocol.Scheduled _ -> ()
  | _ -> Alcotest.fail "expected a scheduled response");
  (match Server.handle server Protocol.Stats with
  | Protocol.Stats_reply v ->
    List.iter
      (fun path ->
        Alcotest.(check bool)
          ("stats has " ^ String.concat "." path)
          true
          (mem path v <> None))
      [
        [ "requests" ]; [ "cache"; "entries" ]; [ "cache"; "stripe_entries" ];
        [ "queue"; "capacity" ]; [ "queue"; "depth" ]; [ "queue"; "hwm" ];
        [ "workers"; "total" ]; [ "workers"; "busy" ]; [ "workers"; "utilisation" ];
        [ "window"; "p50_ns" ]; [ "window"; "p99_ns" ]; [ "window"; "rate" ];
        [ "cache_window"; "flagged_ratio" ]; [ "slow"; "threshold_ms" ];
        [ "slow"; "entries" ]; [ "counters" ];
      ];
    (* per-stripe occupancy sums to the cache total *)
    let stripes =
      match Option.bind (mem [ "cache"; "stripe_entries" ] v) Json.to_list with
      | Some l -> List.map (fun x -> int_of_float (Option.get (Json.to_float x))) l
      | None -> Alcotest.fail "stripe_entries is not an array"
    in
    Alcotest.(check int)
      "stripe occupancy sums to cache entries"
      (Server.cache_length server)
      (List.fold_left ( + ) 0 stripes);
    (* the live reply is a wire fixed point *)
    let once = Json.to_string (Protocol.response_to_json (Protocol.Stats_reply v)) in
    (match Protocol.decode_response once with
    | Ok r ->
      Alcotest.(check string)
        "encode∘decode∘encode is the identity"
        once
        (Json.to_string (Protocol.response_to_json r))
    | Error (_, e) -> Alcotest.failf "live stats reply does not decode: %s" e)
  | _ -> Alcotest.fail "expected stats");
  (* a pre-telemetry stats payload still decodes and round-trips *)
  let old =
    "{\"status\": \"ok\", \"op\": \"stats\", \"stats\": {\"requests\": 3, \
     \"cache\": {\"entries\": 1, \"capacity\": 1024}, \"counters\": {}}}"
  in
  match Protocol.decode_response old with
  | Ok r ->
    Alcotest.(check string)
      "old-style stats round-trips byte-identically"
      old
      (Json.to_string (Protocol.response_to_json r))
  | Error (_, e) -> Alcotest.failf "old-style stats payload rejected: %s" e

(* Every non-comment exposition line must be `name[{labels}] value`. *)
let check_exposition_grammar out =
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then ()
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "exposition line has no sample: %s" line
        | Some i -> (
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          match float_of_string_opt v with
          | Some _ -> ()
          | None -> Alcotest.failf "exposition sample is not a number: %s" line))
    (String.split_on_char '\n' out)

let test_metrics_verb () =
  let ((_, _, socket) as s) = start_server "metrics" in
  Client.with_connection socket (fun c ->
      (match
         Client.request_exn c
           (Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop)))
       with
      | Protocol.Scheduled _ -> ()
      | _ -> Alcotest.fail "expected a scheduled response");
      match Client.request_exn c Protocol.Metrics with
      | Protocol.Metrics_reply out ->
        check_exposition_grammar out;
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("exposition has " ^ needle) true (contains ~needle out))
          [
            "# TYPE isched_serve_requests counter";
            "# TYPE isched_serve_window_p99_seconds gauge";
            "# TYPE isched_serve_cache_window_p50_seconds gauge";
            "isched_serve_cache_stripe_entries{stripe=\"0\"}";
            "isched_serve_queue_capacity";
            "isched_serve_workers_total";
          ]
      | _ -> Alcotest.fail "expected a metrics reply");
  stop_server s

(* Request traces through a live daemon: dense distinct ids, correct
   cache verdicts cold/warm, stage times where the work happened, and
   (with --slow-ms 0) promotion to the slow log plus the counter. *)
let test_request_traces () =
  Reqlog.reset ();
  let ((_, _, socket) as s) =
    start_server "traces" ~configure:(fun c -> { c with Server.slow_ms = 0. })
  in
  let slow_before =
    match Counters.find "serve.slow_requests" with Some (Counters.Counter n) -> n | _ -> 0
  in
  Client.with_connection socket (fun c ->
      let req = Protocol.schedule_request (Protocol.Corpus_loop (Lazy.force a_doacross_loop)) in
      (match Client.request_exn c req with
      | Protocol.Scheduled { cache_hit; _ } -> Alcotest.(check bool) "cold" false cache_hit
      | _ -> Alcotest.fail "expected a scheduled response");
      (match Client.request_exn c req with
      | Protocol.Scheduled { cache_hit; _ } -> Alcotest.(check bool) "warm" true cache_hit
      | _ -> Alcotest.fail "expected a scheduled response");
      match Client.request_exn c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "expected pong");
  stop_server s;
  let entries = Reqlog.recent () in
  Alcotest.(check int) "three traces recorded" 3 (List.length entries);
  let ids = List.map (fun e -> e.Reqlog.id) entries in
  Alcotest.(check (list int)) "ids dense and newest-first" [ 2; 1; 0 ] ids;
  (match entries with
  | [ ping; warm; cold ] ->
    Alcotest.(check string) "ping uncached" "uncached" (Reqlog.verdict_name ping.Reqlog.verdict);
    Alcotest.(check string) "warm verdict" "hit" (Reqlog.verdict_name warm.Reqlog.verdict);
    Alcotest.(check string) "cold verdict" "miss" (Reqlog.verdict_name cold.Reqlog.verdict);
    Alcotest.(check string) "scheduler recorded" "new" cold.Reqlog.scheduler;
    Alcotest.(check bool) "digest recorded" true (cold.Reqlog.digest <> 0);
    Alcotest.(check bool)
      "the miss spent time computing"
      true
      (cold.Reqlog.stage_ns.(Reqlog.stage_index Reqlog.Compute) > 0);
    Alcotest.(check int)
      "the hit computed nothing"
      0
      warm.Reqlog.stage_ns.(Reqlog.stage_index Reqlog.Compute);
    Alcotest.(check bool) "total time covers the work" true (cold.Reqlog.total_ns > 0);
    Alcotest.(check bool) "no error on success" true (cold.Reqlog.error = None);
    (* the JSON rendering of a live trace parses back *)
    (match Json.parse (Reqlog.entry_json cold) with
    | Ok v ->
      Alcotest.(check (option (float 0.)))
        "trace json keeps the compute stage"
        (Some (float_of_int cold.Reqlog.stage_ns.(Reqlog.stage_index Reqlog.Compute)))
        (num_at [ "stages"; "compute" ] v)
    | Error e -> Alcotest.failf "trace json does not parse: %s" e)
  | _ -> Alcotest.fail "expected exactly three entries");
  (* --slow-ms 0 promotes everything *)
  Alcotest.(check int) "slow log caught all three" 3 (List.length (Reqlog.slow ()));
  (match Counters.find "serve.slow_requests" with
  | Some (Counters.Counter n) ->
    Alcotest.(check bool) "slow counter advanced" true (n - slow_before >= 3)
  | _ -> Alcotest.fail "serve.slow_requests not registered");
  Reqlog.reset ()

(* With counters disabled the request path records nothing — and still
   answers correctly. *)
let test_telemetry_inert_when_disabled () =
  let ((_, _, socket) as s) = start_server "inert" in
  Reqlog.reset ();
  Counters.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Counters.set_enabled true)
    (fun () ->
      Client.with_connection socket (fun c ->
          (match
             Client.request_exn c
               (Protocol.schedule_request
                  (Protocol.Corpus_loop (Lazy.force a_doacross_loop)))
           with
          | Protocol.Scheduled { loops = [ r ]; _ } ->
            Alcotest.(check bool) "still a real schedule" false r.Protocol.doall
          | _ -> Alcotest.fail "expected a scheduled response");
          match Client.request_exn c Protocol.Ping with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected pong"));
  Alcotest.(check int) "nothing accepted while disabled" 0 (Reqlog.recorded ());
  Alcotest.(check int) "ring is empty" 0 (List.length (Reqlog.recent ()));
  stop_server s

(* --metrics-file: the accept loop dumps a parseable exposition via
   atomic rename. *)
let test_metrics_file_dump () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "isched-test-%d-metrics.prom" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let ((_, _, socket) as s) =
    start_server "metricsfile"
      ~configure:(fun c -> { c with Server.metrics_file = Some path; metrics_interval = 0. })
  in
  Client.with_connection socket (fun c ->
      match Client.request_exn c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "expected pong");
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "metrics file appeared" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  check_exposition_grammar out;
  Alcotest.(check bool)
    "dump starts with a type header"
    true
    (String.length out >= 7 && String.sub out 0 7 = "# TYPE ");
  stop_server s

let suite =
  [
    prop_request_roundtrip;
    prop_response_roundtrip;
    prop_decode_total;
    prop_scheduled_fast_path;
    Alcotest.test_case "framing: round trip, buffered back-to-back" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing: eof" `Quick test_framing_eof;
    Alcotest.test_case "framing: truncated header" `Quick test_framing_truncated_header;
    Alcotest.test_case "framing: truncated payload" `Quick test_framing_truncated_payload;
    Alcotest.test_case "framing: oversized is rejected unread" `Quick test_framing_oversized;
    Alcotest.test_case "framing: negative length" `Quick test_framing_negative_length;
    Alcotest.test_case "framing: stop flag ends the wait" `Quick test_framing_stop;
    Alcotest.test_case "cache: hit/miss basics" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache: failed compute leaves nothing" `Quick
      test_cache_failed_compute_not_cached;
    Alcotest.test_case "cache: exact LRU order, capacity 1..4" `Quick test_cache_lru_sweep;
    Alcotest.test_case "cache: exactly-once compute under 8 domains" `Quick
      test_cache_exactly_once;
    Alcotest.test_case "suite: corpus enumeration is shared and pinned" `Quick
      test_suite_enumeration_pinned;
    Alcotest.test_case "server: served equals fresh pipeline (cold+warm, all loops)" `Slow
      test_served_equals_fresh;
    Alcotest.test_case "server: multi-loop source text" `Quick test_served_text_source;
    Alcotest.test_case "server: error mapping" `Quick test_handler_errors;
    Alcotest.test_case "server: source errors keep their wire bytes" `Quick
      test_source_error_bytes;
    Alcotest.test_case "server: trip counts are bounded at both boundaries" `Quick
      test_trip_count_bound;
    Alcotest.test_case "protocol: scheduler names are the pipeline's tags" `Quick
      test_scheduler_names;
    Alcotest.test_case "server: cache key covers sync_elim" `Quick
      test_cache_key_covers_sync_elim;
    Alcotest.test_case "server: --validate catches a corrupted cache entry" `Quick
      test_validate_catches_corruption;
    Alcotest.test_case "server: exactly-once compute across domains" `Quick
      test_server_exactly_once;
    Alcotest.test_case "daemon: socket session end to end" `Quick test_socket_session;
    Alcotest.test_case "daemon: hostile frames get structured errors" `Quick
      test_socket_hostile_frames;
    Alcotest.test_case "daemon: bounded queue pushes back" `Quick test_socket_backpressure;
    Alcotest.test_case "daemon: mini-soak with eviction churn" `Slow test_socket_mini_soak;
    Alcotest.test_case "stats: extended shape and wire compatibility" `Quick
      test_stats_shape_and_compat;
    Alcotest.test_case "daemon: metrics verb serves a Prometheus exposition" `Quick
      test_metrics_verb;
    Alcotest.test_case "daemon: request traces land in the reqlog" `Quick test_request_traces;
    Alcotest.test_case "daemon: telemetry is inert when counters are disabled" `Quick
      test_telemetry_inert_when_disabled;
    Alcotest.test_case "daemon: --metrics-file dumps atomically" `Quick test_metrics_file_dump;
    Alcotest.test_case "server: cache key hash is pinned" `Quick test_cache_key_hash_pinned;
  ]
