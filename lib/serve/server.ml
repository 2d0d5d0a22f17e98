module Ast = Isched_frontend.Ast
module Parser = Isched_frontend.Parser
module Lexer = Isched_frontend.Lexer
module Sema = Isched_frontend.Sema
module Machine = Isched_ir.Machine
module Schedule = Isched_core.Schedule
module Lbd_model = Isched_core.Lbd_model
module Pipeline = Isched_harness.Pipeline
module Cache = Isched_util.Cache
module Json = Isched_obs.Json
module Counters = Isched_obs.Counters
module Rolling = Isched_obs.Rolling
module Reqlog = Isched_obs.Reqlog

let c_requests = Counters.counter "serve.requests"
let c_errors = Counters.counter "serve.errors"
let c_overloaded = Counters.counter "serve.overloaded"
let c_connections = Counters.counter "serve.connections"
let c_slow = Counters.counter "serve.slow_requests"
let d_queue_depth = Counters.dist "serve.queue_depth"

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  cache_stripes : int;
  validate : bool;
  sync_elim : bool;
  slow_ms : float;
  metrics_file : string option;
  metrics_interval : float;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 4;
    queue_capacity = 64;
    cache_capacity = 1024;
    cache_stripes = 16;
    validate = false;
    sync_elim = false;
    slow_ms = 100.;
    metrics_file = None;
    metrics_interval = 5.;
  }

(* --- the schedule cache --- *)

(* One cache entry per (loop, machine, scheduler, options): [k_options]
   is the RESOLVED record [handle_schedule] hands to [compute_loop], and
   equality compares it whole, so no option can be left out of the key.
   The hash is pinned bit for bit, since the benchmark's traced serve
   replica recomputes it to mirror the stripes.  The loop's digest (see
   Ast.make_loop) pre-filters the structural compare, as in the prepare
   memo's key. *)
type sched_key = {
  k_loop : Ast.loop;
  k_scheduler : Protocol.scheduler;
  k_issue : int;
  k_nfu : int;
  k_options : Pipeline.options;
}

let key_hash k =
  k.k_loop.Ast.digest
  lxor Hashtbl.hash
         (k.k_scheduler, k.k_issue, k.k_nfu, k.k_options.Pipeline.n_iters, k.k_options.sync_elim)

let key_equal a b =
  a.k_scheduler = b.k_scheduler && a.k_issue = b.k_issue && a.k_nfu = b.k_nfu
  && a.k_options = b.k_options
  && (a.k_loop == b.k_loop
     || (a.k_loop.Ast.digest = b.k_loop.Ast.digest && a.k_loop = b.k_loop))

let cache_key_hash l ~scheduler ~issue ~nfu options =
  key_hash
    { k_loop = l; k_scheduler = scheduler; k_issue = issue; k_nfu = nfu; k_options = options }

(* The cached value keeps three forms of the answer: the structured
   reply (for explain requests, which re-attach a payload), its
   canonical rendering (the warm path splices these strings straight
   into the response envelope without rebuilding any JSON), and the
   schedule itself so [--validate] can re-check what is about to be
   served — including an entry that was corrupted after insertion. *)
type cached = {
  reply : Protocol.loop_reply;
  rendered : string;
  schedule : Schedule.t option;
}

type t = {
  config : config;
  cache : (sched_key, cached) Cache.t;
  explain_lock : Mutex.t;
      (* Explain.build records provenance through a process-global ring;
         one explain at a time keeps traces attributable. *)
  requests : int Atomic.t;
  stop_flag : bool Atomic.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  queue : Unix.file_descr Queue.t;
  queue_hwm : int Atomic.t;
  busy_workers : int Atomic.t;
  req_rolling : Rolling.t;  (* per-request latency, flagged = error *)
  cache_rolling : Rolling.t;  (* per-loop probe latency, flagged = miss *)
  last_dump : float Atomic.t;  (* Unix time of the last --metrics-file write *)
}

let create config =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.queue_capacity < 0 then invalid_arg "Server.create: queue_capacity must be >= 0";
  if config.slow_ms < 0. then invalid_arg "Server.create: slow_ms must be >= 0";
  Reqlog.set_slow_threshold_ns (int_of_float (config.slow_ms *. 1e6));
  {
    config;
    cache =
      Cache.create ~name:"serve.cache" ~stripes:config.cache_stripes
        ~capacity:config.cache_capacity ~hash:key_hash ~equal:key_equal ();
    explain_lock = Mutex.create ();
    requests = Atomic.make 0;
    stop_flag = Atomic.make false;
    qlock = Mutex.create ();
    qcond = Condition.create ();
    queue = Queue.create ();
    queue_hwm = Atomic.make 0;
    busy_workers = Atomic.make 0;
    req_rolling = Rolling.create ();
    cache_rolling = Rolling.create ();
    last_dump = Atomic.make 0.;
  }

let config t = t.config

let requests_served t = Atomic.get t.requests

let cache_length t = Cache.length t.cache

let corrupt_cached_schedules t =
  let n = ref 0 in
  Cache.iter t.cache (fun _ c ->
      match c.schedule with
      | None -> ()
      | Some s ->
        incr n;
        Array.fill s.Schedule.cycle_of 0 (Array.length s.Schedule.cycle_of) 0);
  !n

(* --- request tracing --- *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* The per-request trace accumulator, allocated once per traced request
   (only when counters are enabled; the disabled path allocates
   nothing).  Stage durations accumulate so a multi-loop request sums
   its per-loop probe and compute times. *)
type trace = {
  stage_ns : int array;  (* Reqlog.n_stages, Reqlog.stage_index order *)
  mutable tr_verdict : Reqlog.cache_verdict;
  mutable tr_digest : int;
  mutable tr_scheduler : string;
  mutable tr_sync_elim : bool;
  mutable tr_error : string option;
}

let fresh_trace ~read_ns =
  let stage_ns = Array.make Reqlog.n_stages 0 in
  stage_ns.(Reqlog.stage_index Reqlog.Read) <- max read_ns 0;
  {
    stage_ns;
    tr_verdict = Reqlog.Uncached;
    tr_digest = 0;
    tr_scheduler = "";
    tr_sync_elim = false;
    tr_error = None;
  }

let stage_add tr stage ns = tr.stage_ns.(Reqlog.stage_index stage) <- tr.stage_ns.(Reqlog.stage_index stage) + max ns 0

(* The request's latency is decode through socket write: the frame-read
   stage is recorded in the stage vector but excluded from the total,
   because on an idle keep-alive connection it is dominated by waiting
   for the client to speak. *)
let finish_trace t tr ~id ~start_ns ~end_ns =
  let total_ns = max (end_ns - start_ns) 0 in
  Reqlog.record
    {
      Reqlog.id;
      start_ns;
      stage_ns = tr.stage_ns;
      total_ns;
      verdict = tr.tr_verdict;
      digest = tr.tr_digest;
      scheduler = tr.tr_scheduler;
      sync_elim = tr.tr_sync_elim;
      error = tr.tr_error;
    };
  if total_ns >= Reqlog.slow_threshold_ns () then Counters.incr c_slow;
  Rolling.observe t.req_rolling ~now_ns:end_ns ~latency_ns:total_ns
    ~flagged:(Option.is_some tr.tr_error)

(* --- request handling --- *)

let pipeline_scheduler = function
  | Protocol.Sched_list -> Pipeline.List_scheduling
  | Protocol.Sched_marker -> Pipeline.Marker_scheduling
  | Protocol.Sched_new -> Pipeline.New_scheduling

let compute_loop ~options ~machine ~which (l : Ast.loop) : cached =
  let reply, schedule =
    match Pipeline.prepare_uncached options l with
    | Pipeline.Doall _ ->
      ( {
          Protocol.loop_name = l.Ast.name;
          doall = true;
          cycles_per_iteration = 0;
          lbd_pairs = 0;
          parallel_time = 0;
          analytic_time = 0;
          rows = [||];
          explain_payload = None;
        },
        None )
    | Pipeline.Doacross _ as p ->
      let s = Pipeline.schedule ~options p machine which in
      let timing = Isched_sim.Timing.run s in
      ( {
          Protocol.loop_name = l.Ast.name;
          doall = false;
          cycles_per_iteration = s.Schedule.length;
          lbd_pairs = Lbd_model.n_lbd s;
          parallel_time = timing.Isched_sim.Timing.finish;
          analytic_time = Lbd_model.exact_time s;
          rows = s.Schedule.rows;
          explain_payload = None;
        },
        Some s )
  in
  { reply; rendered = Protocol.render_loop_reply reply; schedule }

let resolve_loops source =
  match source with
  | Protocol.Corpus_loop name -> (
    match Isched_perfect.Suite.find_loop name with
    | Some l -> Ok [ l ]
    | None -> Error (Protocol.Unknown_loop, Printf.sprintf "no corpus loop named %S" name))
  | Protocol.Text src -> (
    try
      let loops = Parser.parse ~name:"request" src in
      List.iter Sema.check_exn loops;
      match loops with
      | [] -> Error (Protocol.Source_error, "source contains no loops")
      | _ -> Ok loops
    with
    | Parser.Error { line; col; message } ->
      Error (Protocol.Source_error, Printf.sprintf "parse error at %d:%d: %s" line col message)
    | Lexer.Error { line; col; message } ->
      Error (Protocol.Source_error, Printf.sprintf "lex error at %d:%d: %s" line col message)
    | Invalid_argument m -> Error (Protocol.Source_error, m))

let explain_payload t ~options ~which (l : Ast.loop) machine =
  Mutex.protect t.explain_lock (fun () ->
      match Isched_harness.Explain.build ~options ~which l machine with
      | Error _ -> None
      | Ok ex -> (
        match Json.parse (Isched_harness.Explain.render_json ex) with
        | Ok v -> Some v
        | Error _ -> None))

(* A handler outcome: a structured response, or an already-encoded
   payload (the warm path, which splices cached renderings). *)
type outcome = Response of Protocol.response | Encoded of string

let handle_schedule t ?trace ~source ~scheduler ~issue ~nfu ~n_iters ~sync_elim ~explain () =
  let machine = Machine.make ~issue ~nfu () in
  match Machine.validate machine with
  | exception Invalid_argument m ->
    Response (Protocol.Error { code = Protocol.Bad_request; message = m })
  | () -> (
    match resolve_loops source with
    | Error (code, message) -> Response (Protocol.Error { code; message })
    | Ok loops -> (
      let sync_elim = Option.value sync_elim ~default:t.config.sync_elim in
      let options = { Pipeline.default_options with n_iters; sync_elim } in
      let which = pipeline_scheduler scheduler in
      (match trace with
      | None -> ()
      | Some tr ->
        tr.tr_digest <- (match loops with l :: _ -> l.Ast.digest | [] -> 0);
        tr.tr_scheduler <- Protocol.scheduler_name scheduler;
        tr.tr_sync_elim <- sync_elim);
      let probe l key =
        match trace with
        | None -> Cache.find_or_compute_v t.cache key (fun () -> compute_loop ~options ~machine ~which l)
        | Some tr ->
          (* Probe time is the find_or_compute wall clock minus the
             compute closure's own time; a coalesced waiter's wait
             therefore lands in the probe stage. *)
          let t0 = now_ns () in
          let compute_ns = ref 0 in
          let cached, verdict =
            Cache.find_or_compute_v t.cache key (fun () ->
                let c0 = now_ns () in
                let r = compute_loop ~options ~machine ~which l in
                compute_ns := now_ns () - c0;
                r)
          in
          let t1 = now_ns () in
          stage_add tr Reqlog.Cache_probe (t1 - t0 - !compute_ns);
          stage_add tr Reqlog.Compute !compute_ns;
          Rolling.observe t.cache_rolling ~now_ns:t1 ~latency_ns:(t1 - t0)
            ~flagged:(verdict = `Miss);
          (cached, verdict)
      in
      let served =
        List.map
          (fun (l : Ast.loop) ->
            let key =
              {
                k_loop = l;
                k_scheduler = scheduler;
                k_issue = issue;
                k_nfu = nfu;
                k_options = options;
              }
            in
            let cached, verdict = probe l key in
            (key, l, cached, verdict))
          loops
      in
      (match trace with
      | None -> ()
      | Some tr ->
        tr.tr_verdict <-
          (if List.exists (fun (_, _, _, v) -> v = `Miss) served then Reqlog.Miss
           else if List.exists (fun (_, _, _, v) -> v = `Coalesced) served then Reqlog.Coalesced
           else Reqlog.Hit));
      (* Under --validate every response — cache hit or fresh — is
         re-derived through the independent static analyzer before it
         leaves the process.  A failing entry is evicted (the next
         request recomputes it) and reported, never served. *)
      let t_validate = match trace with Some _ when t.config.validate -> now_ns () | _ -> 0 in
      let invalid =
        if not t.config.validate then None
        else
          List.find_map
            (fun (key, l, c, _) ->
              match c.schedule with
              | None -> None
              | Some s -> (
                match Isched_check.Static.check s with
                | Ok () -> None
                | Error vs ->
                  Cache.remove t.cache key;
                  Some
                    (Printf.sprintf "loop %s: %s" l.Ast.name
                       (Isched_check.Static.errors_to_string l.Ast.name vs))))
            served
      in
      (match trace with
      | Some tr when t.config.validate -> stage_add tr Reqlog.Validate (now_ns () - t_validate)
      | _ -> ());
      match invalid with
      | Some diagnostics ->
        Response (Protocol.Error { code = Protocol.Invalid_schedule; message = diagnostics })
      | None ->
        let cache_hit = List.for_all (fun (_, _, _, v) -> v <> `Miss) served in
        if explain then
          let loops_replies =
            List.map
              (fun (_, l, c, _) ->
                if c.reply.Protocol.doall then c.reply
                else
                  {
                    c.reply with
                    Protocol.explain_payload = explain_payload t ~options ~which l machine;
                  })
              served
          in
          Response (Protocol.Scheduled { cache_hit; loops = loops_replies })
        else begin
          (* The warm path: the cached entries carry their canonical
             rendering, so the response is string splicing — no JSON
             tree is rebuilt per request. *)
          let t_enc = match trace with Some _ -> now_ns () | None -> 0 in
          let s =
            Protocol.encode_scheduled ~cache_hit (List.map (fun (_, _, c, _) -> c.rendered) served)
          in
          (match trace with
          | Some tr -> stage_add tr Reqlog.Encode (now_ns () - t_enc)
          | None -> ());
          Encoded s
        end))

(* --- stats & metrics --- *)

let rolling_value (s : Rolling.stats) =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("count", num s.Rolling.count);
      ("rate", Json.Num s.Rolling.rate);
      ("p50_ns", num s.Rolling.p50_ns);
      ("p99_ns", num s.Rolling.p99_ns);
      ("p999_ns", num s.Rolling.p999_ns);
      ("flagged", num s.Rolling.flagged);
      ("flagged_ratio", Json.Num s.Rolling.flagged_ratio);
      ("window_ns", num s.Rolling.window_ns);
    ]

let stats_value t =
  let num i = Json.Num (float_of_int i) in
  let counters = match Json.parse (Counters.to_json ()) with Ok v -> v | Error _ -> Json.Null in
  let now = now_ns () in
  let stripe_entries = Cache.stripe_lengths t.cache in
  let depth = Mutex.protect t.qlock (fun () -> Queue.length t.queue) in
  let busy = Atomic.get t.busy_workers in
  Json.Obj
    [
      ("requests", num (Atomic.get t.requests));
      ( "cache",
        Json.Obj
          [
            ("entries", num (Cache.length t.cache));
            ("capacity", num (Cache.capacity t.cache));
            ( "stripe_entries",
              Json.Arr (Array.to_list (Array.map (fun n -> num n) stripe_entries)) );
          ] );
      ( "queue",
        Json.Obj
          [
            ("capacity", num t.config.queue_capacity);
            ("depth", num depth);
            ("hwm", num (Atomic.get t.queue_hwm));
          ] );
      ( "workers",
        Json.Obj
          [
            ("total", num t.config.workers);
            ("busy", num busy);
            ( "utilisation",
              Json.Num (float_of_int busy /. float_of_int (max t.config.workers 1)) );
          ] );
      ("window", rolling_value (Rolling.stats t.req_rolling ~now_ns:now));
      ("cache_window", rolling_value (Rolling.stats t.cache_rolling ~now_ns:now));
      ( "slow",
        Json.Obj
          [
            ("threshold_ms", Json.Num (float_of_int (Reqlog.slow_threshold_ns ()) /. 1e6));
            ("entries", Json.Arr (List.map Reqlog.entry_value (Reqlog.slow ~limit:16 ())));
          ] );
      ("counters", counters);
    ]

let metrics_exposition t =
  let now = now_ns () in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Counters.render_prometheus ());
  Buffer.add_string b (Rolling.render_prometheus ~name:"isched_serve_window" t.req_rolling ~now_ns:now);
  Buffer.add_string b
    (Rolling.render_prometheus ~name:"isched_serve_cache_window" t.cache_rolling ~now_ns:now);
  let gauge name v = Printf.bprintf b "# TYPE %s gauge\n%s %d\n" name name v in
  gauge "isched_serve_cache_entries" (Cache.length t.cache);
  gauge "isched_serve_cache_capacity" (Cache.capacity t.cache);
  Buffer.add_string b "# TYPE isched_serve_cache_stripe_entries gauge\n";
  Array.iteri
    (fun i n -> Printf.bprintf b "isched_serve_cache_stripe_entries{stripe=\"%d\"} %d\n" i n)
    (Cache.stripe_lengths t.cache);
  gauge "isched_serve_queue_capacity" t.config.queue_capacity;
  gauge "isched_serve_queue_hwm" (Atomic.get t.queue_hwm);
  gauge "isched_serve_workers_total" t.config.workers;
  gauge "isched_serve_workers_busy" (Atomic.get t.busy_workers);
  Buffer.contents b

let handle_inner t ?trace = function
  | Protocol.Ping -> Response Protocol.Pong
  | Protocol.Stats -> Response (Protocol.Stats_reply (stats_value t))
  | Protocol.Metrics -> Response (Protocol.Metrics_reply (metrics_exposition t))
  | Protocol.Schedule { source; scheduler; issue; nfu; n_iters; sync_elim; explain } ->
    handle_schedule t ?trace ~source ~scheduler ~issue ~nfu ~n_iters ~sync_elim ~explain ()

(* Returns the request's id (the pre-increment counter value) with the
   outcome, so the socket path can tag its trace without a second
   atomic operation. *)
let handle_outcome t ?trace req =
  let out =
    try handle_inner t ?trace req
    with e ->
      Response (Protocol.Error { code = Protocol.Internal; message = Printexc.to_string e })
  in
  let id = Atomic.fetch_and_add t.requests 1 in
  Counters.incr c_requests;
  (match out with
  | Response (Protocol.Error { code; _ }) ->
    Counters.incr c_errors;
    (match trace with
    | Some tr -> tr.tr_error <- Some (Protocol.error_code_name code)
    | None -> ())
  | _ -> ());
  (id, out)

let handle t req =
  match handle_outcome t req with
  | _, Response r -> r
  | _, Encoded s -> (
    (* [Encoded] is the canonical encoding of a response, so decoding
       it back is lossless; only this structured entry point (tests,
       non-socket callers) pays for the parse. *)
    match Protocol.decode_response s with
    | Ok r -> r
    | Error (_, m) -> Protocol.Error { code = Protocol.Internal; message = m })

(* --- the daemon --- *)

let send_payload fd payload =
  match Protocol.write_frame fd payload with
  | () -> true
  | exception Unix.Unix_error _ -> false
  | exception Invalid_argument _ ->
    (* The encoded response exceeded the frame bound (a pathological
       explain payload): degrade to a structured error. *)
    (try
       Protocol.write_frame fd
         (Protocol.encode_response
            (Protocol.Error
               { code = Protocol.Internal; message = "response exceeds the frame bound" }));
       true
     with Unix.Unix_error _ -> false)

let send_response fd resp = send_payload fd (Protocol.encode_response resp)

let serve_conn t fd =
  let stop () = Atomic.get t.stop_flag in
  let reader = Protocol.reader fd in
  let rec loop () =
    (* One atomic read decides whether this request is traced; the
       disabled path performs no clock reads and no allocation for the
       reqlog (the inertness property test pins this). *)
    let enabled = Counters.enabled () in
    let t_wait = if enabled then now_ns () else 0 in
    match Protocol.read_frame_buffered ~stop reader with
    | Protocol.Eof | Protocol.Truncated | Protocol.Stopped -> ()
    | Protocol.Oversized len ->
      (* The stream position is unknowable past an oversized header:
         answer, then close. *)
      Counters.incr c_errors;
      ignore
        (send_response fd
           (Protocol.Error
              {
                code = Protocol.Oversized_frame;
                message =
                  Printf.sprintf "frame of %d bytes exceeds the %d-byte bound" len
                    Protocol.max_frame;
              }))
    | Protocol.Frame payload ->
      let t_start = if enabled then now_ns () else 0 in
      let trace = if enabled then Some (fresh_trace ~read_ns:(t_start - t_wait)) else None in
      let id, out =
        match Protocol.decode_request payload with
        | Ok req ->
          (match trace with
          | Some tr -> stage_add tr Reqlog.Decode (now_ns () - t_start)
          | None -> ());
          let id, out = handle_outcome t ?trace req in
          let payload =
            match out with
            | Encoded s -> s
            | Response r ->
              let t_enc = match trace with Some _ -> now_ns () | None -> 0 in
              let s = Protocol.encode_response r in
              (match trace with
              | Some tr -> stage_add tr Reqlog.Encode (now_ns () - t_enc)
              | None -> ());
              s
          in
          (id, payload)
        | Error (code, message) ->
          let id = Atomic.fetch_and_add t.requests 1 in
          Counters.incr c_requests;
          Counters.incr c_errors;
          (match trace with
          | Some tr ->
            stage_add tr Reqlog.Decode (now_ns () - t_start);
            tr.tr_error <- Some (Protocol.error_code_name code)
          | None -> ());
          (id, Protocol.encode_response (Protocol.Error { code; message }))
      in
      let t_write = match trace with Some _ -> now_ns () | None -> 0 in
      let ok = send_payload fd out in
      (match trace with
      | Some tr ->
        let t_end = now_ns () in
        stage_add tr Reqlog.Write (t_end - t_write);
        finish_trace t tr ~id ~start_ns:t_start ~end_ns:t_end
      | None -> ());
      if ok then loop ()
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec worker_loop t =
  let job =
    Mutex.protect t.qlock (fun () ->
        let rec get () =
          if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
          else if Atomic.get t.stop_flag then None
          else begin
            Condition.wait t.qcond t.qlock;
            get ()
          end
        in
        get ())
  in
  match job with
  | None -> ()
  | Some fd ->
    Atomic.incr t.busy_workers;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.busy_workers)
      (fun () -> serve_conn t fd);
    worker_loop t

let reject_overloaded fd =
  Counters.incr c_overloaded;
  ignore
    (send_response fd
       (Protocol.Error
          { code = Protocol.Overloaded; message = "accept queue saturated; retry later" }));
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec bump_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

(* Periodic --metrics-file dump, driven by the accept loop's ~100 ms
   select tick: write the whole exposition to a sibling temp file and
   rename it into place, so a scraper never reads a torn file. *)
let maybe_dump_metrics t =
  match t.config.metrics_file with
  | None -> ()
  | Some path ->
    let now = Unix.gettimeofday () in
    if now -. Atomic.get t.last_dump >= t.config.metrics_interval then begin
      Atomic.set t.last_dump now;
      let tmp = path ^ ".tmp" in
      try
        let oc = open_out tmp in
        output_string oc (metrics_exposition t);
        close_out oc;
        Unix.rename tmp path
      with Sys_error _ | Unix.Unix_error _ -> ()
    end

let rec accept_loop t lfd =
  if not (Atomic.get t.stop_flag) then begin
    (match Unix.select [ lfd ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Counters.incr c_connections;
        let enqueued =
          Mutex.protect t.qlock (fun () ->
              if Queue.length t.queue >= t.config.queue_capacity then false
              else begin
                Queue.push fd t.queue;
                let depth = Queue.length t.queue in
                Counters.observe d_queue_depth depth;
                bump_max t.queue_hwm depth;
                Condition.signal t.qcond;
                true
              end)
        in
        if not enqueued then reject_overloaded fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    maybe_dump_metrics t;
    accept_loop t lfd
  end

let stop t = Atomic.set t.stop_flag true

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

let run ?(on_ready = fun () -> ()) t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = t.config.socket_path in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  let workers = List.init t.config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t)) in
  on_ready ();
  Fun.protect
    ~finally:(fun () ->
      (* Graceful drain: wake every idle worker (the queued and
         in-flight connections are still served; workers exit once the
         queue is empty), join, then remove the socket. *)
      Atomic.set t.stop_flag true;
      Mutex.protect t.qlock (fun () -> Condition.broadcast t.qcond);
      List.iter Domain.join workers;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> accept_loop t lfd)
