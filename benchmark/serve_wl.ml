(* Workload [serve]: an [ischedc serve] daemon in a child process with
   fixed flags.  Each request carries the mini-Fortran source text of a
   loop of the scale-20 generated corpus, crossed with a scheduler and a
   paper machine; the (loop, scheduler, machine) keys are drawn with Zipf
   popularity.  The key space (about 15.7k keys) is larger than the
   1024-entry cache, so both hits and misses happen.  It is the only
   workload where frontend.parse runs on every request, and where the
   pipeline runs one request at a time under a latency measure.

   The timed phase is a closed loop over one connection: on this 2-vCPU
   VM an open loop at half the connection's capacity leaves both vCPUs
   idle between requests, and each request then pays the hypervisor's
   wake-up latency (README.md has the numbers), which made the open-loop
   p50/p99 spread by 12-190% between runs.  (benchmark/run.py also pins
   this process, and so the daemon, to one vCPU.)  The open loop still
   runs, in the traced run, at half the closed-loop rate the warm-up
   measures; its p50/p99 and generator lateness are reported there as
   per-layer metrics. *)

module Protocol = Isched_serve.Protocol
module Server = Isched_serve.Server
module Cache = Isched_serve.Cache
module Suite = Isched_perfect.Suite
module Prng = Isched_util.Prng
module Ast = Isched_frontend.Ast
module Machine = Isched_ir.Machine
module Pipeline = Isched_harness.Pipeline
module T = Tracer

(* --- fixed parameters --- *)

let cache_capacity = 1024
let daemon_flags = [ "--workers"; "1"; "--cache"; string_of_int cache_capacity ]

(* Closed-loop requests per run are drawn up front: enough for [seconds]
   at this many requests per second. *)
let max_rate = 12_000.

(* The first [replayed] measured requests are replayed in-process for
   the known-answer checks. *)
let replayed = 6000

(* The warm-up first requests each of the [hot_keys] most popular keys
   once, which fills the cache with the hot set, then sends
   [warm_requests] draws of the real mix. *)
let hot_keys = 1020
let warm_requests = 1000
let sample_size = 256
let window_s = 2.
let zipf_theta = 1.0

(* Popularity ranks are a fixed permutation of the (loop, scheduler,
   machine) keys, the same for every seed: the seed draws the request
   stream, not the mix. *)
let popularity_seed = 0x51ED

let scheds = [| Protocol.Sched_list; Protocol.Sched_marker; Protocol.Sched_new |]
let machines = Array.of_list (List.map snd Machine.paper_configs)

type req = { loop : int; sched : int; cfg : int }

type corpus = {
  loops : Ast.loop array;
  sources : string array;
  rank : int array;  (* popularity rank -> key: loop * 12 + sched * 4 + cfg *)
  cdf : float array;
}

let build_corpus ~scale =
  let loops =
    Array.of_list
      (List.concat_map
         (fun p -> List.concat_map Suite.chunk_loops (Suite.chunks ~scale p))
         (Suite.profiles ()))
  in
  let n = 12 * Array.length loops in
  let rank = Array.init n Fun.id in
  Prng.shuffle (Prng.create popularity_seed) rank;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** zipf_theta));
    cdf.(i) <- !acc
  done;
  { loops; sources = Array.map Ast.loop_to_string loops; rank; cdf }

let key k = { loop = k / 12; sched = k mod 12 / 4; cfg = k mod 4 }

let draw c rng =
  let u = Prng.float rng *. c.cdf.(Array.length c.cdf - 1) in
  let lo = ref 0 and hi = ref (Array.length c.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  key c.rank.(!lo)

let request c r =
  let m = machines.(r.cfg) in
  Protocol.schedule_request ~scheduler:scheds.(r.sched) ~issue:m.Machine.issue_width
    ~nfu:m.Machine.fu_counts.(0) (Protocol.Text c.sources.(r.loop))

(* The warm-up (hot set, then seeded draws) and the closed-loop draws. *)
let streams c ~seed ~seconds ~tiny =
  let hot = Array.init (if tiny then 48 else hot_keys) (fun r -> key c.rank.(r)) in
  let rng = Prng.create seed in
  let warm = Array.init (if tiny then 50 else warm_requests) (fun _ -> draw c rng) in
  let closed = Array.init (int_of_float (seconds *. max_rate)) (fun _ -> draw c rng) in
  (Array.append hot warm, closed)

(* The open loop's draws with their Poisson due times (ns after its
   start) at [rate] requests per second.  The seed fixes the draws and
   the shape of the arrivals; [rate] only scales them. *)
let open_stream c ~seed ~rate ~seconds =
  let rng = Prng.create (seed lxor 0x0DE1) in
  let due = ref [] and t = ref 0. in
  let rec gen () =
    t := !t -. (log (1. -. Prng.float rng) /. rate);
    if !t < seconds then begin
      due := (int_of_float (!t *. 1e9), draw c rng) :: !due;
      gen ()
    end
  in
  gen ();
  Array.of_list (List.rev !due)

(* --- the daemon --- *)

let out_dir = Trace_out.out_dir

type daemon = { pid : int; sock : string; log : string }

let live : daemon list ref = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM (graceful drain), then SIGKILL after 5 s; always reaped,
   socket and log always removed. *)
let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  if not (exited d.pid) then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = Bstats.now_ns () in
    while (not (exited d.pid)) && Bstats.secs_since t0 < 5. do
      Unix.sleepf 0.01
    done;
    if not (exited d.pid) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
    end
  end;
  List.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) [ d.sock; d.log ]

let () = at_exit (fun () -> List.iter stop !live)

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let deadline_after s =
  let limit = Bstats.now_ns () + int_of_float (s *. 1e9) in
  fun () -> Bstats.now_ns () > limit

(* One request on a fresh connection, [None] on any failure. *)
let call_once sock payload =
  match connect sock with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Protocol.write_frame fd payload with
        | exception Unix.Unix_error _ -> None
        | () -> (
          match Protocol.read_frame_buffered ~stop:(deadline_after 5.) (Protocol.reader fd) with
          | Protocol.Frame p -> Some p
          | _ -> None))

let log_tail path =
  try
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let n = String.length s in
    String.sub s (max 0 (n - 2000)) (min n 2000)
  with Sys_error _ -> ""

(* The socket path is relative to the checkout root, which keeps it far
   below the 107-byte sun_path limit wherever the checkout lives. *)
let spawn ~ischedc k =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf "%s/d%d-%d.sock" out_dir (Unix.getpid ()) k in
  let log = sock ^ ".log" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null_fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log_fd;
        Unix.close null_fd)
      (fun () ->
        Unix.create_process ischedc
          (Array.of_list ((ischedc :: "serve" :: "--socket" :: sock :: daemon_flags)))
          null_fd log_fd log_fd)
  in
  let d = { pid; sock; log } in
  live := d :: !live;
  let ping = Protocol.encode_request Protocol.Ping in
  let too_late = deadline_after 30. in
  let rec wait () =
    if exited pid then
      failwith (Printf.sprintf "daemon %s exited during start-up:\n%s" ischedc (log_tail log))
    else if too_late () then
      failwith (Printf.sprintf "daemon %s not ready after 30 s:\n%s" ischedc (log_tail log))
    else
      match call_once sock ping with
      | Some p when Protocol.decode_response p = Ok Protocol.Pong -> ()
      | _ ->
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  d

let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
          | _ -> find ()
        in
        find ())

(* --- talking to it --- *)

let hit_prefix = "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": \"hit\""
let miss_prefix = "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": \"miss\""

(* 'h' hit, 'm' miss, 'e' error reply, '?' no reply *)
let verdict_of p =
  if String.starts_with ~prefix:hit_prefix p then 'h'
  else if String.starts_with ~prefix:miss_prefix p then 'm'
  else 'e'

type measured = {
  start : int array;  (* when each request was due (open) or sent (closed) *)
  sent : int array;
  recv : int array;  (* 0: never answered *)
  verdicts : Bytes.t;
  sampled : (int, string) Hashtbl.t;  (* request index -> reply *)
  count : int;  (* requests sent *)
  elapsed_s : float;  (* first send to last reply *)
}

(* Drives one connection from one thread, so the generator never
   competes with the daemon for the two cores.  [`Closed seconds] keeps
   one request outstanding and stops sending after [seconds];
   [`Open due] writes each request at its due time whatever the replies
   are doing (latency then counts from the due time).  A select loop
   reads replies as they arrive. *)
let drive sock payloads mode ~sample =
  let n = Array.length payloads in
  let fd = connect sock in
  let sent = Array.make n 0 and recv = Array.make n 0 and verdicts = Bytes.make n '?' in
  let sampled = Hashtbl.create 512 in
  let t0 = Bstats.now_ns () + 5_000_000 in
  let due, stop_sending =
    match mode with
    | `Open due -> (Array.map (fun d -> t0 + d) due, max_int)
    | `Closed seconds -> (Array.make n t0, t0 + int_of_float (seconds *. 1e9))
  in
  let chunk = Bytes.create 65536 in
  let pending = Buffer.create 65536 in
  let next_send = ref 0 and next_recv = ref 0 and limit = ref n in
  (* Every complete frame in [pending] answers the next request. *)
  let drain now =
    let s = Buffer.contents pending in
    let len = String.length s in
    let pos = ref 0 in
    while len - !pos >= 4 && len - !pos - 4 >= Int32.to_int (String.get_int32_be s !pos) do
      let flen = Int32.to_int (String.get_int32_be s !pos) in
      let p = String.sub s (!pos + 4) flen in
      let i = !next_recv in
      if i < n then begin
        recv.(i) <- now;
        Bytes.set verdicts i (verdict_of p);
        if sample.(i) then Hashtbl.replace sampled i p;
        incr next_recv
      end;
      pos := !pos + 4 + flen
    done;
    Buffer.clear pending;
    Buffer.add_substring pending s !pos (len - !pos)
  in
  let give_up = ref max_int and closed = ref false in
  (try
     while !next_recv < !limit && (not !closed) && Bstats.now_ns () < !give_up do
       let now = Bstats.now_ns () in
       if now >= stop_sending && !limit = n then begin
         limit := !next_send;
         give_up := now + 10_000_000_000
       end;
       let ready =
         !next_send < !limit
         &&
         match mode with
         | `Open _ -> due.(!next_send) <= now
         | `Closed _ -> !next_recv = !next_send
       in
       if ready then begin
         sent.(!next_send) <- now;
         Protocol.write_frame fd payloads.(!next_send);
         incr next_send;
         if !next_send = n then give_up := now + 10_000_000_000
       end
       else begin
         let wait_ns =
           match mode with
           | `Open _ when !next_send < !limit -> due.(!next_send) - now
           | _ -> !give_up - now
         in
         match Unix.select [ fd ] [] [] (Float.min 1. (Float.max 0. (float_of_int wait_ns *. 1e-9))) with
         | [], _, _ -> ()
         | _ ->
           let k = Unix.read fd chunk 0 (Bytes.length chunk) in
           if k = 0 then closed := true
           else begin
             Buffer.add_subbytes pending chunk 0 k;
             drain (Bstats.now_ns ())
           end
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       end
     done
   with Unix.Unix_error _ -> ());
  Unix.close fd;
  let count = !next_send in
  let last = Array.fold_left max t0 recv in
  let first = if count > 0 then sent.(0) else t0 in
  {
    start = (match mode with `Open _ -> due | `Closed _ -> sent);
    sent;
    recv;
    verdicts;
    sampled;
    count;
    elapsed_s = float_of_int (last - first) *. 1e-9;
  }

(* Latency quantile in us: per [window_s] window of start times, median
   over the windows (a trailing window shorter than half the others is
   dropped). *)
let windowed m q =
  let n = m.count in
  if n = 0 then nan
  else begin
    let t0 = m.start.(0) in
    let w i = int_of_float (float_of_int (m.start.(i) - t0) *. 1e-9 /. window_s) in
    let nw = w (n - 1) + 1 in
    let buckets = Array.make nw [] in
    for i = 0 to n - 1 do
      let lat =
        if m.recv.(i) = 0 then infinity else float_of_int (m.recv.(i) - m.start.(i)) *. 1e-3
      in
      buckets.(w i) <- lat :: buckets.(w i)
    done;
    let full = List.filter (fun b -> List.length b * 2 >= n / nw) (Array.to_list buckets) in
    Bstats.median_of_windows (List.map Array.of_list full) q
  end

(* --- set-up --- *)

type setup = {
  corpus : corpus;
  warm : req array;
  closed : req array;
  frames : string array;  (* request payload per key *)
  daemon : daemon;
  hot_n : int;  (* the first [hot_n] warm-up requests are the hot set *)
  warm_replies : string array;
  closed_rps : float;
}

let key_index r = (r.loop * 12) + (r.sched * 4) + r.cfg
let payloads s reqs = Array.map (fun r -> s.frames.(key_index r)) reqs

(* Source generation (every key's request encoded), daemon spawn to
   ready, and the warm-up. *)
let set_up ~ischedc ~seed ~seconds ~tiny k =
  let t0 = Bstats.now_ns () in
  let corpus = build_corpus ~scale:(if tiny then 1 else 20) in
  let warm, closed = streams corpus ~seed ~seconds ~tiny in
  let frames =
    Array.init (12 * Array.length corpus.loops) (fun k ->
        Protocol.encode_request (request corpus (key k)))
  in
  let daemon = spawn ~ischedc k in
  let hot_n = Array.length warm - if tiny then 50 else warm_requests in
  let s =
    { corpus; warm; closed; frames; daemon; hot_n; warm_replies = [||]; closed_rps = 0. }
  in
  let wp = payloads s warm in
  (* every reply kept *)
  let closed_loop p =
    let m = drive daemon.sock p (`Closed 60.) ~sample:(Array.make (Array.length p) true) in
    Array.init (Array.length p) (fun i -> Option.value ~default:"" (Hashtbl.find_opt m.sampled i))
  in
  let hot_replies = closed_loop (Array.sub wp 0 hot_n) in
  let mix_replies, mix_s =
    Bstats.time (fun () -> closed_loop (Array.sub wp hot_n (Array.length wp - hot_n)))
  in
  let s =
    {
      s with
      warm_replies = Array.append hot_replies mix_replies;
      closed_rps = float_of_int (Array.length mix_replies) /. mix_s;
    }
  in
  (s, Bstats.secs_since t0)

(* --- known answers --- *)

(* Replays requests through an in-process [Server.handle] with the
   daemon's configuration, in the daemon's order.  [on_handle i f]
   wraps each call (the traced run times it). *)
let replay ?(on_handle = fun _ f -> f ()) s reqs =
  let config =
    { (Server.default_config ~socket_path:"unused") with Server.workers = 1; cache_capacity }
  in
  let srv = Server.create config in
  Array.mapi
    (fun i r ->
      let req = request s.corpus r in
      Protocol.encode_response (on_handle i (fun () -> Server.handle srv req)))
    reqs

(* The warm-up and the first [replayed] closed-loop requests, in order. *)
let replay_reqs s m = Array.append s.warm (Array.sub s.closed 0 (min replayed m.count))

(* Every reply must be a schedule.  The warm-up and replayed ones must
   carry the cache verdict the in-process server gives, and the sampled
   ones must be byte-equal to its reply. *)
let check_replies out s m ~corrupt local =
  let nw = Array.length s.warm in
  Array.iteri
    (fun i r ->
      Outcome.check out
        (r <> "" && verdict_of r <> 'e' && verdict_of r = verdict_of local.(i))
        (fun () ->
          Printf.sprintf "serve: warm-up reply %d is wrong: %s" i
            (String.sub r 0 (min 120 (String.length r)))))
    s.warm_replies;
  let first_sample = ref corrupt in
  for i = 0 to m.count - 1 do
    let v = Bytes.get m.verdicts i in
    let ok = v = 'h' || v = 'm' in
    let ok =
      ok
      && (nw + i >= Array.length local || v = verdict_of local.(nw + i))
      &&
      match Hashtbl.find_opt m.sampled i with
      | None -> true
      | Some p ->
        let p =
          if !first_sample then begin
            first_sample := false;
            let b = Bytes.of_string p in
            Bytes.set b (Bytes.length b - 3) 'X';
            Bytes.to_string b
          end
          else p
        in
        String.equal p local.(nw + i)
    in
    Outcome.check out ok (fun () -> Printf.sprintf "serve: reply to request %d is wrong (%c)" i v)
  done

(* Emitted-code quality on the hot set: the new scheduler's simulated
   time as served, and the Send/Wait count of the programs behind every
   hot-set reply. *)
let hot_quality s =
  let ops_of = Hashtbl.create 1024 in
  let sync_ops loop =
    match Hashtbl.find_opt ops_of loop with
    | Some n -> n
    | None ->
      let n =
        match Pipeline.prepare_uncached Pipeline.default_options s.corpus.loops.(loop) with
        | Pipeline.Doacross { prog; _ } -> Tables_wl.sync_ops_of prog
        | Pipeline.Doall _ -> 0
      in
      Hashtbl.replace ops_of loop n;
      n
  in
  let t_new = ref 0 and ops = ref 0 in
  for i = 0 to s.hot_n - 1 do
    let r = s.warm.(i) in
    ops := !ops + sync_ops r.loop;
    if scheds.(r.sched) = Protocol.Sched_new then
      match Protocol.decode_response s.warm_replies.(i) with
      | Ok (Protocol.Scheduled { loops; _ }) ->
        List.iter (fun (l : Protocol.loop_reply) -> t_new := !t_new + l.Protocol.parallel_time) loops
      | _ -> ()
  done;
  (!t_new, !ops)

(* The replies byte-compared: a seeded sample of the replayed ones. *)
let sample_mask ~seed n =
  let idx = Array.init (min n replayed) Fun.id in
  Prng.shuffle (Prng.create (seed lxor 0x5A5A)) idx;
  let mask = Array.make n false in
  Array.iteri (fun k i -> if k < sample_size then mask.(i) <- true) idx;
  mask

let answered m = Bytes.fold_left (fun n v -> if v = 'h' || v = 'm' then n + 1 else n) 0 m.verdicts

(* --- the untraced run --- *)

let run_plain ~ischedc ~seed ~seconds ~tiny ~corrupt =
  let out = Outcome.create () in
  (* Two set-ups before the timed phase (the second one is measured)
     and two after it: a slow phase of the machine could hold a batch of
     set-ups taken together. *)
  let set_up_once k = set_up ~ischedc ~seed ~seconds ~tiny k in
  let s0, dt0 = set_up_once 0 in
  stop s0.daemon;
  let s, dt1 = set_up_once 1 in
  Printf.printf
    "serve: seed %d, %d corpus loops, %d warm-up requests, closed loop for %.0f s, cache %d\n" seed
    (Array.length s.corpus.loops) (Array.length s.warm) seconds cache_capacity;
  Printf.printf "  warm-up closed-loop rate %.0f req/s\n" s.closed_rps;
  let m =
    drive s.daemon.sock (payloads s s.closed) (`Closed seconds)
      ~sample:(sample_mask ~seed (Array.length s.closed))
  in
  let mem = vm_hwm_mb s.daemon.pid in
  stop s.daemon;
  let setups =
    Array.append [| dt0; dt1 |]
      (Array.init 2 (fun k ->
           let s', dt = set_up_once (k + 2) in
           stop s'.daemon;
           dt))
  in
  let local = replay s (replay_reqs s m) in
  check_replies out s m ~corrupt local;
  let t_new, ops = hot_quality s in
  let ok = answered m in
  let hits = Bytes.fold_left (fun n v -> if v = 'h' then n + 1 else n) 0 m.verdicts in
  Printf.printf "  %d replies (%.1f%% hits) over %.2f s; latency windows of %.0f s\n" ok
    (100. *. float_of_int hits /. float_of_int (max 1 ok)) m.elapsed_s window_s;
  Outcome.finish out
    [
      Outcome.m "setup_s" "s" (Bstats.median setups);
      Outcome.m "loops_per_s" "loops/s" (float_of_int ok /. m.elapsed_s);
      Outcome.m "t_new_cycles" "cycles" (float_of_int t_new);
      Outcome.m "sync_ops" "instrs" (float_of_int ops);
      Outcome.m "mem_peak_mb" "MiB" mem;
      Outcome.m "p50_us" "us" (windowed m 0.5);
      Outcome.m "p99_us" "us" (windowed m 0.99);
    ]

(* --- the traced run --- *)

let sched_of r = scheds.(r.sched)

let key_hash (l, sched, issue, nfu) =
  l.Ast.digest lxor Hashtbl.hash (sched, issue, nfu, (None : int option), false)

let key_equal (a, sa, ia, na) (b, sb, ib, nb) = sa = sb && ia = ib && na = nb && (a == b || a = b)

(* [Server.handle]'s schedule path, one library entry point per span:
   parse, cache probe, and on a miss the pipeline's front half, the
   scheduler and the timing simulator. *)
let replica_request cache s r =
  let m = machines.(r.cfg) in
  let issue = m.Machine.issue_width and nfu = m.Machine.fu_counts.(0) in
  let loops =
    T.span "frontend.parse" (fun () ->
        let ls = Isched_frontend.Parser.parse ~name:"request" s.corpus.sources.(r.loop) in
        List.iter Isched_frontend.Sema.check_exn ls;
        ls)
  in
  let compute (l : Ast.loop) () =
    let restructured = T.span "transform.restructure" (fun () -> Isched_transform.Restructure.run l) in
    let l' = restructured.Isched_transform.Restructure.loop in
    let carried = T.span "deps.carried_deps" (fun () -> Isched_deps.Dep.carried_deps l') in
    let reply =
      if carried = [] then
        {
          Protocol.loop_name = l.Ast.name;
          doall = true;
          cycles_per_iteration = 0;
          lbd_pairs = 0;
          parallel_time = 0;
          analytic_time = 0;
          rows = [||];
          explain_payload = None;
        }
      else begin
        let prog = T.span "codegen.compile" (fun () -> Isched_codegen.Codegen.compile ~carried l') in
        let graph = T.span "dfg.build" (fun () -> Isched_dfg.Dfg.build prog) in
        let sched =
          match sched_of r with
          | Protocol.Sched_list -> T.span "core.list" (fun () -> Isched_core.List_sched.run graph m)
          | Protocol.Sched_marker ->
            T.span "core.marker" (fun () -> Isched_core.Marker_sched.run graph m)
          | Protocol.Sched_new -> T.span "core.new" (fun () -> Isched_core.Sync_sched.run graph m)
        in
        let timing = T.span "sim.timing" (fun () -> Isched_sim.Timing.run sched) in
        {
          Protocol.loop_name = l.Ast.name;
          doall = false;
          cycles_per_iteration = sched.Isched_core.Schedule.length;
          lbd_pairs = Isched_core.Lbd_model.n_lbd sched;
          parallel_time = timing.Isched_sim.Timing.finish;
          analytic_time = Isched_core.Lbd_model.exact_time sched;
          rows = sched.Isched_core.Schedule.rows;
          explain_payload = None;
        }
      end
    in
    Protocol.render_loop_reply reply
  in
  let served =
    List.map
      (fun l ->
        T.span "serve.cache" (fun () ->
            Cache.find_or_compute_v cache (l, sched_of r, issue, nfu) (compute l)))
      loops
  in
  Protocol.encode_scheduled
    ~cache_hit:(List.for_all (fun (_, v) -> v <> `Miss) served)
    (List.map fst served)

let new_cache () =
  Cache.create ~stripes:(Server.default_config ~socket_path:"").Server.cache_stripes
    ~capacity:cache_capacity ~hash:key_hash ~equal:key_equal ()

let run_traced ~ischedc ~seed ~seconds ~tiny ~corrupt =
  let out = Outcome.create () in
  let phase = seconds /. 3. in
  let s, _ = set_up ~ischedc ~seed ~seconds:phase ~tiny 0 in
  let rate = s.closed_rps /. 2. in
  let opened = open_stream s.corpus ~seed ~rate ~seconds:phase in
  Printf.printf "serve (traced): seed %d, closed loop for %.1f s, open loop at %.0f req/s for %.1f s\n"
    seed phase rate phase;
  let m, mo =
    Fun.protect
      ~finally:(fun () -> stop s.daemon)
      (fun () ->
        let m =
          drive s.daemon.sock (payloads s s.closed) (`Closed phase)
            ~sample:(sample_mask ~seed (Array.length s.closed))
        in
        let mo =
          drive s.daemon.sock
            (payloads s (Array.map snd opened))
            (`Open (Array.map fst opened))
            ~sample:(Array.make (Array.length opened) false)
        in
        (m, mo))
  in
  for i = 0 to mo.count - 1 do
    let v = Bytes.get mo.verdicts i in
    Outcome.check out (v = 'h' || v = 'm') (fun () ->
        Printf.sprintf "serve: open-loop reply %d is wrong (%c)" i v)
  done;
  let reqs = replay_reqs s m in
  let nw = Array.length s.warm in
  let handle_ns = Array.make (Array.length reqs) 0 in
  let local =
    replay s reqs ~on_handle:(fun i f ->
        let t0 = Bstats.now_ns () in
        let reply = f () in
        handle_ns.(i) <- Bstats.now_ns () - t0;
        reply)
  in
  check_replies out s m ~corrupt local;
  (* The closed loop's tail against the same requests' in-process
     [Server.handle] time: the share of the tail that is daemon work. *)
  let handle_p99 =
    Bstats.quantile (Array.init (Array.length reqs - nw) (fun i -> float_of_int handle_ns.(nw + i) *. 1e-3)) 0.99
  in
  let client_p99 =
    Bstats.quantile (Array.init (Array.length reqs - nw) (fun i -> float_of_int (m.recv.(i) - m.sent.(i)) *. 1e-3)) 0.99
  in
  Printf.printf "  p99 over the first %d closed-loop requests: %.0f us at the client, %.0f us in-process Server.handle\n"
    (Array.length reqs - nw) client_p99 handle_p99;
  (* The replica's time per request is the daemon's service time: the
     same work, without the decode [Server.handle] adds for in-process
     callers. *)
  let replica = ref [||] and service_ns = Array.make (Array.length reqs) 0 in
  let runs =
    Trace_out.compare_runs ~seconds:0. ~max_traced:1 (fun _ ->
        let cache = new_cache () in
        replica :=
          Array.mapi
            (fun i r ->
              T.root "serve.request" ~req:i (fun () ->
                  let t0 = Bstats.now_ns () in
                  let reply = replica_request cache s r in
                  service_ns.(i) <- Bstats.now_ns () - t0;
                  reply))
            reqs)
  in
  (* [Server.handle] itself, split by cache verdict. *)
  T.start ();
  ignore
    (replay s reqs ~on_handle:(fun i f ->
         T.root "serve.request" ~req:i (fun () ->
             T.span_result
               (function
                 | Ok (Protocol.Scheduled { cache_hit = true; _ }) -> "serve.handle.hit"
                 | _ -> "serve.handle.miss")
               f)));
  let spans = runs.Trace_out.spans @ T.stop () in
  Array.iteri
    (fun i r ->
      Outcome.check out (String.equal r local.(i)) (fun () ->
          Printf.sprintf "serve: traced replica reply %d differs from Server.handle's" i))
    !replica;
  let transport = ref [] in
  for i = 0 to Array.length reqs - nw - 1 do
    if m.recv.(i) > 0 then
      transport := float_of_int (m.recv.(i) - m.sent.(i) - service_ns.(nw + i)) *. 1e-3 :: !transport
  done;
  let late = Array.init mo.count (fun i -> float_of_int (mo.sent.(i) - mo.start.(i)) *. 1e-3) in
  let hits = ref 0 in
  for i = nw to Array.length local - 1 do
    if verdict_of local.(i) = 'h' then incr hits
  done;
  Trace_out.finish out ~workload:"serve" ~seed ~spans ~per:1. ~overhead:runs.Trace_out.overhead
    [
      ("serve.cache.hit_ratio", float_of_int !hits /. float_of_int (max 1 (Array.length local - nw)));
      ("serve.transport_us", Bstats.median (Array.of_list !transport));
      ("serve.handle_p99_us", handle_p99);
      ("serve.open_p50_us", windowed mo 0.5);
      ("serve.open_p99_us", windowed mo 0.99);
      ("serve.gen_late_us", Bstats.median late);
    ]

let run ~ischedc ~trace ~seed ~seconds ~tiny ~corrupt =
  let on_signal = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  (* A connection the daemon closed fails the write with EPIPE, which is
     reported, instead of killing the benchmark without a word. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    if trace then run_traced ~ischedc ~seed ~seconds ~tiny ~corrupt
    else run_plain ~ischedc ~seed ~seconds ~tiny ~corrupt
  with
  | code -> code
  | exception (Failure msg | Sys_error msg) ->
    prerr_endline ("perfbench serve: " ^ msg);
    3
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "perfbench serve: %s(%s): %s\n" fn arg (Unix.error_message e);
    3
