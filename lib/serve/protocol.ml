module Json = Isched_obs.Json
module Pipeline = Isched_harness.Pipeline

let max_frame = 1 lsl 20

(* --- requests --- *)

type scheduler = Pipeline.scheduler = Sched_list | Sched_marker | Sched_new

type source = Text of string | Corpus_loop of string

type request =
  | Ping
  | Stats
  | Metrics
  | Schedule of {
      source : source;
      scheduler : scheduler;
      issue : int;
      nfu : int;
      n_iters : int option;
      sync_elim : bool option;  (* None: the server's configured default *)
      explain : bool;
    }

let schedule_request ?(scheduler = Sched_new) ?(issue = 4) ?(nfu = 1) ?n_iters ?sync_elim
    ?(explain = false) source =
  Schedule { source; scheduler; issue; nfu; n_iters; sync_elim; explain }

(* --- responses --- *)

type loop_reply = {
  loop_name : string;
  doall : bool;
  cycles_per_iteration : int;
  lbd_pairs : int;
  parallel_time : int;
  analytic_time : int;
  rows : int array array;
  explain_payload : Json.value option;
}

type error_code =
  | Oversized_frame
  | Malformed_frame
  | Bad_request
  | Source_error
  | Unknown_loop
  | Overloaded
  | Invalid_schedule
  | Internal

let error_code_name = function
  | Oversized_frame -> "oversized_frame"
  | Malformed_frame -> "malformed_frame"
  | Bad_request -> "bad_request"
  | Source_error -> "source_error"
  | Unknown_loop -> "unknown_loop"
  | Overloaded -> "overloaded"
  | Invalid_schedule -> "invalid_schedule"
  | Internal -> "internal"

let error_code_of_name = function
  | "oversized_frame" -> Some Oversized_frame
  | "malformed_frame" -> Some Malformed_frame
  | "bad_request" -> Some Bad_request
  | "source_error" -> Some Source_error
  | "unknown_loop" -> Some Unknown_loop
  | "overloaded" -> Some Overloaded
  | "invalid_schedule" -> Some Invalid_schedule
  | "internal" -> Some Internal
  | _ -> None

type response =
  | Pong
  | Stats_reply of Json.value
  | Metrics_reply of string
  | Scheduled of { cache_hit : bool; loops : loop_reply list }
  | Error of { code : error_code; message : string }

(* --- JSON codecs ---

   Encoding is canonical: fixed member order, optional members omitted
   when absent, integers emitted as integral [Num]s.  The round-trip
   property (encode o decode o encode = encode) rides on this. *)

let scheduler_name = Pipeline.scheduler_tag

let scheduler_of_name n =
  List.find_opt (fun s -> Pipeline.scheduler_tag s = n) Pipeline.all_schedulers

let num i = Json.Num (float_of_int i)

let request_to_json = function
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Metrics -> Json.Obj [ ("op", Json.Str "metrics") ]
  | Schedule { source; scheduler; issue; nfu; n_iters; sync_elim; explain } ->
    let src =
      match source with
      | Text s -> ("source", Json.Str s)
      | Corpus_loop n -> ("corpus_loop", Json.Str n)
    in
    Json.Obj
      ([ ("op", Json.Str "schedule"); src; ("scheduler", Json.Str (scheduler_name scheduler));
         ("issue", num issue); ("nfu", num nfu) ]
      @ (match n_iters with None -> [] | Some n -> [ ("n_iters", num n) ])
      @ (match sync_elim with None -> [] | Some b -> [ ("sync_elim", Json.Bool b) ])
      @ [ ("explain", Json.Bool explain) ])

let loop_reply_to_json r =
  Json.Obj
    ([ ("name", Json.Str r.loop_name);
       ("kind", Json.Str (if r.doall then "doall" else "doacross"));
       ("cycles_per_iteration", num r.cycles_per_iteration);
       ("lbd_pairs", num r.lbd_pairs); ("parallel_time", num r.parallel_time);
       ("analytic_time", num r.analytic_time);
       ( "rows",
         Json.Arr
           (Array.to_list
              (Array.map (fun row -> Json.Arr (Array.to_list (Array.map num row))) r.rows)) ) ]
    @ match r.explain_payload with None -> [] | Some v -> [ ("explain", v) ])

let response_to_json = function
  | Pong -> Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "ping") ]
  | Stats_reply v ->
    Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "stats"); ("stats", v) ]
  | Metrics_reply e ->
    Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "metrics"); ("exposition", Json.Str e) ]
  | Scheduled { cache_hit; loops } ->
    Json.Obj
      [ ("status", Json.Str "ok"); ("op", Json.Str "schedule");
        ("cache", Json.Str (if cache_hit then "hit" else "miss"));
        ("loops", Json.Arr (List.map loop_reply_to_json loops)) ]
  | Error { code; message } ->
    Json.Obj
      [ ("status", Json.Str "error"); ("code", Json.Str (error_code_name code));
        ("message", Json.Str message) ]

(* --- decoding --- *)

(* [Stdlib.Error] throughout: the [response] constructor [Error] above
   shadows [result]'s. *)
let ( let* ) r f = match r with Ok v -> f v | Stdlib.Error _ as e -> e

let bad fmt = Printf.ksprintf (fun m -> Stdlib.Error (Bad_request, m)) fmt

let get_str k v =
  match Option.bind (Json.member k v) Json.to_str with
  | Some s -> Ok s
  | None -> bad "missing or non-string %S" k

let get_int ?(min = min_int) k v =
  match Option.bind (Json.member k v) Json.to_float with
  | Some f when Float.is_integer f && f >= float_of_int min && f <= 1e9 ->
    Ok (int_of_float f)
  | Some _ -> bad "%S must be an integer >= %d" k min
  | None -> bad "missing or non-numeric %S" k

let get_bool k v =
  match Option.bind (Json.member k v) Json.to_bool with
  | Some b -> Ok b
  | None -> bad "missing or non-boolean %S" k

let opt_int ~min ~max k v =
  match Json.member k v with
  | None -> Ok None
  | Some x -> (
    match Json.to_float x with
    | Some f when Float.is_integer f && f >= float_of_int min && f <= float_of_int max ->
      Ok (Some (int_of_float f))
    | _ -> bad "%S must be an integer in %d..%d" k min max)

let opt_bool k v =
  match Json.member k v with
  | None -> Ok None
  | Some x -> (
    match Json.to_bool x with
    | Some b -> Ok (Some b)
    | None -> bad "%S must be a boolean" k)

(* Every member a schedule request may carry.  Anything else — a
   misspelled field, an unsupported pass option — is rejected as a
   structured [Bad_request] rather than silently ignored, so a client
   can never believe it toggled a pass the server never saw. *)
let schedule_members =
  [ "op"; "source"; "corpus_loop"; "scheduler"; "issue"; "nfu"; "n_iters"; "sync_elim"; "explain" ]

let check_members known v =
  match v with
  | Json.Obj fields -> (
    match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
    | Some (k, _) -> bad "unknown request member %S" k
    | None -> Ok ())
  | _ -> Ok ()

let request_of_json v =
  match v with
  | Json.Obj _ -> (
    let* op = get_str "op" v in
    match op with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "schedule" ->
      let* () = check_members schedule_members v in
      let* source =
        match (Json.member "source" v, Json.member "corpus_loop" v) with
        | Some _, Some _ -> bad "give exactly one of \"source\" and \"corpus_loop\""
        | Some (Json.Str s), None -> Ok (Text s)
        | None, Some (Json.Str n) -> Ok (Corpus_loop n)
        | Some _, None | None, Some _ -> bad "\"source\"/\"corpus_loop\" must be strings"
        | None, None -> bad "give one of \"source\" and \"corpus_loop\""
      in
      let* sched_name = get_str "scheduler" v in
      let* scheduler =
        match scheduler_of_name sched_name with
        | Some s -> Ok s
        | None -> bad "unknown scheduler %S (one of list, marker, new)" sched_name
      in
      let* issue = get_int ~min:1 "issue" v in
      let* nfu = get_int ~min:1 "nfu" v in
      let* n_iters = opt_int ~min:1 ~max:Isched_frontend.Sema.max_trip_count "n_iters" v in
      let* sync_elim = opt_bool "sync_elim" v in
      let* explain = get_bool "explain" v in
      Ok (Schedule { source; scheduler; issue; nfu; n_iters; sync_elim; explain })
    | other -> bad "unknown op %S" other)
  | _ -> bad "request must be a JSON object"

let rows_of_json v =
  match Json.to_list v with
  | None -> bad "\"rows\" must be an array"
  | Some rows ->
    let cell x =
      match Json.to_float x with
      | Some f when Float.is_integer f -> Ok (int_of_float f)
      | _ -> bad "\"rows\" cells must be integers"
    in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | r :: rest -> (
        match Json.to_list r with
        | None -> bad "\"rows\" rows must be arrays"
        | Some cells ->
          let rec cells_go acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | c :: cs ->
              let* i = cell c in
              cells_go (i :: acc) cs
          in
          let* row = cells_go [] cells in
          go (row :: acc) rest)
    in
    go [] rows

let loop_reply_of_json v =
  let* loop_name = get_str "name" v in
  let* kind = get_str "kind" v in
  let* doall =
    match kind with
    | "doall" -> Ok true
    | "doacross" -> Ok false
    | other -> bad "unknown loop kind %S" other
  in
  let* cycles_per_iteration = get_int "cycles_per_iteration" v in
  let* lbd_pairs = get_int "lbd_pairs" v in
  let* parallel_time = get_int "parallel_time" v in
  let* analytic_time = get_int "analytic_time" v in
  let* rows =
    match Json.member "rows" v with None -> bad "missing \"rows\"" | Some r -> rows_of_json r
  in
  Ok
    {
      loop_name;
      doall;
      cycles_per_iteration;
      lbd_pairs;
      parallel_time;
      analytic_time;
      rows;
      explain_payload = Json.member "explain" v;
    }

let response_of_json v =
  match v with
  | Json.Obj _ -> (
    let* status = get_str "status" v in
    match status with
    | "error" ->
      let* code_name = get_str "code" v in
      let* code =
        match error_code_of_name code_name with
        | Some c -> Ok c
        | None -> bad "unknown error code %S" code_name
      in
      let* message = get_str "message" v in
      Ok (Error { code; message })
    | "ok" -> (
      let* op = get_str "op" v in
      match op with
      | "ping" -> Ok Pong
      | "stats" -> (
        match Json.member "stats" v with
        | Some s -> Ok (Stats_reply s)
        | None -> bad "missing \"stats\"")
      | "metrics" ->
        let* exposition = get_str "exposition" v in
        Ok (Metrics_reply exposition)
      | "schedule" ->
        let* cache = get_str "cache" v in
        let* cache_hit =
          match cache with
          | "hit" -> Ok true
          | "miss" -> Ok false
          | other -> bad "unknown cache state %S" other
        in
        let* loops =
          match Option.bind (Json.member "loops" v) Json.to_list with
          | None -> bad "missing \"loops\" array"
          | Some ls ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | l :: rest ->
                let* r = loop_reply_of_json l in
                go (r :: acc) rest
            in
            go [] ls
        in
        Ok (Scheduled { cache_hit; loops })
      | other -> bad "unknown op %S" other)
    | other -> bad "unknown status %S" other)
  | _ -> bad "response must be a JSON object"

let decode payload of_json =
  match Json.parse payload with
  | Stdlib.Error e -> Stdlib.Error (Malformed_frame, e)
  | Ok v -> of_json v

let decode_request s = decode s request_of_json
let decode_response s = decode s response_of_json
let encode_request r = Json.to_string (request_to_json r)
let encode_response r = Json.to_string (response_to_json r)

(* The server's warm path: loop replies are rendered once when computed
   and cached as strings, so a hit only splices them into the envelope.
   Byte-identical to [encode_response (Scheduled _)] over the same
   replies (pinned by a test); keep the two in lockstep. *)

let render_loop_reply r = Json.to_string (loop_reply_to_json r)

let encode_scheduled ~cache_hit rendered_loops =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"status\": \"ok\", \"op\": \"schedule\", \"cache\": ";
  Buffer.add_string b (if cache_hit then "\"hit\"" else "\"miss\"");
  Buffer.add_string b ", \"loops\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b s)
    rendered_loops;
  Buffer.add_string b "]}";
  Buffer.contents b

(* --- framing --- *)

let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.frame: payload exceeds max_frame";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type read_result = Frame of string | Eof | Truncated | Oversized of int | Stopped

(* Wait until [fd] is readable, about every 100 ms giving [stop] a
   chance to end the wait (the server's drain path). *)
let rec wait_readable stop fd =
  if stop () then `Stopped
  else
    match Unix.select [ fd ] [] [] 0.1 with
    | [], _, _ -> wait_readable stop fd
    | _ -> `Readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable stop fd

(* Read exactly [len] bytes into [buf] at [off]; [`Closed k] reports how
   many arrived before end of stream. *)
let read_exact stop fd buf off len =
  let rec go off remaining =
    if remaining = 0 then `Ok
    else
      match wait_readable stop fd with
      | `Stopped -> `Stopped
      | `Readable -> (
        match Unix.read fd buf off remaining with
        | 0 -> `Closed (len - remaining)
        | k -> go (off + k) (remaining - k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining)
  in
  go off len

let read_frame ?(stop = fun () -> false) ?(max_frame = max_frame) fd =
  let header = Bytes.create 4 in
  match read_exact stop fd header 0 4 with
  | `Stopped -> Stopped
  | `Closed 0 -> Eof
  | `Closed _ -> Truncated
  | `Ok -> (
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame then Oversized len
    else
      let payload = Bytes.create len in
      match read_exact stop fd payload 0 len with
      | `Stopped -> Stopped
      | `Closed _ -> Truncated
      | `Ok -> Frame (Bytes.unsafe_to_string payload))

(* Buffered reading: the server and client hot paths go through a
   per-connection [reader] so a frame that arrived whole (the common
   case) costs one [read] — not select+read for the header and again
   for the payload.  Frames larger than the buffer spill to direct
   reads into the destination. *)

type reader = {
  rfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rlo : int;  (* unconsumed region is [rlo, rhi) *)
  mutable rhi : int;
}

let reader fd = { rfd = fd; rbuf = Bytes.create 65536; rlo = 0; rhi = 0 }

(* Make at least one byte available in the buffer.  Without [stop] the
   read blocks directly (client side); with it, readiness is polled so
   the server's drain can interrupt an idle wait. *)
let rec fill stop r =
  if r.rhi > r.rlo then `Ok
  else begin
    r.rlo <- 0;
    r.rhi <- 0;
    let ready = match stop with None -> `Readable | Some s -> wait_readable s r.rfd in
    match ready with
    | `Stopped -> `Stopped
    | `Readable -> (
      match Unix.read r.rfd r.rbuf 0 (Bytes.length r.rbuf) with
      | 0 -> `Eof
      | k ->
        r.rhi <- k;
        `Ok
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill stop r)
  end

let take_exact stop r dst off len =
  let rec go off remaining =
    if remaining = 0 then `Ok
    else
      match fill stop r with
      | `Stopped -> `Stopped
      | `Eof -> `Closed (len - remaining)
      | `Ok ->
        let k = min (r.rhi - r.rlo) remaining in
        Bytes.blit r.rbuf r.rlo dst off k;
        r.rlo <- r.rlo + k;
        go (off + k) (remaining - k)
  in
  go off len

let read_frame_buffered ?stop ?(max_frame = max_frame) r =
  let header = Bytes.create 4 in
  match take_exact stop r header 0 4 with
  | `Stopped -> Stopped
  | `Closed 0 -> Eof
  | `Closed _ -> Truncated
  | `Ok -> (
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame then Oversized len
    else
      let payload = Bytes.create len in
      match take_exact stop r payload 0 len with
      | `Stopped -> Stopped
      | `Closed _ -> Truncated
      | `Ok -> Frame (Bytes.unsafe_to_string payload))

let write_frame fd payload =
  let framed = frame payload in
  let b = Bytes.unsafe_of_string framed in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
