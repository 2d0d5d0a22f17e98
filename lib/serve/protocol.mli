(** Wire protocol of the scheduling service ([ischedc serve]).

    Frames are length-prefixed: a 4-byte big-endian payload length
    followed by exactly that many bytes of UTF-8 JSON (one request or
    one response per frame), encoded and parsed with the strict
    {!Isched_obs.Json} used everywhere else in the repo.  The length
    prefix is bounded by {!max_frame}; anything larger is rejected with
    a structured error before the payload is read, so a hostile client
    cannot make the server buffer gigabytes.

    Encoding is canonical — field order is fixed and optional fields
    are omitted rather than [null] — so [encode (decode (encode r))]
    is byte-identical to [encode r] (pinned by the protocol
    round-trip property in the test suite).

    The full schema is documented in doc/serving.md. *)

module Json := Isched_obs.Json

(** Hard bound on a frame's payload size (1 MiB). *)
val max_frame : int

(** {2 Requests} *)

(** The pipeline's scheduler type, re-exported so wire code can name
    the constructors as [Protocol.Sched_*]. *)
type scheduler = Isched_harness.Pipeline.scheduler = Sched_list | Sched_marker | Sched_new

(** [scheduler_name s] — the wire name: [list], [marker] or [new]
    ({!Isched_harness.Pipeline.scheduler_tag}). *)
val scheduler_name : scheduler -> string

(** [scheduler_of_name n] — the scheduler whose wire name is [n]. *)
val scheduler_of_name : string -> scheduler option

type source =
  | Text of string  (** mini-Fortran source; may contain several loops *)
  | Corpus_loop of string
      (** a named loop of the seed corpora, e.g. ["QCD.L1"] or
          ["FLQ52.G3"] (see {!Isched_perfect.Suite.find_loop}) *)

type request =
  | Ping
  | Stats  (** counters snapshot + cache occupancy *)
  | Metrics
      (** the Prometheus text exposition (see doc/observability.md);
          what [ischedc top --metrics] and the [--metrics-file] dumps
          print *)
  | Schedule of {
      source : source;
      scheduler : scheduler;
      issue : int;
      nfu : int;
      n_iters : int option;
          (** trip-count override, at most {!Isched_frontend.Sema.max_trip_count} *)
      sync_elim : bool option;
          (** run the {!Isched_sync.Elim} redundant-synchronization
              elimination pass; [None] defers to the server's configured
              default.  A non-boolean value, like any unknown request
              member, is rejected with a structured [Bad_request]. *)
      explain : bool;  (** attach the [ischedc explain] JSON payload *)
    }

(** [schedule_request ?scheduler ?issue ?nfu ?n_iters ?sync_elim ?explain
    source] — a [Schedule] with the server-side defaults (new scheduler,
    4-issue, 1 FU copy, no override, server-default elimination, no
    explain payload). *)
val schedule_request :
  ?scheduler:scheduler ->
  ?issue:int ->
  ?nfu:int ->
  ?n_iters:int ->
  ?sync_elim:bool ->
  ?explain:bool ->
  source ->
  request

(** {2 Responses} *)

type loop_reply = {
  loop_name : string;
  doall : bool;
      (** no carried dependence remains after restructuring: nothing to
          schedule, the numeric fields below are all zero *)
  cycles_per_iteration : int;  (** schedule length [l] *)
  lbd_pairs : int;  (** remaining backward pairs after scheduling *)
  parallel_time : int;  (** simulated n-processor finish time *)
  analytic_time : int;  (** {!Isched_core.Lbd_model.exact_time} *)
  rows : int array array;  (** cycle -> body indices (Fig. 4 layout) *)
  explain_payload : Json.value option;  (** present when requested *)
}

type error_code =
  | Oversized_frame
  | Malformed_frame  (** payload is not a well-formed JSON document *)
  | Bad_request  (** well-formed JSON that is not a valid request *)
  | Source_error  (** the source text failed to parse or check *)
  | Unknown_loop  (** no corpus loop with the requested name *)
  | Overloaded  (** accept queue saturated; retry later *)
  | Invalid_schedule
      (** a served schedule failed the [--validate] re-check *)
  | Internal

val error_code_name : error_code -> string

type response =
  | Pong
  | Stats_reply of Json.value
  | Metrics_reply of string
      (** the Prometheus text exposition, verbatim (newline-separated
          [# TYPE]/sample lines) *)
  | Scheduled of { cache_hit : bool; loops : loop_reply list }
      (** [cache_hit] iff every loop of the request was served from the
          schedule cache *)
  | Error of { code : error_code; message : string }

(** [response_to_json r] — the JSON value {!encode_response} prints. *)
val response_to_json : response -> Json.value

(** [decode_request s] / [decode_response s] — parse the payload string
    and decode, never raising: [Malformed_frame] when [s] is not JSON,
    [Bad_request] for a JSON value of the wrong shape. *)

val decode_request : string -> (request, error_code * string) result
val decode_response : string -> (response, error_code * string) result

val encode_request : request -> string  (** the JSON payload, unframed *)

val encode_response : response -> string

(** [render_loop_reply r] — the canonical JSON rendering of one loop
    reply; what [encode_response] embeds for it. *)
val render_loop_reply : loop_reply -> string

(** [encode_scheduled ~cache_hit rendered] — assemble a [Scheduled]
    response from pre-rendered loop replies.  Byte-identical to
    [encode_response (Scheduled _)] over the same replies (the server's
    warm path; pinned by a test). *)
val encode_scheduled : cache_hit:bool -> string list -> string

(** {2 Framing} *)

(** [frame payload] — the length prefix followed by [payload].  Raises
    [Invalid_argument] when the payload exceeds {!max_frame}. *)
val frame : string -> string

type read_result =
  | Frame of string  (** one complete payload *)
  | Eof  (** the peer closed before any byte of a new frame *)
  | Truncated  (** the peer closed mid-frame *)
  | Oversized of int  (** declared length; the payload was not read *)
  | Stopped  (** [stop ()] turned true while waiting *)

(** [read_frame ?stop ?max_frame fd] blocks (polling [stop] about every
    100 ms) until one full frame, end of stream, or an oversized length
    prefix.  Never raises on peer-driven conditions; [Unix.Unix_error]
    can still escape for local descriptor failures. *)
val read_frame : ?stop:(unit -> bool) -> ?max_frame:int -> Unix.file_descr -> read_result

(** A per-connection read buffer: a frame that arrived whole (the
    common case) costs one [read] syscall instead of two polled reads.
    Bytes past the current frame stay buffered for the next call, so a
    connection must use one reader for its whole life. *)
type reader

val reader : Unix.file_descr -> reader

(** [read_frame_buffered ?stop ?max_frame r] — {!read_frame} through
    [r]'s buffer.  Without [stop] the wait is a plain blocking read;
    with it, readiness is polled (about every 100 ms) as in
    {!read_frame}. *)
val read_frame_buffered : ?stop:(unit -> bool) -> ?max_frame:int -> reader -> read_result

(** [write_frame fd payload] writes the frame, handling short writes.
    Raises [Invalid_argument] on an oversized payload and
    [Unix.Unix_error] on a dead peer (callers treat that as the
    connection ending). *)
val write_frame : Unix.file_descr -> string -> unit
