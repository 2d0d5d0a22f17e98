(** The scheduling daemon behind [ischedc serve]: a Unix-domain-socket
    server answering {!Protocol} requests with schedules, LBD
    accounting and optional explain payloads.

    Architecture (doc/serving.md has the full story):

    - one accept loop (the calling domain) feeding a {e bounded} queue
      of accepted connections; when the queue is full the connection is
      answered with a structured [overloaded] error and closed
      immediately — backpressure instead of unbounded buffering;
    - [workers] persistent worker domains, spawned once for the
      server's lifetime (the lesson of the PR-5 domain pool: domain
      spawn is a stop-the-world event, so it must be off the request
      path), each serving whole connections frame by frame;
    - a digest-keyed schedule {!Isched_util.Cache} in front of the
      pipeline, so repeat traffic costs a striped-LRU probe instead of
      a restructure + codegen + schedule + simulate pass.  The pipeline
      half runs uncached ({!Isched_harness.Pipeline.prepare_uncached});
      explain requests go through the equally bounded prepare memo.
      The LRU bounds keep the daemon's RSS bounded under arbitrary
      traffic (the soak test pins this);
    - graceful drain: {!stop} (or SIGTERM/SIGINT via
      {!install_signal_handlers}) stops the accept loop, lets every
      queued and in-flight request finish, closes the connections at
      the next frame boundary, joins the workers and removes the
      socket.

    Counters: [serve.requests], [serve.errors], [serve.overloaded],
    [serve.connections], [serve.queue_depth] plus the [serve.cache.*]
    family — all visible through the [stats] request and the
    [--counters] flag. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains (>= 1) *)
  queue_capacity : int;
      (** accepted connections waiting for a worker; 0 rejects
          whatever the workers cannot pick up instantly *)
  cache_capacity : int;  (** schedule cache entries (>= 1) *)
  cache_stripes : int;
  validate : bool;
      (** re-check every served schedule (cache hits included) with the
          independent {!Isched_check.Static} analyzer; a corrupt entry
          is evicted and reported as an [invalid_schedule] error, never
          served *)
  sync_elim : bool;
      (** default for requests that do not carry a [sync_elim] member:
          run the {!Isched_sync.Elim} redundant-synchronization
          elimination pass.  The resolved setting is part of the
          schedule-cache key, so the two settings never share an
          entry. *)
  slow_ms : float;
      (** requests slower than this (decode through socket write) are
          promoted to the retained {!Isched_obs.Reqlog} slow-log and
          counted under [serve.slow_requests]; [create] installs it as
          the process-wide {!Isched_obs.Reqlog.set_slow_threshold_ns} *)
  metrics_file : string option;
      (** when set, the accept loop dumps the Prometheus exposition to
          this path (write-temp-then-rename, so a scraper never reads a
          torn file) every [metrics_interval] seconds *)
  metrics_interval : float;  (** seconds between [metrics_file] dumps *)
}

(** [default_config ~socket_path] — 4 workers, queue 64, cache 1024
    over 16 stripes, no validation, no elimination, 100 ms slow
    threshold, no metrics file (5 s interval when one is set). *)
val default_config : socket_path:string -> config

type t

(** [create config] builds the handler state (cache included) without
    touching the filesystem; {!handle} works immediately — the test
    suite drives it without a socket. *)
val create : config -> t

val config : t -> config

(** [handle t req] — answer one request.  Never raises: internal
    failures become [Error { code = Internal; _ }] responses. *)
val handle : t -> Protocol.request -> Protocol.response

(** [run ?on_ready t] binds the socket (unlinking a pre-existing one),
    spawns the workers, calls [on_ready ()] once accepting, and blocks
    until {!stop}.  On return the workers are joined and the socket
    file removed.  SIGPIPE is ignored for the whole process (a client
    hanging up mid-response must not kill the daemon). *)
val run : ?on_ready:(unit -> unit) -> t -> unit

(** [stop t] — request a graceful drain; safe from any domain and from
    a signal handler (it only flips an atomic).  {!run} notices within
    ~100 ms. *)
val stop : t -> unit

(** [install_signal_handlers t] — SIGTERM and SIGINT call [stop t]. *)
val install_signal_handlers : t -> unit

(** [requests_served t] — total requests answered (including error
    responses) since [create].  Request ids are assigned from this
    counter, so ids are dense and monotonically increasing. *)
val requests_served : t -> int

(** [metrics_exposition t] — the Prometheus text exposition the
    [Metrics] verb and the [--metrics-file] dumps serve: every
    registered counter/distribution ({!Isched_obs.Counters.render_prometheus}),
    the request and cache sliding windows
    ([isched_serve_window_*], [isched_serve_cache_window_*]) and the
    server gauges (cache occupancy total and per stripe, queue
    capacity/high-water, worker counts).  doc/observability.md has the
    name table. *)
val metrics_exposition : t -> string

(** {2 Test hooks} *)

(** [cache_length t] — ready entries in the schedule cache. *)
val cache_length : t -> int

(** [cache_key_hash l ~scheduler ~issue ~nfu options] — the schedule
    cache's stripe hash, pinned for the benchmark's replica:
    [l.digest lxor Hashtbl.hash (scheduler, issue, nfu, options.n_iters,
    options.sync_elim)]. *)
val cache_key_hash :
  Isched_frontend.Ast.loop ->
  scheduler:Protocol.scheduler ->
  issue:int ->
  nfu:int ->
  Isched_harness.Pipeline.options ->
  int

(** [corrupt_cached_schedules t] — fault injection for the validation
    test: overwrite the issue cycle of every instruction of every
    cached schedule with cycle 0, which breaks the row layout/occupancy
    invariants the static checker re-derives.  Returns how many entries
    were corrupted. *)
val corrupt_cached_schedules : t -> int
