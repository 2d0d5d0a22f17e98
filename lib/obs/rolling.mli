(** Fixed-bucket sliding-window latency histograms.

    A [Rolling.t] is a ring of [buckets] time buckets, each [width_ns]
    wide (default 60 × 1 s).  An observation lands in the bucket of its
    timestamp's epoch ([now_ns / width_ns]); a bucket is lazily cleared
    the first time a newer epoch maps onto it, so {!stats} always
    reflects the last [buckets × width_ns] of traffic — quantiles say
    what the service is doing {e now}, not since boot (the since-boot
    view is {!Counters}).

    Time is always supplied by the caller ([~now_ns]), never read from a
    clock inside the module, so window rotation is deterministic under
    test (inject a fake [now]) and the serving hot path pays for exactly
    one [gettimeofday] of its own choosing.

    Latencies are bucketed in the {!Hist} scheme: exact below 64 ns,
    then four sub-buckets per power of two, so a reported quantile
    overshoots the true value by at most 25% (it is the covering
    bucket's upper bound).

    Every entry point takes the instance's lock; an observation is a
    few integer increments under it, cheap enough for a request path
    serving tens of microseconds per request. *)

type t

(** [create ?buckets ?width_ns ()] — a window of [buckets] (default 60)
    buckets of [width_ns] (default 1 s) each.  Raises
    [Invalid_argument] unless both are >= 1. *)
val create : ?buckets:int -> ?width_ns:int -> unit -> t

(** [observe t ~now_ns ~latency_ns ~flagged] records one event at
    absolute time [now_ns].  [flagged] is a per-event boolean tallied
    separately — the server uses it for error responses on the request
    window and for cache misses on the cache window.  A negative
    latency clamps to 0; an observation older than the whole window is
    dropped. *)
val observe : t -> now_ns:int -> latency_ns:int -> flagged:bool -> unit

type stats = {
  count : int;  (** events in the live window *)
  flagged : int;
  rate : float;
      (** events per second, over the span actually covered: from the
          oldest live non-empty bucket's start to [now_ns] — accurate
          for a freshly started service, converging to the window
          average once the ring is warm *)
  flagged_ratio : float;  (** [flagged / count]; 0 when [count = 0] *)
  p50_ns : int;  (** nearest-rank, bucket upper bound; 0 when empty *)
  p99_ns : int;
  p999_ns : int;
  window_ns : int;  (** the configured span, [buckets × width_ns] *)
}

(** [stats t ~now_ns] — merge the live buckets (epochs within the
    window ending at [now_ns]); expired buckets are excluded exactly,
    whether or not an observation has recycled them yet. *)
val stats : t -> now_ns:int -> stats

val reset : t -> unit

(** [render_prometheus ~name t ~now_ns] — the window's summary as
    Prometheus text-format gauges: [<name>_p50_seconds], [_p99_seconds],
    [_p999_seconds], [_rate], [_flagged_ratio] and [_count], each with
    its [# TYPE] header.  [name] must already be a valid metric name
    (see {!Counters.render_prometheus} for the mangling rules). *)
val render_prometheus : name:string -> t -> now_ns:int -> string
