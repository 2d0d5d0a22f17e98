(** Process-wide registry of monotonic counters and value distributions.

    Instrumentation sites hoist a handle once at module initialisation
    ([let c = Counters.counter "resource.first_fit.probes"]) and then
    update it with plain atomic operations — no table lookup, no lock on
    the hot path, safe from any domain.  Collection is on by default
    (an update is one or two [Atomic] operations) and can be switched
    off entirely with {!set_enabled} to measure the floor.

    Naming convention mirrors spans: [<subsystem>.<metric>], e.g.
    [pipeline.memo.hit], [timing.extrapolated], [pool.queue_depth]
    (see doc/observability.md for the full schema). *)

type counter
type dist

(** [counter name] — find or register the monotonic counter [name].
    Raises [Invalid_argument] if [name] is registered as a distribution. *)
val counter : string -> counter

(** [dist name] — find or register the distribution [name].  Raises
    [Invalid_argument] if [name] is registered as a counter. *)
val dist : string -> dist

val incr : counter -> unit
val add : counter -> int -> unit

(** [value c] — current value of [c]. *)
val value : counter -> int

(** [observe d v] records one sample.  Distributions keep count, sum,
    min, max and a {!Hist} histogram: one bucket for negatives, one per
    exact value in [0..63], four per power of two above. *)
val observe : dist -> int -> unit

(** [observe_counts d counts] records [counts.(v)] samples of value [v]
    for every index [v], exactly as that many {!observe} calls would:
    a batch the caller tallied locally, merged in one pass. *)
val observe_counts : dist -> int array -> unit

type dist_stats = {
  count : int;
  sum : int;
  min_v : int;  (** meaningless when [count = 0] *)
  max_v : int;  (** meaningless when [count = 0] *)
  buckets : (int * int) list;
      (** non-empty buckets as [(upper bound, count)], ascending:
          [-1] stands for "any negative value", bounds below 64 are the
          exact sample value, larger ones cover the values down to the
          previous bound + 1 (see {!Hist.upper}) *)
}

val dist_stats : dist -> dist_stats

type entry = Counter of int | Dist of dist_stats

(** [snapshot ()] — every registered metric, sorted by name. *)
val snapshot : unit -> (string * entry) list

(** [find name] — look a metric up by name. *)
val find : string -> entry option

(** [reset ()] zeroes every metric; existing handles remain valid. *)
val reset : unit -> unit

(** [reset_counter c] zeroes one counter (e.g. for scoped measurements). *)
val reset_counter : counter -> unit

(** [set_enabled b] — when off, {!incr}/{!add}/{!observe} are no-ops. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [render ()] — human-readable dump of {!snapshot}, one metric per
    line, for the [--counters] CLI flags. *)
val render : unit -> string

(** [prometheus_name name] — [name] mangled to a valid Prometheus
    metric name: an [isched_] prefix, then every byte outside
    [a-zA-Z0-9] mapped to ['_'] (so [serve.cache.hits] becomes
    [isched_serve_cache_hits]). *)
val prometheus_name : string -> string

(** [render_prometheus ()] — {!snapshot} in the Prometheus text
    exposition format: counters as [# TYPE … counter] singles,
    distributions as [# TYPE … histogram] with cumulative
    [_bucket{le="…"}] lines, one per non-empty {!Hist} bucket at its
    upper bound (negatives under [le="-1"]), then [+Inf], [_sum] and
    [_count].  Deterministic:
    entries come out byte-lexicographically sorted by name. *)
val render_prometheus : unit -> string

(** [to_value ()] — {!snapshot} as one JSON object: counters as numbers,
    distributions as [{"count","sum","min","max","buckets"}] objects,
    where ["buckets"] lists the non-empty histogram buckets as
    [[upper bound, count]] pairs (the convention of {!dist_stats}). *)
val to_value : unit -> Json.value
