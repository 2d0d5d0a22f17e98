(** Bounded, striped, compute-coalescing cache: the one cache
    implementation behind both the pipeline's prepare memo
    ({!Isched_harness.Pipeline.prepare}) and the scheduling service's
    schedule cache.

    The cache is striped: [stripes] independent (mutex, LRU list) pairs
    indexed by the key's hash, so concurrent lookups of different keys
    take different locks.  It is bounded: the total capacity is split
    evenly across stripes and each stripe evicts its least-recently-used
    ready entry when its share is exceeded.

    Lookups are compute-coalescing: when several domains ask for the
    same absent key at once, exactly one runs the compute function and
    the rest block until the value is ready (the "exactly-once compute
    per key" guarantee the test suite hammers).  If the compute
    function raises, the placeholder is removed, the waiters retry (one
    of them becomes the new computer) and the exception propagates to
    the original caller.

    Counters: a cache created with [~name] registers [<name>.hit],
    [<name>.miss], [<name>.evict] and [<name>.coalesced] (lookups that
    waited on another domain's in-flight compute; they also count as
    hits).  An unnamed cache counts nothing. *)

type ('k, 'v) t

(** [create ?name ?stripes ~capacity ~hash ~equal ()] — [capacity]
    (>= 1) is the total bound; [name] registers the counters above;
    [stripes] (default 16) must divide the work of [hash] evenly for
    balance but any positive count is legal (tests use 1 stripe for
    exact global LRU order).  Each stripe holds at most
    [ceil (capacity / stripes)] (minimum 1) ready entries. *)
val create :
  ?name:string ->
  ?stripes:int -> capacity:int -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit ->
  ('k, 'v) t

(** [find_or_compute c k f] — [(v, hit)] where [hit] says the value was
    already cached (including the coalesced-wait case).  [f] runs
    without any cache lock held. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool

(** [find_or_compute_v c k f] — like {!find_or_compute} but with the
    full verdict: [`Hit] (value was ready), [`Coalesced] (waited on
    another domain's in-flight compute), [`Miss] (this caller ran [f]).
    A waiter whose computer failed retries and reports the retried
    outcome. *)
val find_or_compute_v :
  ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * [ `Hit | `Miss | `Coalesced ]

(** [find c k] — a plain probe, counting and touching like a hit;
    [None] also when the key is currently being computed. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [remove c k] — drop the entry if present and ready (an in-flight
    compute is left to finish; its insertion then stands). *)
val remove : ('k, 'v) t -> 'k -> unit

(** [iter c f] — every ready entry, stripe by stripe, under each
    stripe's lock; [f] must not call back into the cache.  Order within
    a stripe is most-recently-used first.  (The fault-injection test
    uses this to corrupt a cached schedule in place.) *)
val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit

(** [length c] — ready entries across all stripes. *)
val length : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int

(** [stripe_lengths c] — ready entries per stripe, in stripe index
    order (the per-stripe occupancy surfaced by the daemon's [Stats]
    and [Metrics] replies). *)
val stripe_lengths : ('k, 'v) t -> int array

(** [clear c] drops every ready entry (in-flight computes survive). *)
val clear : ('k, 'v) t -> unit
