(** The one histogram bucket scheme, shared by {!Counters}
    distributions, {!Rolling} windows and the load generator ([ischedc load]).

    A histogram is an [int array] of {!n_buckets} counts.  Bucket 0
    holds every negative sample; buckets 1..64 hold the exact values
    0..63; above 63 each power of two splits into four equal
    sub-buckets, up to [max_int].  A bucket is reported by its upper
    bound, which overshoots any sample in it by at most 25%. *)

(** [n_buckets] = 289. *)
val n_buckets : int

(** [index v] — the bucket holding [v], in [0 .. n_buckets - 1]. *)
val index : int -> int

(** [upper i] — the largest value bucket [i] holds: [-1] for the
    negatives bucket, the value itself below 64, and at most
    [1.25 v + 1] for any [v] the bucket holds above that. *)
val upper : int -> int

(** [quantile counts p] — nearest-rank [p]-quantile ([0 < p <= 1]) of
    the samples counted in [counts], reported as the covering bucket's
    {!upper} bound; 0 when [counts] is all zeros. *)
val quantile : int array -> float -> int
