(** Resource reservation table for schedule construction.

    Tracks, per cycle, the issue slots used and the occupancy of every
    function-unit kind.  A non-pipelined unit is busy for its full
    latency starting at the issue cycle; a pipelined one only at the
    issue cycle.  Synchronization operations consume an issue slot but
    no unit. *)

module Machine := Isched_ir.Machine
module Instr := Isched_ir.Instr

type t

val create : Machine.t -> t

(** [scratch m] — a per-domain pooled tracker, reset for [m] instead of
    freshly allocated.  The returned value is invalidated by the next
    [scratch] call on the same domain, so it must not be retained past
    one schedule construction or used concurrently with another
    tracker from [scratch]; callers needing an independent long-lived
    tracker use {!create}. *)
val scratch : Machine.t -> t

(** [fits t ~cycle i] — can [i] issue at [cycle]? *)
val fits : t -> cycle:int -> Instr.t -> bool

(** [fu_code i] — [i]'s unit demand as an int: [-1] for none (sync
    operations), otherwise [Fu.index] of its kind.  The code-taking
    variants below are the schedulers' hot path: they skip re-deriving
    the demand from the instruction on every probe (callers precompute
    the codes once per body, e.g. {!Isched_dfg.Dfg.fu_codes}). *)
val fu_code : Instr.t -> int

(** [fits_code t ~cycle k] — {!fits} with a precomputed {!fu_code}. *)
val fits_code : t -> cycle:int -> int -> bool

(** [issue_free t ~cycle] — is at least one issue slot open at [cycle]?
    When false, {!fits} is false for every instruction: worklist loops
    use this to stop probing candidates once a cycle is full. *)
val issue_free : t -> cycle:int -> bool

(** [reject_reason t ~cycle i] — [None] exactly when {!fits} holds;
    otherwise the first constraint refusing the cycle, rendered for
    provenance (e.g. ["issue width full (4/4)"], ["mul busy (1/1) at
    cycle 3"]).  Pure query; never perturbs placement. *)
val reject_reason : t -> cycle:int -> Instr.t -> string option

(** [reserve t ~cycle i] commits the resources.  Raises
    [Invalid_argument] when it does not fit (callers must check). *)
val reserve : t -> cycle:int -> Instr.t -> unit

(** [reserve_code t ~cycle k] — {!reserve} with a precomputed
    {!fu_code}. *)
val reserve_code : t -> cycle:int -> int -> unit

(** [first_fit t ~from i] — the smallest cycle [>= from] where [i]
    fits.  The scan is bounded by the tables' horizon (all later cycles
    are free): if [i] does not fit on an empty cycle — a degenerate
    machine with no copies of the required unit — it raises
    [Invalid_argument] instead of spinning. *)
val first_fit : t -> from:int -> Instr.t -> int

(** [first_fit_code t ~from k] — {!first_fit} with a precomputed
    {!fu_code}. *)
val first_fit_code : t -> from:int -> int -> int

(** [flush_probes t] merges the probe lengths of [t]'s {!first_fit}
    calls since the last flush into the [resource.first_fit.probes]
    distribution; a scheduler calls it once per schedule. *)
val flush_probes : t -> unit
