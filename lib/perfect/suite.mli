(** The five benchmark corpora: hand-written signature loops (readable,
    domain-flavoured, parsed from source text) plus the generated loops
    of {!Genloop}.  Everything is deterministic. *)

module Ast := Isched_frontend.Ast

type benchmark = {
  profile : Profile.t;
  loops : Ast.loop list;  (** signature loops first, then generated *)
}

(** [load ?scale p] builds one corpus.  [scale] (default 1) multiplies
    the generated-loop count; the unscaled corpus is a prefix of every
    scaled one.  Large scales should prefer the streaming API below. *)
val load : ?scale:int -> Profile.t -> benchmark

(** [all ()] — the five corpora in paper order
    (FLQ52, QCD, MDG, TRACK, ADM). *)
val all : unit -> benchmark list

(** {2 Corpus enumeration}

    The one place that knows how a "corpus walk" is spelled: the CLI
    ([ischedc check --corpus], [ischedc serve], [ischedc load]) and the
    table builders all enumerate through these, so they can
    never disagree about which loops the corpus contains (pinned by a
    regression test). *)

(** [profiles ()] — the profile list a corpus walk covers: all five,
    in paper order. *)
val profiles : unit -> Profile.t list

(** [all_loops ()] — every loop of [all ()], flattened in paper order
    (signature loops before generated ones within each corpus). *)
val all_loops : unit -> Ast.loop list

(** [find_loop name] — the corpus loop called [name] (e.g. ["QCD.L1"]
    for a signature loop, ["FLQ52.G3"] for a generated one).  Names are
    unique across the five corpora.  The index over the full unscaled
    corpus is built lazily on first use and retained; safe to call from
    several domains. *)
val find_loop : string -> Ast.loop option

(** A bounded slice of one benchmark's loop stream: generated-loop
    indices [lo, hi), plus the hand-written signature loops when
    [with_signature] (true only for the first chunk).  Chunks are
    independent — any domain can materialize any chunk in any order
    with identical results — which is what lets [ischedc tables --scale N] run a 100×–1000×
    corpus without ever holding it in memory. *)
type chunk = { profile : Profile.t; lo : int; hi : int; with_signature : bool }

(** [chunks ?chunk_size ~scale p] — descriptors covering the whole
    scaled stream of [p] ([chunk_size] generated loops each,
    default 64). *)
val chunks : ?chunk_size:int -> scale:int -> Profile.t -> chunk list

(** [chunk_loops c] materializes one chunk. *)
val chunk_loops : chunk -> Ast.loop list

(** [signature_loops p] — the parsed, checked hand-written loops. *)
val signature_loops : Profile.t -> Ast.loop list

(** [signature_sources p] — the hand-written loops' source text (used by
    the quickstart example and the docs). *)
val signature_sources : Profile.t -> string
