(** A bounded LRU cache of corpus query results, with a
    containment-aware lookup layer.

    Keys pair the {e normalized} query text (the canonical rendering
    of the parsed query, so formatting differences collapse) with a
    {e corpus fingerprint} — an MD5 over every member's name, length
    and content digest.  Any change to any member changes the
    fingerprint, so entries are invalidated automatically: after a
    catalog refresh picks up an appended or edited source, the
    rebuilt corpus fingerprints differently, the stale entry can
    never be hit again, and the LRU bound ages it out.

    On top of exact lookup, {!find_contained} serves a query from a
    cached {e superset}: if a resident same-corpus entry's query
    subsumes the probe ({!Oqf.Subsume.subsumes}), the cached rows are
    filtered by the residual conjuncts — byte-identical to a fresh
    evaluation, per the row-decidability contract {!Oqf.Subsume}
    documents and DESIGN §14 proves.  Containment hits count
    separately ([exec.rcache.containment_hits]) and refresh the
    superset entry's LRU stamp.

    All operations are mutex-serialized — batch workers and
    concurrent serve requests on different domains share one cache.  Hits, misses, evictions and containment
    hits feed the [exec.rcache.*] registry counters. *)

type t

val create : ?capacity:int -> ?containment:bool -> unit -> t
(** [capacity] (default 128) bounds the number of resident entries;
    inserting past it evicts the least recently used.  [containment]
    (default [true]) enables the subsumption lookup layer; pass
    [false] to restrict the cache to exact hits (the escape hatch, and
    the baseline the CT1 benchmark compares against). *)

type key

val key : query:Odb.Query.t -> fingerprint:string -> key
(** Normalizes the query via its canonical rendering, and retains the
    parsed query for subsumption probing. *)

val fingerprint : Oqf.Corpus.t -> string
(** {!Oqf.Corpus.fingerprint}: hex MD5 over the corpus members' (name,
    length, content digest) triples, in corpus order.  The corpus
    computes it once and keeps it, so a warm lookup costs no hashing;
    serve, which keeps one corpus per catalog generation, hashes its
    text once per generation. *)

type payload = (string * Odb.Query_eval.row) list
(** Result rows tagged with the file they came from, in corpus order
    — the [rows] of an {!Driver.outcome}, whichever entry point
    computed them, so a payload cached by one path serves them all. *)

val find : t -> key -> payload option
(** Exact lookup; counts a hit or a miss. *)

val find_contained : t -> key -> (payload * string) option
(** Subsumption lookup, tried after {!find} misses: the filtered rows
    plus the canonical text of the superset query that served them.
    Among several resident supersets the smallest payload wins (least
    filtering work).  [None] when no resident entry subsumes the
    probe, or when the cache was created with [~containment:false]. *)

val add : t -> key -> payload -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  containment_hits : int;
  entries : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
