(** A bounded LRU cache of loaded index instances.

    Repeated queries against the same catalog entry should not reload
    (and re-derive the word index of) the persisted file each time.  The
    cache holds whole instances under a configurable memory budget,
    evicting the least recently used entry when the budget is exceeded.
    Hit/miss/eviction counts are kept per cache and mirrored into the
    ambient {!Stdx.Stats.global} counters, so query outcomes report
    cache traffic alongside the paper's work quantities.

    The cache is internally locked: watch-mode ingest inserts rebuilt
    instances from a background domain while reader threads serve
    pinned snapshots, so every operation is safe to call
    concurrently. *)

type t

val create : budget_bytes:int -> t
(** A cache that keeps at most [budget_bytes] worth of instances (as
    estimated by {!cost_of_instance}). *)

val find : t -> string -> Pat.Instance.t option
(** Lookup by key, recording a hit (and refreshing recency) or a miss. *)

val add : t -> string -> Pat.Instance.t -> unit
(** Insert, evicting least-recently-used entries until the budget
    holds under the entries' current costs.  An instance costing more
    than the whole budget is simply not cached.  Replaces any previous
    entry under the same key. *)

val remove : t -> string -> unit
(** Drop one entry (e.g. after its source file changed).  Not counted
    as an eviction. *)

val count : t -> int
val used_bytes : t -> int
val budget_bytes : t -> int

val cost_of_instance : Pat.Instance.t -> int
(** Estimated resident bytes: text + the suffix-array slots collected
    so far ({!Pat.Suffix_array.collected_slots}) + regions.  Grows as
    searches collect buckets; {!add} re-costs the resident entries
    before it evicts. *)

type stats = { hits : int; misses : int; evictions : int }

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
