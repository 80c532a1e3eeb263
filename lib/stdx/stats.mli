(** Execution instrumentation.

    The benchmark harness reports, besides wall-clock time, the *work*
    quantities the paper argues about: bytes of file content scanned or
    parsed, number of index operations, number of region comparisons,
    number of database objects constructed.

    This module is a thin facade over the {!Obs.Metrics} registry: each
    quantity below is a registry counter named [engine.<field>], so the
    same cells are visible both here (as the paper-facing record
    {!type:t}) and through the registry (for dumps, tracing sinks and
    cross-cutting tooling).  Components increment the counters in
    place; harnesses snapshot and diff them. *)

type counter = Obs.Metrics.counter

val bytes_scanned : counter
(** bytes of raw file content read outside the index
    ([engine.bytes_scanned]) *)

val bytes_parsed : counter
(** bytes fed through a structuring-schema parse
    ([engine.bytes_parsed]) *)

val index_ops : counter
(** region-algebra operator applications ([engine.index_ops]) *)

val region_comparisons : counter
(** pairwise region endpoint comparisons
    ([engine.region_comparisons]) *)

val word_lookups : counter
(** word-index (suffix-array) searches ([engine.word_lookups]) *)

val objects_built : counter
(** database objects/tuples materialised ([engine.objects_built]) *)

val regions_produced : counter
(** total regions output by index ops ([engine.regions_produced]) *)

val cache_hits : counter
(** instance-cache lookups served from memory ([engine.cache_hits]) *)

val cache_misses : counter
(** instance-cache lookups that went to disk ([engine.cache_misses]) *)

val cache_evictions : counter
(** instances dropped to stay within the cache budget
    ([engine.cache_evictions]) *)

val incr : counter -> unit
(** Add one (re-exported from {!Obs.Metrics} so counting components
    need no direct [obs] dependency). *)

val add_to : counter -> int -> unit
(** Add a batch amount. *)

val value : counter -> int
(** Current value of the live counter. *)

(** {1 Snapshots} *)

type t = {
  mutable bytes_scanned : int;
  mutable bytes_parsed : int;
  mutable index_ops : int;
  mutable region_comparisons : int;
  mutable word_lookups : int;
  mutable objects_built : int;
  mutable regions_produced : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
}
(** A point-in-time copy of the counters (or a field-wise difference of
    two such copies). *)

val create : unit -> t
(** All-zero snapshot value. *)

val reset : t -> unit
(** Zero every field of a snapshot in place. *)

val snapshot : unit -> t
(** Copy the current live counter values out of the registry. *)

val diff : before:t -> after:t -> t
(** Field-wise [after - before]. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] field-wise. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering.  Cache counters are appended only
    when at least one of them is non-zero, so cache-less executions
    render exactly as before the cache existed. *)
