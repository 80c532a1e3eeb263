(** Watch-mode ingest: a polling watcher for live corpora.

    The north-star workload is a corpus that grows {e while} queries
    stream — tail a log, query continuously.  A watcher turns the
    catalog's explicit-refresh model into continuous ingest: each
    {!scan} stats every entry ({!Catalog.possibly_stale} — size, mtime
    and ctime only, the seam where an inotify event source would plug in),
    refreshes the entries that changed (committing new generations
    that pinned readers never observe mid-query), and retires
    unreferenced generations.

    Robustness: {!start} wraps every scan in {!Stdx.Retry.io} at site
    [watch.scan] (retry with backoff; an exhausted budget is counted
    in [watch.errors] and the watcher keeps running), and each source
    has a circuit breaker ({!Stdx.Retry.Breaker}, key
    [watch:<source>]) so a persistently failing file is skipped
    rather than re-attempted at full cost every pass — probed again
    every few scans so a healed source gets back in.

    Metrics: [watch.scans], [watch.refreshes], [watch.errors], plus
    the catalog's own [catalog.generation] gauge.  When a query log
    is installed, every scan that refreshed or failed something
    appends one record of kind ["watch"]. *)

type event =
  | Refreshed of string * Catalog.refresh
      (** a source was re-indexed (incrementally or rebuilt) *)
  | Failed of string * string  (** refresh failed: (source, reason) *)
  | Skipped of string  (** breaker open; source not attempted *)

type report = {
  scanned : int;  (** entries examined *)
  refreshed : int;  (** entries whose index actually changed *)
  failed : int;
  skipped : int;  (** skipped because their breaker is open *)
  retired : string list;  (** catalog-relative paths the reaper removed *)
  generation : int;  (** current generation after the scan *)
}

val scan : ?lock:Mutex.t -> ?on_event:(event -> unit) -> Catalog.t -> report
(** One synchronous pass.  [lock] (the serve daemon's catalog lock) is
    held around each mutating refresh and the retirement sweep — not
    the whole pass — so concurrent readers only ever wait for one
    commit.  A source whose breaker is open is skipped.  [on_event]
    fires per entry, in catalogue order. *)

type t
(** A running background watcher. *)

val start :
  ?interval_ms:float ->
  ?lock:Mutex.t ->
  ?on_event:(event -> unit) ->
  Catalog.t ->
  t
(** Spawn a domain running {!scan} every [interval_ms] (default 500)
    until {!stop}.  Scans retry transient failures with backoff and
    never kill the watcher; open breakers are probed every few scans.
    [on_event] runs on the watcher domain. *)

val stop : t -> unit
(** Signal the watcher and join its domain (returns after the
    in-flight scan, if any, completes). *)
