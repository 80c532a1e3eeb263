(** The [oqf serve] daemon.

    A long-lived process that opens the catalog {e once}, keeps its
    instance cache and the shared result cache warm, and serves the
    {!Protocol} over a Unix-domain socket (and optionally a minimal
    HTTP endpoint).  Per request:

    + {b admission} — a slot is acquired from {!Admission}; a full
      queue answers the typed [overloaded] event immediately;
    + {b staleness} — every catalog entry of the request's schema is
      re-checked with the stat-only {!Oqf_catalog.Catalog.possibly_stale}
      and refreshed when it might have changed, so a daemon never
      serves a stale instance cache (the [serve.catalog_reloads]
      counter says how often this fires).  With [watch] the background
      watcher ({!Oqf_catalog.Watch}) does the refreshing instead and
      requests skip the per-request stat pass entirely;
    + {b snapshot pin} — the request pins the current catalog
      generation ({!Oqf_catalog.Catalog.pin}) and evaluates purely
      against that immutable snapshot, releasing the pin when its last
      row has been streamed.  A refresh committed mid-request (by
      another request or the watcher) lands in a {e new} generation
      with distinct index files, so in-flight queries never observe a
      half-refreshed corpus — each answer is consistent with exactly
      one generation, recorded in its qlog record's [gen] field;
    + {b analysis gate} — the query is parsed and statically checked
      ({!Oqf.Check}); parse failures and error-severity findings
      answer a [diagnostics] event (same JSON shape as
      [oqf check --format json]) instead of killing the connection,
      and [force] overrides the gate like [--force] does;
    + {b per-file streaming} — {!Exec.Driver.run_streaming} submits
      one task per file to the shared worker pool, each a whole
      two-phase evaluation of its file, and each file's rows go to the
      client as soon as that file settles, while later files are still
      scanning.  A [rexpr] request likewise evaluates each file with
      {!Ralg.Eval.eval_shared} as a pool task under the request's
      remaining budget.

    Shutdown (SIGINT/SIGTERM under {!run}, {!request_shutdown} from
    code) drains: no new requests are admitted, in-flight requests
    finish (bounded by [drain_ms] — stragglers are cut off), sinks are
    flushed, the pool is joined and the socket unlinked.  Requests
    that complete during the drain count in [serve.drained].

    Metrics: [serve.requests], [serve.admitted], [serve.rejected],
    [serve.active], [serve.queue_depth], [serve.connections],
    [serve.drained], [serve.catalog_reloads] and the
    [serve.request_latency_ms] histogram (p50/p95/p99). *)

type config = {
  socket_path : string;
  http_port : int option;  (** also serve HTTP on localhost:port *)
  catalog_dir : string;
  jobs : int;  (** worker domains in the shared pool *)
  max_active : int;  (** concurrently executing requests *)
  max_queue : int;  (** admission queue bound; 0 = reject when busy *)
  default_timeout_ms : float option;
      (** per-file deadline applied when a request carries none *)
  default_fail_policy : Exec.Driver.fail_policy;
      (** applied when a request carries none *)
  drain_ms : float;  (** shutdown grace for in-flight requests *)
  watch : bool;
      (** run a background {!Oqf_catalog.Watch} ingesting source
          changes continuously; requests skip the per-request
          staleness pass *)
  watch_interval_ms : float;  (** watcher poll interval *)
}

val default_config : catalog_dir:string -> socket_path:string -> config
(** jobs 2, max_active 8, max_queue 16, no default timeout,
    fail-policy degrade, drain 2000 ms, no HTTP, no watcher
    (500 ms interval when enabled). *)

type t

val start : config -> (t, string) result
(** Open the catalog, bind the socket(s), spawn the accept loop and
    return.  Fails if the catalog cannot be opened or the socket
    cannot be bound (a stale socket file from a dead daemon is
    replaced). *)

val request_shutdown : t -> unit
(** Begin the drain; idempotent.  Returns immediately. *)

val wait : t -> unit
(** Block until the daemon has fully shut down (accept loop exited,
    connections drained, pool joined, socket unlinked). *)

val run : config -> (unit, string) result
(** [start], install SIGINT/SIGTERM handlers that call
    {!request_shutdown}, then {!wait}.  The CLI's entry point. *)
