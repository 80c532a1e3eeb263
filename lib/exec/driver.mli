(** Corpus execution: one per-file query engine behind two doors.

    Regions of distinct files never overlap, so a corpus query is
    prepared once ({!Oqf.Execute.prepare}), executed independently per
    file ({!Oqf.Execute.exec}), and the answers merge by concatenation
    in corpus order.  Both entry points are the same engine — one qlog
    record ([qctx]) around the result cache protocol ([cache]) around
    the preparation and the per-file recovery ladder ([fail_policy]) —
    and differ only in where each file's task runs: {!run_parallel}
    submits one task per file to a private {!Pool}, {!run_streaming}
    to the caller's shared pool.  A private pool of one worker is
    never spawned: each file's task runs on the caller instead, when
    its turn comes.  A batch of queries ([oqf batch]) is a loop over
    {!run_streaming} on one shared pool (over [run_parallel ~jobs:1]
    at one job): queries in order, each query's files in parallel.  The rows are {e identical} to the
    sequential reference {!Oqf.Corpus.run}'s (qcheck-verified in the
    test suite). *)

type fail_policy =
  | Fail_fast
      (** any failure fails the query, naming the earliest failing
          file in corpus order (the historical behaviour) *)
  | Partial
      (** failed files are excluded; the outcome carries a
          {!Oqf.Degrade} report saying which and why *)
  | Degrade
      (** per-file recovery ladder before giving up: a failed file
          falls back to a naive scan of its raw bytes
          ({!Oqf.Execute.run_naive}, on the caller, bounded by the
          same per-file [timeout_ms] as the task it replaces), and
          only a file with no remaining path to its data, or whose
          scan runs out of time, is excluded.  A per-source
          circuit breaker ({!Stdx.Retry.Breaker}) stops a flapping
          file from burning the retry budget on every query.  Rows
          are byte-identical to a fault-free run whenever every file
          still has some path to its data. *)

val fail_policy_of_string : string -> (fail_policy, string) result
(** ["fail-fast"], ["partial"] or ["degrade"]. *)

val fail_policy_to_string : fail_policy -> string

type outcome = {
  rows : (string * Odb.Query_eval.row) list;
      (** answer rows tagged with their file, in corpus order *)
  per_file : (string * Oqf.Execute.outcome) list;
      (** corpus order; empty when served from the cache.  Only files
          answered from their index appear — naive-fallback files are
          in [rows] and [degraded] instead. *)
  stats : Stdx.Stats.t;
      (** work across the whole run, recovery work included.  Under
          concurrency the global counters interleave, so per-file
          stats inside [per_file] may include neighbouring files'
          work; this field diffs around the whole fan-out and stays
          exact. *)
  from_cache : bool;
  cache_superset : string option;
      (** [Some q] when the result was served by filtering the cached
          rows of superset query [q] (canonical text) instead of an
          exact cache entry or a fresh evaluation; the qlog record
          carries it as an [rcache.containment] event *)
  degraded : Oqf.Degrade.t list;
      (** every recovery action taken, in corpus order; [[]] for a
          clean run.  A degraded outcome is
          never written to the result cache. *)
}

val default_jobs : unit -> int
(** The [OQF_JOBS] environment variable when it parses as a positive
    integer, else 1. *)

val run_parallel :
  ?optimize:bool ->
  ?explain:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  ?jobs:int ->
  ?cache:Rcache.t ->
  ?timeout_ms:float ->
  ?fail_policy:fail_policy ->
  ?qctx:Obs.Qlog.ctx ->
  Oqf.Corpus.t ->
  Odb.Query.t ->
  (outcome, string) result
(** [jobs] defaults to {!default_jobs}; a cache miss on a corpus of
    two or more files with [jobs >= 2] spawns a pool of
    [min jobs (number of files)] workers for this query and submits
    one task per file, whose body retries the [pool.task] fault site
    ({!Stdx.Retry.io}).  When [min jobs (number of files)] is 1 no
    domain is spawned: each file's task — the same body, through
    {!Pool.capture} — runs on the caller when its turn comes.
    [timeout_ms] bounds each file's task (expiry fails that file like
    an evaluation error).  Once the query is answered or has failed,
    tasks that have not started skip their files, so under
    [Fail_fast] an error at one file cancels the files still queued
    behind it.  [force] and [plan_mode] reach {!Oqf.Execute.prepare}
    (execute despite a refusal by static analysis / select the
    planner), [explain] {!Oqf.Execute.exec} (fill each file's EXPLAIN
    ANALYZE annotations).  With [cache], a hit skips preparation and
    evaluation entirely, a resident {e superset} entry answers by
    filtering its rows ({!Rcache.find_contained} — byte-identical,
    recorded in [cache_superset]), and a successful non-degraded run
    populates the cache.  A miss prepares the query once per distinct
    index set, on the set's first file, before any file runs; a failed
    preparation (validation failure, unknown class, unforced refusal)
    would fail every file alike, so it fails the query under every
    policy, naming that file.  [fail_policy] (default {!Fail_fast})
    decides what a file's failure does; under [Fail_fast] errors name
    the failing file — deterministically the earliest one in corpus
    order, task failures included.  [jobs < 1] is rejected as an
    error.  An empty corpus answers [Ok] with no rows and spawns no
    pool.

    [qctx] (here and on every driver entry point): when present and a
    query log is installed ({!Obs.Qlog.install}), the run appends
    exactly one qlog record — whole-query latency, row count, cache
    hit, outcome, the degradation/retry/fault events observed during
    the run, and the phase-1 [candidates] and planner [est_cost]
    summed over [per_file] — under [qctx]'s trace id, and observes the
    whole-query latency in the [exec.query_ms{workload}] histogram.
    This is the only qlog writer of a query: the per-file
    {!Oqf.Execute.exec} calls underneath write none, so a driven query
    logs once, not once per file. *)

val run_streaming :
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  ?cache:Rcache.t ->
  ?timeout_ms:float ->
  ?fail_policy:fail_policy ->
  ?qctx:Obs.Qlog.ctx ->
  ?generation:int ->
  pool:Pool.t ->
  on_rows:(file:string -> Odb.Query_eval.row list -> unit) ->
  Oqf.Corpus.t ->
  Odb.Query.t ->
  (outcome, string) result
(** The serve daemon's per-request path: the engine of
    {!run_parallel} on a {e shared} long-lived [pool] — one task per
    corpus file, so concurrent requests interleave at file granularity
    instead of monopolising workers.  The handles are awaited in
    corpus order, and [on_rows] gets each file's rows as soon as that
    file settles — the client streams file [k]'s answers while later
    files are still scanning.
    [on_rows] runs on the caller's thread and is never called with an
    empty row list.  Each task is a whole {!Oqf.Execute.exec} of its
    file, so the first rows arrive once the first file settles, not
    earlier.

    The returned outcome is {!run_parallel}'s for the same corpus and
    query (qcheck-verified): same cache protocol (a hit replays the
    payload through [on_rows] in per-file blocks), same per-file
    [timeout_ms] and [fail_policy] ladder, settling each file as its
    task is awaited.  Note that under [Fail_fast] an error can arrive
    {e after} rows have already been streamed — the wire protocol
    surfaces this as an error event terminating the row stream.
    Queued tasks of a query that has failed, or whose [on_rows]
    raised (a client that hung up), skip their files instead of
    evaluating them on the shared pool.

    [generation]: the catalog generation the corpus was pinned at,
    recorded in the qlog record's [gen] field — omitted when absent
    (static corpus). *)
