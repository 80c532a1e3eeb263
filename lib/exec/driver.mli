(** Parallel corpus execution.

    [run_parallel] is the multicore twin of {!Oqf.Corpus.run}: it
    partitions the corpus into weight-balanced shards ({!Shard}),
    evaluates each shard on a {!Pool} worker with the existing
    two-phase executor, and merges the per-file results back into
    corpus order — so its rows are {e identical} to the sequential
    run's (qcheck-verified in the test suite).  [run_one] is the
    sequential path with the same cache handling; [run_batch] fans a
    query list out over the pool, one query per task, sharing one
    result cache. *)

type shard_report = {
  shard : int;
  files : string list;
  weight_bytes : int;  (** summed indexed-text bytes of the shard *)
  elapsed_ms : float;
}

type fail_policy =
  | Fail_fast
      (** any failure fails the query, naming the earliest failing
          file in corpus order (the historical behaviour) *)
  | Partial
      (** failed files are excluded; the outcome carries a
          {!Oqf.Degrade} report saying which and why *)
  | Degrade
      (** per-file recovery ladder before giving up: the failed shard
          is re-evaluated on the coordinator, a still-failing file
          falls back to a naive scan of its raw bytes
          ({!Oqf.Execute.run_naive}), and only a file with no
          remaining path to its data is excluded.  A per-source
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
  per_shard : shard_report list;
      (** shard timings; empty when sequential or cached *)
  stats : Stdx.Stats.t;
      (** work across the whole run.  Under concurrency the global
          counters interleave, so per-file stats inside [per_file] may
          include neighbouring shards' work; this field diffs around
          the whole fan-out and stays exact. *)
  from_cache : bool;
  cache_superset : string option;
      (** [Some q] when the result was served by filtering the cached
          rows of superset query [q] (canonical text) instead of an
          exact cache entry or a fresh evaluation; the qlog record
          carries it as an [rcache.containment] event *)
  degraded : Oqf.Degrade.t list;
      (** every recovery action taken, in corpus order (shard-level
          retries first); [[]] for a clean run.  A degraded outcome is
          never written to the result cache. *)
}

val default_jobs : unit -> int
(** The [OQF_JOBS] environment variable when it parses as a positive
    integer, else 1. *)

val run_parallel :
  ?optimize:bool ->
  ?minimize:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  ?jobs:int ->
  ?cache:Rcache.t ->
  ?timeout_ms:float ->
  ?fail_policy:fail_policy ->
  ?qctx:Obs.Qlog.ctx ->
  ?generation:int ->
  Oqf.Corpus.t ->
  Odb.Query.t ->
  (outcome, string) result
(** [jobs] defaults to {!default_jobs}; the pool gets
    [min jobs (number of non-empty shards)] workers.  [timeout_ms]
    bounds each shard task (expiry fails the query with a timeout
    message).  [force] and [plan_mode] reach {!Oqf.Execute.run}:
    execute despite error-severity static-analysis findings / select
    the rule-based or cost-based planner.  With [cache], a hit skips evaluation entirely, a resident
    {e superset} entry answers by filtering its rows
    ({!Rcache.find_contained} — byte-identical, recorded in
    [cache_superset]), and a successful non-degraded run populates the
    cache.  [fail_policy]
    (default {!Fail_fast}) decides what a failure does; under
    [Fail_fast] errors name the failing file — deterministically the
    earliest one in corpus order.  A query-level defect (validation
    failure, unknown class) fails the query under every policy: it
    would fail identically on every file, and degrading it away would
    silently return nothing.  [jobs < 1] is rejected as an error. *)

val run_one :
  ?optimize:bool ->
  ?minimize:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  ?cache:Rcache.t ->
  ?fail_policy:fail_policy ->
  ?qctx:Obs.Qlog.ctx ->
  ?generation:int ->
  Oqf.Corpus.t ->
  Odb.Query.t ->
  (outcome, string) result
(** Sequential execution behind the same cache protocol — the
    per-task body of {!run_batch}: each file in corpus order through
    {!Oqf.Execute.run}, stopping at the first failure under
    [Fail_fast], with rows identical to {!Oqf.Corpus.run}'s.
    [fail_policy] as in {!run_parallel} (minus the shard-retry rung —
    there are no shards).

    [qctx] (here and on every driver entry point): when present and a
    query log is installed ({!Obs.Qlog.install}), the run appends
    exactly one qlog record — whole-query latency, row count, cache
    hit, shard count, outcome, and the degradation/retry/fault events
    observed during the run — under [qctx]'s trace id, and observes
    the whole-query latency in the [exec.query_ms{workload}]
    histogram.  The per-file {!Oqf.Execute.run} calls underneath never
    receive a [qctx], so a driven query logs once, not once per
    file.

    [generation] (here and on the other qlog-writing entry points):
    the catalog generation the corpus was pinned at, recorded in the
    qlog record's [gen] field — omitted when absent (static
    corpus). *)

val run_streaming :
  ?optimize:bool ->
  ?minimize:bool ->
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
(** The serve daemon's per-request path: submit one task per corpus
    file to a {e shared} long-lived [pool] (so concurrent requests
    interleave at file granularity instead of monopolising workers),
    then await the handles in corpus order, calling [on_rows] with
    each file's rows as soon as that file settles — the client streams
    file [k]'s answers while later files are still scanning.
    [on_rows] runs on the caller's thread and is never called with an
    empty row list.  Each task is a whole {!Oqf.Execute.run} of its
    file (phase 1 through {!Ralg.Eval.eval_shared}, as on every other
    path), so the first rows arrive once the first file settles, not
    earlier.  The outcome's [stats] count the work of every file.

    The returned outcome's [rows] are identical to {!run_parallel}'s
    for the same corpus and query (qcheck-verified).  The cache
    protocol is {!run_parallel}'s, and a hit replays the payload
    through [on_rows] in per-file blocks.  [timeout_ms] bounds each
    file task individually.  [fail_policy] applies the same per-file
    ladder as {!run_parallel}, settling each file as its task is
    awaited; note that under [Fail_fast] an error
    can arrive {e after} rows have already been streamed — the wire
    protocol surfaces this as an error event terminating the row
    stream. *)

val run_batch :
  ?optimize:bool ->
  ?minimize:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  ?jobs:int ->
  ?cache:Rcache.t ->
  ?fail_policy:fail_policy ->
  ?workload:string ->
  Oqf.Corpus.t ->
  Odb.Query.t list ->
  (Odb.Query.t * (outcome, string) result) list
(** Run every query through a [jobs]-worker pool (inter-query
    parallelism; each query evaluates sequentially within its task),
    returning results in input order.  With [cache], a query repeated
    within the batch waits for its first occurrence before probing, so
    duplicates hit deterministically rather than racing the original's
    insert.  When a query log is installed, each batched query gets
    its own freshly minted trace id and one qlog record labelled
    [workload]. *)

val pp_shard_report : Format.formatter -> shard_report -> unit
