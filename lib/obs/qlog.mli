(** The durable query log.

    In-process spans and metrics die with the process; the decisions
    they should inform — what to index, why a production query was
    slow — outlive it.  The query log is the durable record: one JSON
    line per executed query (ndjson), appended to a file that rotates
    by size, written by every execution path (CLI one-shots, the batch
    driver, the serve daemon) when a log is installed via [--qlog] or
    [OQF_QLOG].

    Durability model: a record is a single buffered write flushed to
    the OS before {!append} returns, so a process crash loses nothing
    already appended; rotation renames the closed segment (atomic on
    POSIX) before opening a fresh one.  A crash mid-write can leave at
    most one torn final line, which readers ({!fold}) skip and count
    rather than propagate.  Telemetry must never fail the query: an
    append that keeps failing drops the record and bumps
    [qlog.dropped] instead of raising.

    A {e slow-query log} rides along: records whose latency reaches
    the configured threshold are also appended to [<path>.slow], so
    the pathological tail is greppable without replaying the full
    log.  The shared [trace_id] field is what correlates a qlog
    record, its trace spans and its slow-log entry. *)

type ctx = { trace_id : string; workload : string }
(** Per-query correlation context, threaded through the executors. *)

val gen_trace_id : unit -> string
(** A fresh process-unique trace id (time + pid + counter). *)

type record = {
  ts : float;  (** wall-clock seconds since the epoch *)
  trace_id : string;
  workload : string;
  schema : string;
  kind : string;  (** ["query"] or ["rexpr"] *)
  query : string;  (** normalized query text *)
  latency_ms : float;
  rows : int;
  cached : bool;
  outcome : string;  (** ["ok"], ["degraded"] or ["error"] *)
  error : string option;
  events : (string * string) list;
      (** recovery events: [(action, detail)] per degraded file *)
  retries : int;  (** retry attempts observed during the run *)
  faults : int;  (** injected faults observed during the run *)
  candidates : int;
      (** phase-1 candidate regions actually evaluated (0 = not
          recorded) — the cost model's actual-cardinality feedback *)
  est_cost : float;
      (** the planner's estimated cost for the executed plan (0 = not
          recorded; only the cost-based planner fills it) *)
  generation : int;
      (** the catalog generation the query's pinned snapshot read
          (0 = not recorded — static corpus or pre-generation log) *)
}

val make :
  ctx:ctx ->
  workload_default:string ->
  schema:string ->
  kind:string ->
  query:string ->
  latency_ms:float ->
  rows:int ->
  cached:bool ->
  outcome:string ->
  ?error:string ->
  ?events:(string * string) list ->
  ?retries:int ->
  ?faults:int ->
  ?candidates:int ->
  ?est_cost:float ->
  ?generation:int ->
  unit ->
  record
(** Build a record stamped with the current wall clock.  The workload
    label is [ctx.workload] if non-empty, else [workload_default];
    both it and [schema] pass through {!Label.sanitize}. *)

type t

val open_log :
  ?max_bytes:int ->
  ?keep:int ->
  ?slow_ms:float ->
  ?io_hook:(string -> unit) ->
  string ->
  (t, string) result
(** Open (appending) or create the log at a path.  [max_bytes]
    (default 64 MiB) bounds a segment: an append that would cross it
    first rotates [path -> path.1 -> ... -> path.keep] (default
    [keep = 3]; the oldest segment is deleted).  [slow_ms] arms the
    slow-query log.  [io_hook] is called with a site name
    ([qlog.write], [qlog.rotate]) before each I/O — the seam where
    {!Stdx.Fault} injection plugs in without a dependency cycle. *)

val path : t -> string
val slow_path : t -> string

val append : t -> record -> unit
(** Append one record.  Never raises; a failed write drops the record
    and bumps the [qlog.dropped] counter.  Thread-safe. *)

val close : t -> unit
(** Flush, fsync and close (idempotent). *)

val install : t option -> unit
(** Set the process-wide log written by the executors.  Installing
    does not close the previous log. *)

val installed : unit -> t option

val record_to_json : record -> Jsonx.t
val record_of_json : Jsonx.t -> record option

val fold : string -> init:'a -> f:('a -> record -> 'a) -> ('a * int, string) result
(** Replay a log file: [f] is applied to every parseable record in
    order; the second result is the number of skipped lines (torn
    tail, corruption, foreign garbage).  [Error] only when the file
    cannot be read at all. *)
