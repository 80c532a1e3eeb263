(** Trace sinks: where {!Trace} events go.

    - {!memory} collects events and reconstructs the span tree;
    - {!jsonl} streams one JSON object per event line;
    - {!chrome} writes the Chrome [trace_event] array format, loadable
      in [chrome://tracing] or Perfetto. *)

type node = {
  name : string;
  start_ms : float;
  stop_ms : float;  (** equals [start_ms] while the span is open *)
  attrs : Trace.attrs;
  events : (string * float * Trace.attrs) list;  (** instants, in order *)
  children : node list;  (** in order of opening *)
}

val duration_ms : node -> float

val memory : unit -> Trace.sink * (unit -> node list)
(** An in-memory collector.  The second component returns the roots of
    the reconstructed span forest (call it after the traced work;
    flushing is a no-op). *)

val jsonl : out_channel -> Trace.sink
(** One JSON object per line:
    [{"ev":"begin"|"end"|"instant","id":…,"parent":…,"name":…,"ts_ms":…,
      "attrs":{…}}].  [flush] flushes the channel but does not close
    it. *)

val chrome : out_channel -> Trace.sink
(** Chrome [trace_event] JSON: an array of [B]/[E]/[i] phase records
    with microsecond timestamps.  [flush] closes the array and flushes
    the channel (call it exactly once, at the end). *)
