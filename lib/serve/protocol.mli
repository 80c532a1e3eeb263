(** The serve wire protocol: newline-delimited JSON over a stream.

    Each request is one JSON object on one line; each response event
    is one JSON object on one line.  A query's answer is a stream —
    zero or more [row] (or [region]) events followed by exactly one
    terminal event ([done], [diagnostics], [error] or [overloaded]) —
    so a client reads until it sees a terminal event for its id.

    {b Requests}

    {v
    {"id":1,"op":"ping"}
    {"id":2,"op":"query","schema":"bibtex","q":"select ...",
     "timeout_ms":2000,"fail_policy":"degrade","force":false}
    {"id":3,"op":"rexpr","schema":"bibtex","expr":"Entry > [author]"}
    {"id":4,"op":"stats"}
    {"id":5,"op":"shutdown"}
    v}

    {b Responses} (the [ev] member discriminates)

    {v
    {"id":2,"ev":"row","file":"a.bib","values":["..."]}
    {"id":3,"ev":"region","file":"a.bib","start":10,"stop":42}
    {"id":2,"ev":"done","rows":7,"cached":false,"trace":"c1-r2","degraded":[...]}
    {"id":2,"ev":"diagnostics","diagnostics":[{...OQF codes...}]}
    {"id":2,"ev":"overloaded","active":8,"queued":16}
    {"id":2,"ev":"error","message":"..."}
    {"id":1,"ev":"pong"}   {"id":4,"ev":"stats","payload":{...}}
    {"id":5,"ev":"bye"}
    v}

    Under fail-fast an [error] event can follow [row] events already
    streamed for the same id; the error terminates the stream and the
    rows must be considered partial. *)

val max_line : int
(** Longest accepted request line in bytes (65536).  A longer line is
    discarded up to its newline and answered with an [error] event;
    the connection survives. *)

type query_req = {
  schema : string;
  text : string;  (** the query (or region expression) source text *)
  timeout_ms : float option;
  fail_policy : Exec.Driver.fail_policy option;  (** [None]: server default *)
  force : bool;  (** execute despite error-severity analysis findings *)
  workload : string;
      (** optional client-chosen workload label for the daemon's query
          log and per-workload metrics; [""] defaults to the schema *)
}

type request =
  | Query of query_req
  | Rexpr of query_req
  | Ping
  | Stats
  | Shutdown

type response =
  | Row of { id : int; file : string; values : string list }
  | Region of { id : int; file : string; start : int; stop : int }
  | Done of {
      id : int;
      rows : int;
      cached : bool;
      degraded : (string * string * string) list;
          (** (file, action, detail) per {!Oqf.Degrade} entry *)
      trace : string;
          (** the trace id the daemon assigned this request — the same
              id its spans, qlog record and slow-query entry carry, so
              a client can quote it when reporting a slow query.  [""]
              from daemons predating the field. *)
    }
  | Diagnostics of { id : int; diagnostics : Obs.Jsonx.t list }
  | Overloaded of { id : int; active : int; queued : int }
  | Failed of { id : int; message : string }
  | Pong of { id : int }
  | Stats_reply of { id : int; payload : Obs.Jsonx.t }
  | Bye of { id : int }

val parse_request : string -> (int * request, int * string) result
(** Parse one request line.  Errors carry the request id when the
    line parsed far enough to reveal one (0 otherwise) so the error
    event can still be correlated. *)

val render_request : int -> request -> string
(** One line, no trailing newline (the client's encoder). *)

val render_response : response -> string
(** One line, no trailing newline. *)

val parse_response : string -> (response, string) result
(** The client's decoder. *)

(** {b Streamed lines.}  A stream's [row] and [region] events are
    written piecewise into one fixed 16 KiB buffer, with no per-line or
    per-value string: each line's head is rendered once per file block,
    then each value's display form ({!Odb.Value.iter_display}) is
    escaped straight into the buffer.  The bytes equal
    {!render_response} of the same event plus its newline. *)

type out

val out : (Bytes.t -> int -> int -> unit) -> out
(** [out write] is an empty buffer that goes out through
    [write buf off len] when full (a line may span two writes) and at
    {!flush}.  [write] must write all [len] bytes. *)

val flush : out -> unit
(** Write out what the buffer holds. *)

val row_writer : out -> id:int -> file:string -> Odb.Value.t list -> unit
(** [row_writer o ~id ~file] renders the line head once and returns the
    writer of one [Row] line per row of [file]; the row's values are
    shown by {!Odb.Value.to_display_string}. *)

val region_writer : out -> id:int -> file:string -> start:int -> stop:int -> unit
(** Likewise for [Region] lines. *)

(** Bounded line framing over a file descriptor.  [`Overflow] means a
    line exceeded {!max_line}: the reader consumed and discarded it
    through its newline, and the next call reads the next line. *)

type reader

val reader : Unix.file_descr -> reader
val read_line : reader -> [ `Line of string | `Overflow | `Eof ]
