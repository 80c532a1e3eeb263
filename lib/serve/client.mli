(** A blocking client for the {!Protocol} over a Unix-domain socket.

    [oqf client] and the serve tests/benchmarks use this; it owns the
    id counter for one connection and knows which events terminate a
    request's stream. *)

type conn

val connect : ?wait_ms:float -> string -> (conn, string) result
(** Connect to a daemon's socket.  [wait_ms] (default 0) retries the
    connection for that long before giving up — covers the race of a
    client racing a daemon that is still binding its socket. *)

val close : conn -> unit

val is_terminal : Protocol.response -> bool
(** [done], [diagnostics], [overloaded], [error], [pong], [stats] and
    [bye] end a request's event stream; [row]/[region] do not. *)

val stream :
  conn ->
  Protocol.request ->
  on_event:(Protocol.response -> unit) ->
  (Protocol.response, string) result
(** Send one request and deliver every response event to [on_event]
    as it arrives (first rows arrive while the daemon is still
    scanning later files).  Returns the terminal event.  [Error] is a
    transport or decode failure, not a server-reported one. *)

val request : conn -> Protocol.request -> (Protocol.response list, string) result
(** {!stream} collecting all events, terminal last. *)

val http_get : port:int -> string -> (int * string, string) result
(** [http_get ~port path] performs one blocking [GET] against the
    daemon's HTTP facade on [127.0.0.1] and returns [(status code, body)].  This is
    what [oqf metrics scrape] (and the CI serve-suite) uses to read
    [/metrics] without depending on an external HTTP client. *)
