(** A process-wide metrics registry: named counters and histograms.

    The registry is the single home of the engine's quantitative
    self-description.  {!Stdx.Stats} publishes the paper's work
    quantities ([engine.*]) through it, the optimizer records applied
    rewrites ([optimizer.*]), and the executor feeds latency and size
    histograms ([query.*]).  Registration is create-or-get by name, so
    a metric can be declared where it is incremented and read anywhere
    else by the same name. *)

type counter
(** A monotonically adjustable integer cell, registered by name. *)

val counter : string -> counter
(** [counter name] returns the registered counter called [name],
    creating it at zero on first use.  The same name always yields the
    same cell. *)

val incr : counter -> unit
(** Add one. *)

val add_to : counter -> int -> unit
(** Add an arbitrary amount (hot paths add batch sizes). *)

val value : counter -> int
(** Current value. *)

val set : counter -> int -> unit
(** Overwrite the value (used by resets; not for hot paths). *)

val find_counter : string -> counter option
(** Look a counter up without creating it. *)

type histogram
(** A series of float observations summarised by rank statistics.  It
    keeps at most 4096 of them: all until then, a uniform random
    sample of all of them after, so the rank statistics of a longer
    series are estimates while its count, sum and max stay exact. *)

val histogram : string -> histogram
(** Create-or-get, like {!counter}. *)

val observe : histogram -> float -> unit
(** Record one observation (a latency in milliseconds, a size in
    bytes, …). *)

type summary = {
  count : int;
  sum : float;
  p50 : float;  (** median, nearest-rank *)
  p95 : float;  (** 95th percentile, nearest-rank *)
  p99 : float;  (** 99th percentile, nearest-rank — tail latency under
                    sustained serving load (the serve daemon's SLO
                    quantile) *)
  max : float;
}

val summarize : histogram -> summary option
(** [None] until the histogram has at least one observation. *)

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val histograms : unit -> (string * summary) list
(** Every registered histogram that has observations, sorted by
    name. *)

val dump : Format.formatter -> unit -> unit
(** Render every counter and histogram summary, one per line, sorted
    by name — the registry's human-readable state. *)

val reset_all : unit -> unit
(** Zero every counter and drop every histogram's observations.  Meant
    for tests and benchmark harness isolation. *)
