(** Retry with exponential backoff and decorrelated jitter.

    Every I/O site in the engine ({!Fault} lists them) wraps its raw
    operation in {!io}: transient failures are re-attempted under a
    per-site budget with decorrelated-jitter backoff ([sleep = min
    max_delay (uniform base (3 * previous))], AWS-style), while
    permanent failures and corruption propagate immediately — the
    former because retrying cannot help, the latter because healing
    (rebuild from source) is the right response, not re-reading.

    A per-source {!Breaker} lets callers stop burning retry budget on
    an input that keeps failing: after {!Breaker.threshold}
    consecutive failures the circuit opens and the caller should skip
    the source outright. *)

type policy = {
  attempts : int;  (** total tries, including the first *)
  base_delay_ms : float;
  max_delay_ms : float;
}

val default_policy : policy
(** 5 attempts, 0.2ms base, 20ms cap — generous enough that a
    recoverable fault schedule with [burst] below the budget always
    gets through, cheap enough to be invisible. *)

val set_site_policy : string -> policy -> unit
(** Override the budget for one site (tests mostly). *)

val classify_exn : exn -> Fault.kind
(** The taxonomy decision: [Fault.Injected] carries its own kind,
    [Sys_error] is transient (the OS may succeed on the next try),
    everything else — including {!Obs.Deadline.Expired} — is
    permanent. *)

val io : ?policy:policy -> site:string -> (unit -> 'a) -> 'a
(** [io ~site f] runs [f], retrying transient exceptions with backoff
    until the budget is spent, then re-raises the last failure.
    Retries are counted in the [retry.attempts] metric and, when
    tracing, emitted as [retry] instants attributed to [site]. *)

val backoff_schedule : ?policy:policy -> string -> float list
(** The delays (ms) {!io} would sleep between attempts at [site],
    without sleeping them — pins the decorrelated-jitter shape in
    tests: each delay is within [[base, min max (3 * previous)]] and
    the whole schedule is reproducible. *)

module Breaker : sig
  val threshold : int
  (** Consecutive failures after which a circuit opens (3). *)

  type state = Closed | Open

  val failure : string -> unit
  (** Record one failure; the [threshold]th consecutive one opens the
      circuit, incrementing [breaker.opened] and setting the
      [breaker.state{source="key"}] gauge to 1. *)

  val success : string -> unit
  (** Reset the key's failure count; closing a previously open circuit
      sets its [breaker.state{source="key"}] gauge back to 0.  The
      gauge is touched on transitions only, so keys that never trip
      never appear in /metrics. *)

  val state : string -> state
  val reset_all : unit -> unit
end
