(** Per-domain evaluation deadlines.

    The Exec worker pool gives each task an optional deadline; the
    region-algebra evaluator polls {!check} once per operator
    application, and the file parser once per repetition element, so
    a runaway expression or whole-file parse aborts close to its
    budget instead of holding a worker forever.  The armed deadline lives in
    domain-local storage, so concurrent tasks on different workers
    cannot see each other's budgets.

    Granularity: a single operator application (one inclusion join,
    one selection) runs to completion — the poll sits between
    operators, not inside their loops — so an expiry is detected at
    the next operator boundary, or at the parser's next element. *)

exception Expired of float
(** Raised by {!check} (and thus out of the evaluator) when the armed
    deadline has passed; carries the task's budget in milliseconds. *)

val with_timeout_ms : float -> (unit -> 'a) -> 'a
(** [with_timeout_ms ms f] runs [f] with a deadline [ms] milliseconds
    from now on this domain's monotonic clock, restoring the previous
    deadline (if any) afterwards.  Nested timeouts keep the earlier of
    the two deadlines.  [ms <= 0] expires on the first {!check}. *)

val check : unit -> unit
(** Raise {!Expired} if this domain has an armed deadline that has
    passed; return immediately otherwise.  Safe to call at any
    frequency — the disarmed path is one domain-local load. *)

val armed : unit -> bool
(** Whether a deadline is currently armed on this domain. *)
