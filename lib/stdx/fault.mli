(** Deterministic, seeded fault injection.

    The robustness layer is only testable if failures can be provoked
    on demand and reproduced from a seed.  This module owns that:
    I/O-touching code declares named {e sites} ([catalog.read],
    [catalog.write], [gen.commit], [gen.retire], [watch.scan],
    [index.load], [index.write], [source.read], [pool.task]) by
    calling {!hit} (and {!corrupting} where a payload
    can be damaged), and a fault {e config} — parsed from the
    [OQF_FAULTS] environment variable or the [--inject-faults] CLI
    flag — decides, via a splitmix64 stream, whether each visit
    injects a transient I/O error, a permanent error, payload
    corruption, added latency, or a hard crash.

    With no config installed every site is a single load-and-branch;
    the layer costs nothing in production (verified by bench R1). *)

type kind = Transient | Permanent | Corruption
(** The error taxonomy shared with {!Retry}: [Transient] failures are
    worth retrying, [Permanent] ones are not, [Corruption] means the
    data arrived but is damaged (checksum mismatch — the heal path's
    domain, not the retry path's). *)

exception Injected of { site : string; kind : kind }
(** The exception raised by an injecting {!hit}.  Carries its site so
    reports can attribute the failure. *)

type config
(** A parsed fault schedule. *)

val parse : string -> (config, string) result
(** [parse spec] parses a comma-separated schedule.  Directives:
    - [seed:N] — PRNG seed (default 0; equal seeds replay equal
      schedules)
    - [transient:P] / [permanent:P] / [corrupt:P] — per-visit
      injection probabilities in [0,1]
    - [delay:P\@MS] — with probability [P], busy-wait [MS]
      milliseconds
    - [crash:SITE\@N] — exit the process (status 137) on the [N]th
      visit to [SITE]
    - [burst:K] — cap consecutive injections per site at [K], so any
      retry loop with more than [K] attempts is guaranteed to get
      through (makes probabilistic schedules recoverable by
      construction)
    - [only:SITE] — restrict injection to one site *)

val set : config option -> unit
(** Install (or clear) the schedule, resetting per-site counters. *)

val active : unit -> bool
(** Whether a schedule is installed ([OQF_FAULTS] is consulted once,
    lazily, on first use of the module). *)

val hit : string -> unit
(** [hit site] marks one visit to [site].  No-op without a schedule;
    otherwise may spin (latency), raise {!Injected}, or exit the
    process (crash point), per the schedule.  Thread-safe. *)

val corrupting : string -> string -> string
(** [corrupting site payload] returns [payload], possibly with one
    byte flipped when the schedule injects corruption at [site].
    Used on freshly read index images, upstream of checksum
    verification. *)
