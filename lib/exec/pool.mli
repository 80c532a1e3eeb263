(** A reusable pool of domain workers.

    A pool owns a fixed set of [Domain.t] workers feeding from one
    bounded work queue.  Tasks are closures; {!submit} returns a handle
    whose {!await} blocks until the task has run.  A task may carry a
    deadline: the worker arms {!Obs.Deadline} around it, the
    region-algebra evaluator polls it once per operator, and an expiry
    surfaces as an [Error] on the handle — the worker survives and
    takes the next task.

    Shutdown is graceful: already-queued tasks are drained and their
    handles completed before the workers exit.  All operations are
    safe to call from any domain except {!await} from inside a pool
    task of the same pool (the worker would wait on itself).

    Failure containment: a task's handle is completed no matter how
    the task exits (exception capture runs under [Fun.protect]), a
    worker survives an exception that escapes a task closure (counted
    in [exec.pool.task_escapes]), and {!shutdown} joins every domain
    even when one died abnormally ([exec.pool.worker_deaths]) — no
    failure mode leaves {!await} blocked forever. *)

type t

val create : jobs:int -> unit -> t
(** Spawn [jobs] worker domains ([jobs >= 1], else
    [Invalid_argument]).  At most 256 tasks wait queued but unstarted;
    a full queue makes {!submit} block until a worker takes
    something. *)

val jobs : t -> int

type 'a handle
(** The pending result of one submitted task. *)

val capture : ?timeout_ms:float -> (unit -> 'a) -> ('a, string) result
(** Run a task body on the calling thread exactly as a worker runs a
    submitted one: under {!Obs.Deadline.with_timeout_ms} when
    [timeout_ms] is given, with every exception captured as [Error]
    (the {!await} messages) and the outcome counted in
    [exec.pool.tasks_completed] / [tasks_failed] / [tasks_timed_out].
    The driver uses it to run a one-worker lane on the caller instead
    of spawning a domain. *)

val submit : ?timeout_ms:float -> t -> (unit -> 'a) -> 'a handle
(** Enqueue a task; the worker runs it through {!capture}, so expiry
    (or any other exception) is captured in the handle rather than
    killing the worker.  Raises [Invalid_argument] if the pool is shut
    down. *)

val await : 'a handle -> ('a, string) result
(** Block until the task has run.  [Error] carries the exception
    message ("task timed out after <n> ms" for a deadline expiry). *)

val shutdown : t -> unit
(** Drain the queue, complete every outstanding handle, join the
    workers.  Idempotent; subsequent {!submit}s raise. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the body, [shutdown] (also on exceptions). *)
