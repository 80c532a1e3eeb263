(** Evaluation of region expressions on a PAT instance. *)

exception Unknown_region of string
(** Raised when an expression mentions a region name the instance does
    not index — with partial indexing this signals that the planner
    referenced a missing index. *)

val eval : Pat.Instance.t -> Expr.t -> Pat.Region_set.t
(** Evaluate with the efficient operators of {!Pat.Region_set}.  Direct
    inclusion is decided against the instance universe, by parent
    lookups in its region forest (see {!Pat.Region_set.forest}).  When
    a trace sink is installed (see {!Obs.Trace}) this routes through
    {!eval_annotated} so every operator application is spanned;
    otherwise it is {!eval_plain}. *)

val eval_shared : Pat.Instance.t -> Expr.t -> Pat.Region_set.t
(** Like {!eval} but common subexpressions are evaluated once (§5.2:
    boolean combinations of selection criteria often share their inner
    chains).  Same result, fewer index operations. *)

val eval_plain : Pat.Instance.t -> Expr.t -> Pat.Region_set.t
(** The uninstrumented evaluator — no per-node observer, no trace
    checks beyond the global counters.  Exposed so bench O1 can
    measure the dispatch overhead of {!eval} against it.  Every
    evaluator here applies operators through the same dispatch, which
    polls {!Obs.Deadline} once per operator application. *)

val eval_shared_plain : Pat.Instance.t -> Expr.t -> Pat.Region_set.t
(** {!eval_plain} with common-subexpression sharing. *)

val eval_annotated : Pat.Instance.t -> Expr.t -> Pat.Region_set.t * Annot.t
(** Evaluate and mirror the expression with a per-node actual-cost
    tree: each {!Annot.t} node carries the counter deltas of its own
    operator application (children excluded), so subtree sums equal
    the {!Stdx.Stats} delta of the whole evaluation.  Emits one trace
    span per node when tracing is enabled. *)

val eval_shared_annotated :
  Pat.Instance.t -> Expr.t -> Pat.Region_set.t * Annot.t
(** {!eval_annotated} with common-subexpression sharing; repeated
    subexpressions appear as [cached] leaf nodes with zero self cost. *)

val eval_annotated_from :
  Pat.Instance.t -> Expr.t * Pat.Region_set.t -> Expr.t ->
  Pat.Region_set.t * Annot.t
(** [eval_annotated_from inst (e0, r0) e] is {!eval_shared_annotated}
    with [e0]'s result already known to be [r0]: each occurrence of
    [e0] in [e] is a [cached] leaf. *)
