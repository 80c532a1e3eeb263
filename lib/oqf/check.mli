(** Static analysis of whole queries against a view (the [oqf check]
    engine).

    Two layers on top of {!Analysis.Expr_check}:

    - {e path-level}: every rooted path in SELECT/WHERE is resolved
      with the planner's own {!Fschema.Resolver}, reporting unknown
      attributes (OQF002, warning here: the path reaches nothing) and
      steps that reach nothing (OQF005: past a string value, or to no
      field of the value stepped from; the query can only be empty on
      files conforming to the schema);
    - {e plan-level}: each variable's candidate expression is checked
      against the query RIG (OQF001/003/004/006), and a [Plan.Empty]
      candidate set is reported as OQF001 — the compiler already
      proved the query empty.

    {!Execute.prepare} runs {!plan_diagnostics} once per query and
    refuses error-severity findings unless forced. *)

type checked = {
  plan : Plan.t option;  (** [None] when the query failed to compile *)
  diagnostics : Analysis.Diagnostic.t list;
}

val plan_diagnostics :
  ?text:string ->
  ?stats:Oqf_cost.Stats.t ->
  ?cost_threshold:float ->
  Compile.env ->
  Plan.t ->
  Analysis.Diagnostic.t list
(** Diagnose a compiled plan: path-level walks over [env]'s full RIG
    plus per-variable expression checks against its query RIG.  [text]
    is the query's source text (spans); [stats] prices OQF006 (default
    {!Oqf_cost.Stats.uniform}; {!Execute.prepare} passes its source's
    planning statistics).  Sorted by severity, deduplicated. *)

val query :
  ?text:string ->
  ?stats:Oqf_cost.Stats.t ->
  ?cost_threshold:float ->
  Compile.env ->
  Odb.Query.t ->
  checked
(** Compile then {!plan_diagnostics}.  A compile failure becomes one
    diagnostic: OQF002 for an unknown class, OQF000 otherwise. *)

val cross_query :
  (string * Odb.Query.t) list -> Analysis.Diagnostic.t list
(** The batch-level pass behind [oqf check --queries]: one OQF304
    warning per query whose answer {!Subsume.subsumes} proves
    recoverable from another query of the same batch (the labels —
    e.g. ["query 3"] — become diagnostic subjects, the superset query
    the detail).  Mutually-subsuming duplicates flag only the later
    occurrence, so one representative always stays clean. *)

val refusal : Analysis.Diagnostic.t list -> string
(** The error message {!Execute.prepare} returns when error-severity
    diagnostics block an unforced run: a summary line plus one
    indented line per error. *)
