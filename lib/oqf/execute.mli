(** Two-phase query execution (§5.1 steps (i)–(iv), §6.2).

    Phase 1 evaluates the (optimized) candidate expressions on the
    indexing engine.  Phase 2 materialises candidate regions by parsing
    just those byte ranges and — unless the plan is exact — re-filters
    them with the database evaluator.  Index-only projections skip
    parsing entirely ({!project}). *)

type origin = Memory | Disk
(** Where a source's bytes authoritatively live: [Memory] sources own
    their text (generated corpora, tests), [Disk] sources mirror a
    file that can be re-read — the degradation fallback re-reads it,
    and treats a vanished file as data loss. *)

type plan_stats
(** A source's planning statistics, read through {!stats}. *)

type source = {
  view : Fschema.View.t;
  text : Pat.Text.t;
  instance : Pat.Instance.t;
  env : Compile.env;
  origin : origin;
  plan_stats : plan_stats;
      (** what the cost planner, OQF006 and EXPLAIN price with: given
          by {!with_stats}, or swept from [instance] on first use *)
}

val make_source :
  ?origin:origin ->
  Fschema.View.t -> Pat.Text.t -> index:string list -> (source, string) result
(** Parse the text once (index construction may scan) and build the
    word and region indices for [index].  [origin] defaults to
    [Memory]. *)

val make_source_full : Fschema.View.t -> Pat.Text.t -> (source, string) result
(** Index every non-root non-terminal. *)

val source_of_instance :
  ?origin:origin -> Fschema.View.t -> Pat.Instance.t -> source
(** Build a source from an already-constructed (e.g. persisted and
    reloaded) instance; the index names are the instance's region
    names.  [origin] defaults to [Memory]. *)

val with_stats : source -> Oqf_cost.Stats.t -> source
(** The source planning with the given statistics instead of sweeping
    its instance — how {!Corpus} hands a catalog source its manifest
    entry's [rstat]/[rdepth] figures. *)

val stats : source -> Oqf_cost.Stats.t
(** The source's planning statistics.  A source built by
    {!make_source} or {!source_of_instance} and not given any by
    {!with_stats} computes {!Oqf_cost.Stats.of_instance} on the first
    call and keeps it: at most one sweep per source, safe when worker
    domains share the source. *)

type outcome = {
  rows : Odb.Query_eval.row list;
  plan : Plan.t;
  diagnostics : Analysis.Diagnostic.t list;
      (** the static-analysis findings for the plan ({!Check}), sorted
          by severity; warnings and hints when the run proceeded,
          possibly errors too under [~force:true] *)
  evaluated : (string * Ralg.Expr.t) list;
      (** per variable, the expression actually evaluated (after
          optimization if enabled) *)
  candidates_count : int;  (** candidate regions across variables *)
  answers_count : int;
  join_assisted : bool;
      (** a §5.2 join refinement ran: path regions were projected, their
          texts joined, and the candidate sets shrunk before parsing *)
  stats : Stdx.Stats.t;  (** query-time work only *)
  rewrites : Ralg.Optimizer.rewrite list;
      (** optimizer rewrites applied to the candidate expressions, in
          application order; empty with [~optimize:false] *)
  annotations : (string * Ralg.Annot.t) list;
      (** with [~explain:true], the per-node actual-cost tree for each
          evaluated expression, keyed like [evaluated], and a
          projection's descent as ["<select>"]; [[]] otherwise *)
  plan_mode : Oqf_cost.Planner.mode;
      (** which planner picked the evaluated expressions *)
  decisions : (string * Oqf_cost.Planner.decision) list;
      (** in cost mode, the plan selection per evaluated expression
          (keyed like [evaluated]); [[]] in rules mode *)
  est_cost : float;
      (** summed estimated cost of the chosen candidate plans (0 in
          rules mode); recorded in the qlog for estimate-vs-actual
          calibration *)
}

val project :
  source -> root:string -> attrs:string list -> Pat.Region_set.t ->
  Pat.Region_set.t
(** The regions {!Plan.descent} [~root ~attrs] selects below the given
    regions of [root]: an index-only projection (§5.2) reads its values
    off those below its variable's candidates. *)

type prepared
(** A query compiled, analyzed and rewritten for one index set. *)

val prepare :
  ?optimize:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  source ->
  Odb.Query.t ->
  (prepared, string) result
(** The query-level half of a run, valid for every source with
    [source]'s index set; traced as [query.compile], [query.analyze]
    and [query.plan].  Fails on a compile error (validation, unknown
    class) and, unless [force] (default [false]), on error-severity
    findings of {!Check.plan_diagnostics} (OQF006 priced over
    [source]'s {!stats}): {!Check.refusal}.  [optimize] defaults to
    [true]; [false] executes the naive translation (benchmark E1).
    [plan_mode] (default [Rules]) selects the optimizer: the paper's
    Prop 3.5 rewrite system, or the rewrite-equivalent plans for
    {!exec} to price — byte-identical rows either way.  [Cost_based]
    first runs {!Analysis.Contain.minimize} on every candidate
    expression, logged as ["minimize"] rewrites. *)

val exec :
  ?join_assist:bool -> ?explain:bool -> prepared -> source ->
  (outcome, string) result
(** The per-file half, on a source with the prepared index set: under
    [Cost_based] pick each plan by {!Oqf_cost.Model} estimate over the
    source's {!stats}, then run phases 1 and 2.  [join_assist]
    (default [true]) runs the §5.2 join refinement (off: benchmark
    E6).  [explain] (default [false]) evaluates phase 1 through
    {!Ralg.Eval.eval_shared_annotated} and fills [annotations].

    Every call observes the [query.latency_ms], [query.answers] and
    [query.candidates] histograms and traces [query.phase1],
    [query.join_assist] and [query.phase2] under a [query.run] root.
    It writes no qlog record: {!Exec.Driver} logs one per query. *)

val run :
  ?optimize:bool ->
  ?join_assist:bool ->
  ?explain:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  source ->
  Odb.Query.t ->
  (outcome, string) result
(** {!prepare} then {!exec} on one source: the per-file step of the
    sequential reference {!Corpus.run}. *)

val run_baseline :
  Fschema.View.t ->
  Pat.Text.t ->
  Odb.Query.t ->
  (Odb.Query_eval.row list * Stdx.Stats.t, string) result
(** The standard database implementation: parse the whole file, load
    every extent, evaluate in the database.  No indices. *)

val semantic_error : Fschema.View.t -> Odb.Query.t -> string option
(** A defect in the query itself (fails validation, or names a class
    the view does not have), which {!run_baseline} refuses instead of
    answering from an empty extent. *)

val run_naive : file:string -> source -> Odb.Query.t ->
  (Odb.Query_eval.row list, string) result
(** The degradation fallback: answer [q] from the raw file with
    {!run_baseline} (semantics-equivalent to the indexed plan, §2/§5).
    [Disk] sources are re-read from [file]; a [Disk] source whose
    file is gone or unreadable is an error — no remaining path to the
    data.  Successful fallbacks count in the [fallback.naive]
    metric. *)
