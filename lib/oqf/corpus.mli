(** Querying a collection of files.

    The paper's motivation is the {e file system}: "a multitude of
    bibliographic files … each one of the members of a research group
    keeps several such files" (§2).  A corpus holds one indexed source
    per file and evaluates a query against every file, merging the
    answers — the index work stays proportional to the matches, never
    to the number or size of files.

    Join queries bind their variables within one file at a time (each
    file is one database view); cross-file joins would require a shared
    load and are out of the paper's scope. *)

type t

val make :
  Fschema.View.t ->
  (string * Pat.Text.t) list ->
  index:string list ->
  (t, string) result
(** Index each named file.  Fails on the first file that does not parse
    under the view's grammar, naming it. *)

val make_full :
  Fschema.View.t -> (string * Pat.Text.t) list -> (t, string) result
(** Full indexing for every file. *)

val of_catalog : Oqf_catalog.Catalog.t -> schema:string -> (t, string) result
(** The corpus of every catalogued file of one schema, served from the
    catalog's persisted indices through its instance cache — no
    re-parsing.  The caller decides whether to refresh the entries
    first; they are loaded as persisted.  Each source plans with its
    manifest entry's statistics ({!Oqf_cost.Stats.of_entries}), so no
    instance is swept; an entry recorded before those statistics
    existed sweeps its instance on first use instead
    ({!Execute.stats}).  The same holds for the two constructors
    below. *)

val of_catalog_robust :
  Oqf_catalog.Catalog.t ->
  schema:string ->
  (t * Degrade.t list, string) result
(** Like {!of_catalog}, but an entry that cannot be served any more —
    its index is dead and {!Oqf_catalog.Catalog.load}'s self-healing
    could not rebuild it — is excluded from the corpus with a
    {!Degrade.Excluded} note instead of failing the whole corpus.
    Fails only for an unknown schema. *)

val of_snapshot :
  Oqf_catalog.Catalog.snapshot ->
  schema:string ->
  (t * Degrade.t list, string) result
(** The corpus of a pinned catalog generation
    ({!Oqf_catalog.Catalog.pin}): every load goes through
    {!Oqf_catalog.Catalog.snapshot_load}, so the rows any query
    computes over it are byte-identical to the pinned generation's
    even while a writer commits newer ones.  Loads are read-only (no
    healing); a file whose pinned index is unreadable is excluded
    with a {!Degrade.Excluded} note.  Fails only for an unknown
    schema. *)

val of_sources : (string * Execute.source) list -> t
(** Wrap already-built sources (e.g. a single file the CLI just
    indexed) without re-indexing anything. *)

val files : t -> string list
val source : t -> string -> Execute.source option

val sources : t -> (string * Execute.source) list
(** Every (file, source) pair in corpus order — the unit of work of
    the parallel driver ([Exec.Driver]), which evaluates each file as
    one task. *)

val fingerprint : t -> string
(** Hex MD5 over the members' (name, length, content digest) triples,
    in corpus order — the result cache's corpus key.  Any change to
    any member's bytes changes it.  Computed on the first call and
    kept with the corpus, so a corpus value hashes its text once
    however many queries it serves; safe to call from any domain. *)

type outcome = {
  rows : (string * Odb.Query_eval.row) list;
      (** each answer row tagged with the file it came from *)
  per_file : (string * Execute.outcome) list;
  stats : Stdx.Stats.t;  (** summed query-time work *)
}

val run :
  ?optimize:bool ->
  ?force:bool ->
  ?plan_mode:Oqf_cost.Planner.mode ->
  t ->
  Odb.Query.t ->
  (outcome, string) result
(** The sequential reference: every file in corpus order through
    {!Execute.run}, stopping at the first failure, which it names.
    Like the test kit's brute-force evaluator for the region algebra,
    it stays as the oracle the parallel and streaming driver paths
    ([Exec.Driver]) are tested against — byte-identical rows.
    [force] and [plan_mode] are passed to {!Execute.run}: execute
    despite error-severity static-analysis findings / select the
    rule-based or cost-based planner. *)
