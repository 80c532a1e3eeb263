(** A persistent catalog of indexed files.

    The paper's motivating scenario (§2) is a file system of evolving
    semi-structured files: shared bibliographies that members edit,
    logs that only grow.  A catalog is a directory that maps source
    files to persisted indices:

    {v
    <dir>/CATALOG                 current manifest: generation stamp,
                                  then schema, indexed names,
                                  fingerprint, format version and index
                                  file per source
    <dir>/GEN                     generation pointer ("oqf-gen N")
    <dir>/generations/MANIFEST.gN immutable image of generation N
    <dir>/indices/*.idx           persisted instances (Pat.Index_store)
    v}

    {b Staleness rules.}  An entry is fresh when its source file still
    has the recorded length and MD5 fingerprint and its index file
    passes {!Pat.Index_store.verify} at the current format version.  A
    source that {e grew} while its old prefix kept the recorded
    fingerprint is {e appended}: refresh maintains its index
    incrementally (tokenize and parse only the tail — see
    {!Incremental}) instead of rebuilding.  Anything else — edited or
    truncated source, missing/corrupt/outdated index — is rebuilt from
    scratch.

    {b Generations and snapshot isolation.}  Every committed mutation
    (add, refresh, heal, quarantine) produces a new, monotonically
    numbered generation: the manifest is stamped, an immutable image is
    kept under [generations/], and rebuilt or extended indices are
    written under fresh generation-suffixed names — never over a file
    an older generation references.  A reader calls {!pin} to hold the
    generation it started on (refcounted); {!snapshot_load} then reads
    exactly that generation's bytes no matter how many commits land
    concurrently.  Unpinned superseded generations are retired by
    {!retire_unreferenced} (run after every commit and on the last
    {!release} of an old generation); retirement is crash-safe — a kill
    at any point leaves extra files, never missing ones — and
    {!repair} collapses whatever strays a crash left behind.  The
    concurrency contract is one writer plus any number of pinned
    readers.

    Loaded instances are served through a bounded LRU
    {!Instance_cache} keyed by index file name (unique per
    generation), so repeated queries do not reload from disk. *)

type entry = {
  source : string;  (** path of the source file *)
  schema : string;  (** a {!Schemas} name *)
  index_names : string list;  (** region names indexed for this source *)
  length : int;  (** source length at the last (re)build *)
  digest : string;  (** hex MD5 of the source at the last (re)build *)
  version : int;  (** index format version the entry was written with *)
  index_file : string;  (** index path relative to the catalog directory *)
  stats : (string * int * int) list;
      (** per region name: [(name, region count, match-point count)],
          captured when the index was (re)built.  A match point is a
          word start inside a region's span.  Empty for entries
          written by versions that predate the field — manifests with
          and without it read each other cleanly. *)
  depths : (string * int array) list;
      (** per region name: histogram of nesting depths — index [d]
          counts the regions of that name lying under exactly [d]
          strictly-enclosing indexed regions (the last bucket absorbs
          deeper nesting).  Captured at (re)build time; empty for
          entries written before the field existed, with the same
          compatibility contract as [stats]. *)
}

val instance_figures :
  from:int ->
  stats:(string * int * int) list ->
  depths:(string * int array) list ->
  Pat.Instance.t ->
  (string * int * int) list * (string * int array) list
(** [instance_figures ~from ~stats ~depths instance] is the [stats] and
    [depths] fields of an entry for [instance], per indexed name in
    sorted name order (8 depth buckets, trailing empty buckets
    trimmed).  [stats] and [depths] are the figures of the regions
    that start before [from]; the figures of the regions and forest
    nodes that start at or past it are added to them, and only the
    text from [from] on is read (and the byte before it, which decides
    whether a word starts at [from]).  A build passes [~from:0] and
    no figures; an append passes the old length and the old entry's
    figures, so it costs what it appends.  The bytes read count in
    [catalog.stats_bytes_scanned].  The cost planner reads the depths
    of a live instance with [~from:0]. *)

type t

val init : string -> (t, string) result
(** Create an empty catalog in a directory (created if missing), at
    generation 0.  Fails if the directory already holds one. *)

val open_dir : ?budget_bytes:int -> string -> (t, string) result
(** Open an existing catalog.  [budget_bytes] bounds the instance
    cache (default 64 MiB).

    Opening is crash-tolerant: a torn or partially damaged manifest
    (possible on filesystems without atomic rename, or after
    hand-editing) keeps its complete leading entries, drops the
    damaged tail, and is immediately rewritten in repaired form; a
    missing, damaged, or disagreeing generation pointer is rewritten
    from the manifest (adopting the higher number as the numbering
    floor when the pointer is ahead — the signature of a crash between
    the manifest swap and the pointer move).  Every incident is
    reported through {!recovery_warnings} and the [catalog.recovered]
    metric.  A manifest without a generation stamp (written before
    generations existed) opens silently at generation 0.  Only a file
    that is not a catalog manifest at all fails to open. *)

val recovery_warnings : t -> string list
(** Human-readable notes about damage repaired while opening
    (empty for a clean open). *)

val dir : t -> string
val entries : t -> entry list
val find : t -> string -> entry option
val cache : t -> Instance_cache.t

val generation : t -> int
(** The current committed generation number (0 for a fresh or legacy
    catalog). *)

val add :
  t -> schema:string -> ?index:string list -> string -> (entry, string) result
(** Index a source file and record it, committing a new generation.
    [index] defaults to every indexable non-terminal of the schema;
    names outside the grammar are rejected.  Fails if the source is
    already catalogued. *)

(** {2 Snapshots}

    A snapshot is a refcounted pin on the generation current at
    {!pin} time: its entry list is immutable, and the index files it
    references are never overwritten or deleted while the pin is
    held.  The [snapshot.pinned] gauge tracks the total number of
    outstanding pins. *)

type snapshot

val pin : t -> snapshot
(** Pin the current generation.  Must be balanced by {!release}. *)

val release : snapshot -> unit
(** Drop one pin.  Releasing the last pin of a superseded generation
    triggers {!retire_unreferenced}.  Releasing more than once is a
    refcounting bug (the excess release is ignored). *)

val with_snapshot : t -> (snapshot -> 'a) -> 'a
(** [with_snapshot t f] pins, runs [f], and releases (also on
    exception). *)

val snapshot_generation : snapshot -> int
val snapshot_entries : snapshot -> entry list
val snapshot_load : snapshot -> string -> (Pat.Instance.t, string) result
(** The instance of a source as of the pinned generation, through the
    shared LRU cache.  Unlike {!load} this never heals and never
    commits: a pinned generation's bytes are immutable, and a rebuild
    from a since-changed source could not reproduce them.  Fails if
    the source is not in the snapshot or its index file is
    unreadable. *)

val list_generations : t -> int list
(** The generation numbers whose manifest images exist on disk,
    sorted ascending.  After retirement only the current generation
    (and any still-pinned ones) remain. *)

val retire_unreferenced : t -> string list
(** Delete every generation image older than the current one that no
    snapshot pins, together with the index files only retired
    generations reference; returns the catalog-relative paths removed.
    Runs automatically after every commit and on the last {!release}
    of an old generation; callable explicitly (the watcher does, per
    scan).  Crash-safe: deletion candidates come only from retired
    generation manifests, anything referenced by the current entries
    or a surviving image is spared, and a kill mid-pass leaves only
    extra files for the next pass (or {!repair}) to finish. *)

type staleness =
  | Fresh
  | Source_missing
  | Index_missing
  | Index_unreadable of string  (** version mismatch, corruption, … *)
  | Appended of { old_len : int; new_len : int }
  | Changed

val staleness : t -> entry -> staleness
(** Fingerprint one source file against its entry.  A current index
    file is checked (header, version, checksum) but not decoded. *)

val possibly_stale : t -> entry -> bool
(** A cheap, stat-only pre-check for long-lived processes: [true] when
    the entry {e might} be stale (source or index missing, recorded
    length or index format version differ, or the source is newer than
    its index) and a {!refresh} is worth running; [false] when the
    entry is provably current under the recorded metadata.  Unlike
    {!staleness} this never reads or hashes file contents, so the
    serve daemon can afford it on every request.  "Newer" compares the
    later of the source's mtime and ctime with the index's mtime, so a
    same-length in-place edit whose mtime was set back (ctime cannot
    be) is still caught. *)

val status : t -> (entry * staleness) list
val pp_staleness : Format.formatter -> staleness -> unit

val orphan_index_files : t -> string list
(** Files under [<dir>/indices] that neither the current manifest nor
    any surviving generation image references (paths relative to the
    catalog directory, sorted) — debris from crashed rebuilds or
    hand-deleted entries.  [oqf catalog audit] reports them. *)

type refresh = Unchanged | Extended of { added_bytes : int } | Rebuilt of string

val refresh : t -> string -> (refresh, string) result
(** Bring one entry up to date, choosing incremental extension for
    append-only growth and a full rebuild otherwise.  A change commits
    a new generation.  A failed incremental attempt (tail does not
    parse, schema not append-only) silently degrades to a rebuild —
    its reason says why.  A current entry's index file is checked as
    {!staleness} checks it, without decoding it, and a corrupt or
    unreadable index rebuilds. *)

val refresh_for_load : t -> string -> (refresh, string) result
(** {!refresh} for a caller that {!load}s the entry next (the pre-pass
    of [oqf catalog query]): an index whose source fingerprint is
    current is taken on its manifest's format version, without reading
    the file.  The load then checks header and checksum as it decodes,
    and heals a damaged index there, so a cold query reads and hashes
    each index once whatever the instance cache's budget. *)

val refresh_all : t -> (string * (refresh, string) result) list
(** {!refresh} every entry, in catalogue order, continuing past
    failures: each entry reports its own outcome, so one corrupt or
    missing source cannot block refresh of the healthy ones. *)

val load : t -> string -> (Pat.Instance.t, string) result
(** The instance of a catalogued source, through the LRU cache.

    Self-healing: when the persisted index is missing, corrupt, or at
    an outdated format version but the source file still exists, the
    index is transparently rebuilt from the source (and re-persisted
    as a new generation) while serving the request — counted by the
    [catalog.healed] metric.  Loading fails only when the index is
    unusable {e and} the source is gone. *)

type repair_action =
  | Healed of string  (** index rebuilt from the source (the reason) *)
  | Quarantined of string
      (** entry dropped from the manifest: its source is gone or its
          rebuild failed (the reason) *)
  | Removed_orphan  (** unreferenced file under [indices/] deleted *)
  | Collapsed_generation of int
      (** stray generation image deleted: a crashed commit's future
          image, or a superseded generation the reaper never got to *)

val repair : t -> (string * repair_action) list
(** Apply the self-healing logic offline to every entry: rebuild
    missing/corrupt indices, drop entries whose source is gone, then
    collapse stray generation images and sweep orphan index files.
    Returns what was done, keyed by source path (or catalog-relative
    file path for orphans and collapsed images), in catalogue order.
    Entries that are merely stale ([Changed]/[Appended]) are left for
    {!refresh}.  Persists the repaired manifest. *)

val pp_repair_action : Format.formatter -> repair_action -> unit

val pp_refresh : Format.formatter -> refresh -> unit
