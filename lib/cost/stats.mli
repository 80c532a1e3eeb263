(** Corpus statistics feeding the cost model.

    One value summarizes what the planner may assume about the data:
    per-region-name cardinalities, match-point densities and
    nesting-depth histograms.  Where each kind of source gets them:

    - a catalog-built source ([Oqf.Corpus.of_catalog],
      [of_catalog_robust], [of_snapshot]) carries {!of_entries} of its
      own manifest entry, the [rstat]/[rdepth] lines written when the
      file was indexed — no index is swept to plan a query;
    - a catalog entry written before those lines existed, and a
      single-file source ([oqf query FILE], [query --load]), use
      {!of_instance}, computed at most once per source;
    - advisor replay merges {!of_entries} over the whole catalog
      without loading any index.

    Names absent from the table fall back to a uniform default so
    estimates stay finite on partial or legacy statistics.  Nothing is
    memoized here: a value is built once by its owner and then only
    read. *)

type name_stats = {
  regions : int;  (** cardinality of the name's region set *)
  match_points : int;
      (** word starts inside the name's regions; 0 when unknown *)
  depth_hist : int array;
      (** nesting-depth histogram (index [d] counts regions under
          exactly [d] strictly-enclosing indexed regions); [||] when
          unknown *)
}

type t

val default_card : int
(** Cardinality assumed for names with no recorded statistics
    (1000). *)

val uniform : unit -> t
(** No statistics at all: every name gets {!default_card} regions, no
    densities, no depth histograms.  What static
    analysis ([oqf check], [oqf explain]) prices with, having no file
    at hand. *)

val of_instance : Pat.Instance.t -> t
(** Per-name cardinalities plus depth histograms from a loaded
    instance: depths read off the instance's region forest, then one
    forward walk per name — linear in the universe, so callers keep
    the result.  There is no word-index
    scan, so match-point densities are left unknown. *)

val of_entries : Oqf_catalog.Catalog.entry list -> t
(** Merge the build-time statistics of catalog entries: cardinalities
    and match points sum across files; depth histograms add
    bucket-wise.  Entries written before [rstat]/[rdepth] existed
    contribute nothing and the names fall back to the default. *)

val names : t -> string list
(** Names with recorded statistics, sorted. *)

val find : t -> string -> name_stats option
(** Recorded statistics for a name, if any. *)

val card : t -> string -> float
(** Estimated cardinality of a region name; [default_card] when
    unrecorded, never negative. *)

val universe : t -> float
(** Total indexed regions across all recorded names (>= 1). *)

val text_bytes : t -> float
(** Total source bytes the statistics cover; 0 when unknown.  Scales
    the cost of parsing a file instead of using its index. *)

val word_selectivity : t -> string -> float
(** Estimated fraction of the name's regions kept by a word selection,
    in [1/regions, 1].  Derived from match-point density — a region
    spanning [m] match points survives [σ_w] with probability
    [min 1 (m/W)] under independent word placement, where [W] is the
    corpus vocabulary proxy — and clamped; 0.1 when density is
    unknown.  The corpus totals behind [W] are
    summed once when the value is built, so a call is a table lookup. *)

val depth_overlap : t -> outer:string -> inner:string -> float
(** Fraction of [outer]-region/[inner]-region pairs whose nesting
    depths differ by exactly one — the histogram-overlap estimate of
    how often a direct-inclusion probe can succeed, in [0.05, 1].
    1 when either histogram is unknown (conservative). *)

val pp : Format.formatter -> t -> unit
