(** Region-index instances.

    A {e region index} is a set of region names; an {e instance} maps
    each name to a set of regions in one text (paper, Definition of the
    region algebra, §3.1).  The instance also carries the word index and
    the {e universe} — the union of all indexed regions — which is the
    context against which direct inclusion is decided.  The universe is
    kept as a {!Region_set.forest}: its node array plus one parent
    array, built with the instance.  The universe must be laminar, as
    every universe built from a parse tree is: an instance whose
    universe is not is refused with [Invalid_argument]. *)

type t

val create : Text.t -> (string * Region_set.t) list -> t
(** Build an instance over a text; the word index is built eagerly.
    Raises [Invalid_argument] on duplicate names or a universe that is
    not laminar. *)

val append : t -> Word_index.t -> (string * Region_set.t) list -> t
(** [append t word_index tail] is [t] grown over the text of
    [word_index], which extends [t]'s: each name's regions are unioned
    with its [tail] set, and the forest grows by the tail's nodes
    ({!Region_set.forest_append}), so no old node is swept again.
    Every tail region must come after every region of [t] (they start
    in the appended bytes), every name must be one of [t]'s, and the
    grown universe must be laminar; raises [Invalid_argument]
    otherwise. *)

val create_with_forest :
  Text.t -> forest:Region_set.forest -> (string * Region_set.t) list -> t
(** Like {!create} for a caller that already holds the forest, whose
    nodes must equal the union of the sets — the index decoder, which
    derives both from one node table. *)

val text : t -> Text.t
val word_index : t -> Word_index.t

val names : t -> string list
(** Indexed region names, sorted. *)

val find : t -> string -> Region_set.t
(** Instance of a region name.  Raises [Not_found] for unknown names. *)

val find_opt : t -> string -> Region_set.t option
val mem : t -> string -> bool

val universe : t -> Region_set.t
(** Union of all indexed region sets: the forest's nodes. *)

val forest : t -> Region_set.forest
(** The universe as a region forest, for the direct-inclusion kernels
    and nesting depths. *)

val restrict : t -> string list -> t
(** Keep only the given names (partial indexing); the word index is
    shared.  Unknown names are ignored.  A part of a laminar universe
    is laminar, so this is never refused. *)

val add : t -> string -> Region_set.t -> t
(** Add (or replace) one named region set.  Raises [Invalid_argument]
    when the universe it makes is not laminar. *)

val total_regions : t -> int
(** Sum of cardinals over all names — the "amount of indexing". *)
