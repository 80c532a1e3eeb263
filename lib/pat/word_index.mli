(** The word index: match-point lookup over the PAT array.

    Combines the suffix array with the word-selection operators of the
    region algebra, "implemented by combined usage of the word and
    region indices" (paper §3.1).  The exact and prefix forms, which
    select whole fields, need only the region index and the text: they
    test each operand region's own bytes and search no PAT array. *)

type t

val build : Text.t -> t
(** Index every word start of the text. *)

val extend : t -> Text.t -> old_len:int -> t
(** Incremental maintenance for append-only files: upgrade an index
    over the first [old_len] bytes to one over all of [new_text]
    (whose prefix must equal the old text), tokenizing only the
    appended tail — see {!Suffix_array.extend}. *)

val text : t -> Text.t

val suffix_array : t -> Suffix_array.t
(** The PAT array behind the lookups. *)

val match_points : t -> string -> int array
(** Sorted positions where the string occurs starting at a word
    boundary and ending at a token boundary. *)

val select_containing : t -> string -> Region_set.t -> Region_set.t
(** [σ_w] (containment): the regions containing an occurrence of [w]. *)

val select_exact : t -> string -> Region_set.t -> Region_set.t
(** [σ_w] (exact): the regions whose extent is exactly an occurrence of
    [w] — "a Last_Name region that is the word Chang": a region as long
    as [w], starting a word, holding [w], and ending a word when [w]'s
    last byte is a word byte.  The same regions as those starting at
    one of {!match_points}, but decided from each region's own bytes:
    no PAT search, no word lookup counted.  One index operation and one
    region comparison per region (see {!Region_set.select}). *)

val prefix_points : t -> string -> int array
(** Sorted word-start positions where the string occurs as a prefix of
    the following text (no end-boundary check). *)

val select_prefix : t -> string -> Region_set.t -> Region_set.t
(** Prefix search: regions whose extent begins with an occurrence of
    the string ("Key regions starting with Ref00"): a region at least
    as long, starting a word, whose bytes begin with it.  Like
    {!select_exact}, a test of each region's own bytes, equal to
    keeping the regions that start at one of {!prefix_points}. *)
